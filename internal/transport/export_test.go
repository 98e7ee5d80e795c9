package transport

// Inflight returns the bytes currently in flight.
func (s *Sender) Inflight() int { return s.inflight }
