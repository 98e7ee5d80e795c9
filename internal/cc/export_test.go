package cc

// RateBps returns the current rate in bits/s.
func (d *DCQCN) RateBps() float64 { return d.currentRate * 8 }

// RateBps returns the current rate in bits/s.
func (t *TIMELY) RateBps() float64 { return t.rate * 8 }
