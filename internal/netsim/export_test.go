package netsim

// Mbps is one megabit per second.
const Mbps Rate = 1e6

// Generation returns the packet object's pool generation: the number of
// times it has been recycled. Code that (illegally) holds a packet past a
// handoff can snapshot it to detect reuse.
func (pkt *Packet) Generation() uint32 { return pkt.gen }

// NewData returns a freshly allocated data packet of the given payload
// size.
func NewData(flow int64, src, dst, prio int, seq int64, payload int) *Packet {
	return (*PacketPool)(nil).Data(flow, src, dst, prio, seq, payload)
}

// NewAck returns a freshly allocated ACK for the given data packet,
// addressed back to its sender at priority ackPrio. The ACK carries a copy
// of the data packet's INT records, so the caller keeps full ownership of
// the data packet.
func NewAck(data *Packet, ackPrio int, cum int64) *Packet {
	return (*PacketPool)(nil).Ack(data, ackPrio, cum)
}

// FreeLen returns the current free-list length (0 for the nil pool).
func (p *PacketPool) FreeLen() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// ClearRoute removes the route to dst, so forwarding to it becomes a
// no-route drop (or panic, per AllowNoRoute).
func (s *Switch) ClearRoute(dst int) {
	if dst >= 0 && dst < len(s.routes) {
		s.routes[dst] = routeEntry{}
	}
}

// RouteDests returns the size of the dense destination space (one past the
// highest destination ever installed).
func (s *Switch) RouteDests() int { return len(s.routes) }
