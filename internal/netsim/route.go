package netsim

import "math/bits"

// This file holds the switch's dense route table: a flat []int32 arena of
// ECMP port sets plus one routeEntry per destination host, replacing the
// former map[int][]int32. Host IDs are contiguous 0..N-1, so the per-packet
// route lookup is two array indexes with no map probe; ECMP selection uses
// a precomputed 2^64 reciprocal instead of an integer divide.

// routeEntry locates one destination's ECMP port set inside the switch's
// route arena and carries the reciprocal that replaces the per-packet
// `hash % n` divide.
type routeEntry struct {
	off   int32  // start of the set within the arena
	n     int32  // set size; 0 = no route to this destination
	magic uint64 // ecmpMagic(n); meaningless when n == 0
}

// ecmpMagic returns the 2^64 reciprocal of d used by ecmpMod: ⌈2^64/d⌉
// computed without 128-bit arithmetic. For d == 1 the addition wraps to 0,
// which ecmpMod handles correctly (x % 1 == 0 for every x).
func ecmpMagic(d uint32) uint64 {
	return ^uint64(0)/uint64(d) + 1
}

// ecmpMod returns x % d for any uint32 x, given magic == ecmpMagic(d).
// This is the Lemire–Kaser "fastmod" identity: with m = ⌈2^64/d⌉, the low
// 64 bits of m*x carry the fractional part of x/d scaled by 2^64, and the
// high half of (m*x mod 2^64) * d recovers the remainder exactly — proven
// exact for every 32-bit x and every d in [1, 2^32) ("Faster remainders
// when the divisor is a constant", arXiv:1902.01961). ECMP path selection
// is therefore bit-identical to the former `int(hash) % len(ports)` (the
// int was non-negative, so signed and unsigned remainders agree).
// TestECMPModMatchesModulo pins the identity across boundary hashes.
func ecmpMod(x uint32, magic uint64, d uint32) uint32 {
	hi, _ := bits.Mul64(magic*uint64(x), uint64(d))
	return uint32(hi)
}

// ResetRoutes clears the route table and sizes it for destinations
// 0..ndests-1, keeping the arena's capacity so a rebuild (topo's
// RecomputeRoutes on every fault-plan link event) allocates nothing in
// steady state. Every destination starts with no route; install sets with
// SetRoute.
func (s *Switch) ResetRoutes(ndests int) {
	s.routeArena = s.routeArena[:0]
	if cap(s.routes) < ndests {
		s.routes = make([]routeEntry, ndests)
		return
	}
	s.routes = s.routes[:ndests]
	clear(s.routes)
}

// SetRoute installs ports as the ECMP set for destination host dst, copied
// into the route arena. The table grows to cover dst if needed. Replacing
// an existing set appends a fresh copy and abandons the old arena region;
// full rebuilds should go through ResetRoutes, which reclaims it.
func (s *Switch) SetRoute(dst int, ports []int32) {
	if dst >= len(s.routes) {
		if dst >= cap(s.routes) {
			grown := make([]routeEntry, dst+1)
			copy(grown, s.routes)
			s.routes = grown
		} else {
			old := len(s.routes)
			s.routes = s.routes[:dst+1]
			clear(s.routes[old:])
		}
	}
	if len(ports) == 0 {
		s.routes[dst] = routeEntry{}
		return
	}
	off := int32(len(s.routeArena))
	s.routeArena = append(s.routeArena, ports...)
	s.routes[dst] = routeEntry{
		off:   off,
		n:     int32(len(ports)),
		magic: ecmpMagic(uint32(len(ports))),
	}
}

// Route returns dst's ECMP port set as a read-only view into the route
// arena (nil when there is no route). Callers must not mutate or retain it
// across a ResetRoutes/SetRoute.
func (s *Switch) Route(dst int) []int32 {
	if dst < 0 || dst >= len(s.routes) {
		return nil
	}
	e := s.routes[dst]
	if e.n == 0 {
		return nil
	}
	return s.routeArena[e.off : e.off+e.n : e.off+e.n]
}
