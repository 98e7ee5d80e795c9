package netsim

import (
	"fmt"
	"math/rand"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// Switch is a shared-buffer, output-queued switch with strict-priority
// scheduling per port, dynamic-threshold buffer admission, optional PFC,
// and optional ECN marking and INT stamping.
type Switch struct {
	Eng    *sim.Engine
	Name   string
	Ports  []*Port
	Buffer BufferConfig

	// trace, the switch's cold state, receives drop and ECN-mark events
	// (enqueue/dequeue events come from the ports); nil until
	// harness.Net.Observe installs it through SetTrace.
	trace *devTrace

	// Pool, when non-nil, receives packets this switch drops, so lossy
	// runs stay allocation-free. Installed by internal/harness; a nil pool
	// is always safe (Put on a nil pool is a no-op) and just leaves
	// dropped packets to the GC.
	Pool *PacketPool

	// AllowNoRoute turns the no-route invariant panic into a counted drop.
	// The fault layer sets it when a plan is installed: link failures can
	// legitimately partition a destination, and packets already in flight
	// toward the partition must die quietly, not crash the run.
	AllowNoRoute bool

	// Dense route table: per-destination ECMP sets in one flat arena,
	// indexed by the contiguous host ID. See route.go for the install API
	// (ResetRoutes/SetRoute/Route), built by internal/topo.
	routes     []routeEntry
	routeArena []int32

	buf *sharedBuffer
	rng *rand.Rand

	// ecnOff short-circuits the marking check when the configuration can
	// never mark (no per-VPrio thresholds, KMin disabled). Computed at
	// Finalize.
	ecnOff bool

	// Counters.
	RxPackets   int64
	NoRouteDrop int64
	ECNMarks    int64
}

// NewSwitch creates a switch; ports are added with AddPort before Finalize.
func NewSwitch(eng *sim.Engine, name string, cfg BufferConfig, rng *rand.Rand) *Switch {
	return &Switch{
		Eng:    eng,
		Name:   name,
		Buffer: cfg,
		rng:    rng,
	}
}

// AddPort creates and registers an egress port with nqueues priority
// queues, returning it for wiring with Connect.
func (s *Switch) AddPort(rate Rate, prop sim.Time, nqueues int) *Port {
	p := newPort(s.Eng, rate, prop, nqueues)
	p.Switch = s
	p.Index = len(s.Ports)
	s.Ports = append(s.Ports, p)
	return p
}

// Finalize allocates buffer accounting once all ports exist. It must be
// called before traffic flows.
func (s *Switch) Finalize() {
	nprios := 1
	for _, p := range s.Ports {
		nprios = max(nprios, p.NumQueues())
	}
	s.buf = newSharedBuffer(s.Buffer, len(s.Ports), nprios)
	s.ecnOff = s.Buffer.ECNKByVPrio == nil && s.Buffer.ECNKMin <= 0
}

// SetTrace installs the run's switch-side trace emitter (see the trace
// field); dev is this switch's id in the recorder's name table. Pass nil to
// remove.
func (s *Switch) SetTrace(em *obs.Emitter, dev obs.DevID) {
	s.trace = nil
	if em != nil {
		s.trace = &devTrace{em: em, dev: dev}
	}
}

// Drops returns the number of packets dropped for buffer exhaustion.
func (s *Switch) Drops() int64 { return s.buf.Drops }

// DropBytes returns the bytes dropped for buffer exhaustion.
func (s *Switch) DropBytes() int64 { return s.buf.DropBytes }

// BufferHWM returns the shared-pool occupancy high-water mark in bytes.
func (s *Switch) BufferHWM() int { return s.buf.UsedHWM }

// PausesSent returns the number of PFC pause transitions generated.
func (s *Switch) PausesSent() int64 { return s.buf.PausesSent }

// BufferUsed returns the shared-pool occupancy in bytes.
func (s *Switch) BufferUsed() int { return s.buf.Used() }

// HeadroomUsed returns the PFC headroom occupancy in bytes; under incast
// this, not the shared pool, is where most queued bytes live.
func (s *Switch) HeadroomUsed() int { return s.buf.HeadroomUsed() }

// HeadroomHWM returns the peak PFC headroom occupancy seen.
func (s *Switch) HeadroomHWM() int { return s.buf.HdrHWM }

// HandlePacket is called when a packet fully arrives on port in: route,
// admit, mark, enqueue. The common
// case — route present, next hop up, admitted, no marking — runs straight
// through with the drop paths outlined into noinline functions; every
// decision (ECMP selection, admission, marking) is bit-identical to the
// pre-dense-table implementation.
func (s *Switch) HandlePacket(pkt *Packet, in *Port) {
	checkLive(pkt, "Switch.HandlePacket")
	s.RxPackets++
	dst := pkt.Dst
	if uint(dst) >= uint(len(s.routes)) {
		s.dropNoRoute(pkt)
		return
	}
	e := &s.routes[dst]
	if e.n == 0 {
		s.dropNoRoute(pkt)
		return
	}
	out := s.Ports[s.routeArena[e.off+int32(ecmpMod(pkt.Hash, e.magic, uint32(e.n)))]]
	if out.IsDown() {
		// ECMP next-hop exclusion: re-hash over the live subset so flows
		// route around a downed link without waiting for the control plane.
		out = s.liveNextHop(s.routeArena[e.off:e.off+e.n], int(pkt.Hash))
		if out == nil {
			s.NoRouteDrop++
			s.Pool.Put(pkt)
			return
		}
	}
	prio := out.clampPrio(pkt.Prio)
	size := pkt.Wire

	lossless := s.buf.lossless(prio)
	if lossless {
		admitted, sendPause := s.buf.admitLossless(in.Index, prio, size)
		if sendPause {
			in.SendPause(prio, true)
		}
		if !admitted {
			s.dropAdmission(pkt, out, prio)
			return
		}
	} else if !s.buf.admitLossy(out.queues[prio].bytes, size) {
		s.dropAdmission(pkt, out, prio)
		return
	}

	if pkt.Type == Data && pkt.ECT && !pkt.CE && !s.ecnOff {
		s.maybeMark(pkt, out, prio, size)
	}

	// The egress port is known up (checked at route selection, and link
	// state cannot change within this event), so enqueue skips the public
	// Enqueue wrapper's down-check and priority re-clamp.
	out.enqueue(TxItem{
		Pkt:      pkt,
		Sw:       s,
		InPort:   int32(in.Index),
		QPrio:    int16(prio),
		Lossless: lossless,
	}, prio)
}

// dropNoRoute is the routeless-destination cold path: count, panic unless
// the fault layer legitimized partitions, recycle.
//
//go:noinline
func (s *Switch) dropNoRoute(pkt *Packet) {
	s.NoRouteDrop++
	if !s.AllowNoRoute {
		panic(fmt.Sprintf("netsim: switch %s has no route to host %d", s.Name, pkt.Dst))
	}
	s.Pool.Put(pkt)
}

// dropAdmission is the buffer-refusal cold path: trace and recycle.
//
//go:noinline
func (s *Switch) dropAdmission(pkt *Packet, out *Port, prio int) {
	if s.trace != nil {
		s.trace.packet(obs.Drop, pkt, out, prio, out.queues[prio].bytes)
	}
	s.Pool.Put(pkt)
}

// maybeMark applies ECN marking to an admitted ECT data packet, drawing
// from the switch's generator only where the draw decides (ecnMark).
func (s *Switch) maybeMark(pkt *Packet, out *Port, prio, size int) {
	if s.Buffer.ecnMark(out.queues[prio].bytes+size, pkt.VPrio, s.rng) {
		pkt.CE = true
		s.ECNMarks++
		if s.trace != nil {
			s.trace.packet(obs.Mark, pkt, out, prio, out.queues[prio].bytes+size)
		}
	}
}

// liveNextHop scans the ECMP set from the hashed candidate onward and
// returns the first port whose link is up, or nil when every next hop is
// down. The scan order is a pure function of (hash, set), so re-routing is
// deterministic.
func (s *Switch) liveNextHop(ports []int32, hash int) *Port {
	n := len(ports)
	start := hash % n
	for i := 1; i < n; i++ {
		p := s.Ports[ports[(start+i)%n]]
		if !p.IsDown() {
			return p
		}
	}
	return nil
}

// Reboot models an instantaneous switch restart: every egress queue is
// drained (packets recycled into the pool, shared-buffer accounting
// released, with PFC resumes sent upstream as ingress classes empty) and
// any pause state received from downstream is forgotten. Packets in flight
// toward the switch are admitted fresh on arrival. Dropped packets count
// as fault drops on their egress port.
func (s *Switch) Reboot() {
	for _, p := range s.Ports {
		p.dropQueued()
		for q := 0; q < p.NumQueues(); q++ {
			p.SetPaused(q, false)
		}
	}
}

// releaseItem returns a departing packet's bytes to the shared buffer and
// sends a PFC resume if its ingress class dropped below the XON point.
func (s *Switch) releaseItem(it TxItem) {
	if s.buf.release(int(it.InPort), int(it.QPrio), it.Pkt.Wire, it.Lossless) {
		s.Ports[it.InPort].SendPause(int(it.QPrio), false)
	}
}

// AuditBuffer checks the switch's conservation invariants between events:
// shared-pool and headroom occupancy must be non-negative, the headroom
// total must equal the per-class sum, and occupancy must equal the bytes
// actually sitting in the egress queues (admission charges on arrival,
// release happens at dequeue, and both stay within one event — so between
// events the books must balance exactly). It returns "" when every
// invariant holds, else a description of the first violation. Only sound
// from a sampler hook: mid-event the charge and the enqueue are
// legitimately out of step.
func (s *Switch) AuditBuffer() string {
	b := s.buf
	if b.used < 0 {
		return fmt.Sprintf("%s: shared-pool occupancy negative (%d bytes)", s.Name, b.used)
	}
	if b.hdrUsed < 0 {
		return fmt.Sprintf("%s: headroom occupancy negative (%d bytes)", s.Name, b.hdrUsed)
	}
	hdrSum := 0
	for i, h := range b.hdr {
		if h < 0 {
			return fmt.Sprintf("%s: class %d headroom negative (%d bytes)", s.Name, i, h)
		}
		if b.ing[i] < 0 {
			return fmt.Sprintf("%s: class %d ingress occupancy negative (%d bytes)", s.Name, i, b.ing[i])
		}
		hdrSum += h
	}
	if hdrSum != b.hdrUsed {
		return fmt.Sprintf("%s: headroom total %d != per-class sum %d", s.Name, b.hdrUsed, hdrSum)
	}
	queued := 0
	for _, p := range s.Ports {
		queued += p.TotalQueuedBytes()
	}
	if b.used+b.hdrUsed != queued {
		return fmt.Sprintf("%s: buffer accounting %d (shared %d + headroom %d) != queued bytes %d",
			s.Name, b.used+b.hdrUsed, b.used, b.hdrUsed, queued)
	}
	return ""
}

// AuditPFC checks PFC pause symmetry: with no pause/resume frames in
// flight (the caller gates on PacketPool.CtrlInFlight() == 0), every
// ingress class this switch has paused must be seen as paused by the
// upstream peer's egress queue, and vice versa. Peers with fewer queues
// than the class width are skipped — their clampPrio folds several
// priorities onto one queue, making per-priority symmetry ill-defined
// (host NICs are the in-tree case). Returns "" when symmetric, else a
// description of the first asymmetry.
func (s *Switch) AuditPFC() string {
	b := s.buf
	lossless := min(s.Buffer.LosslessPrios, b.nprios)
	for _, p := range s.Ports {
		peer := p.Peer
		if peer == nil || peer.NumQueues() < lossless {
			continue
		}
		for prio := 0; prio < lossless; prio++ {
			want := b.paused[p.Index*b.nprios+prio]
			if got := peer.Paused(prio); got != want {
				return fmt.Sprintf("%s: port %d prio %d pause asymmetry: ingress paused=%v, upstream %s egress paused=%v",
					s.Name, p.Index, prio, want, peer.DeviceName(), got)
			}
		}
	}
	return ""
}
