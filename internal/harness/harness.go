// Package harness wires topologies, transport stacks, and congestion
// controllers into runnable scenarios. Experiments and tests build on it.
package harness

import (
	"prioplus/internal/cc"
	"prioplus/internal/fault"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/transport"
)

// Net is a topology with a transport stack on every host.
type Net struct {
	Eng    *sim.Engine
	Topo   *topo.Network
	Stacks []*transport.Stack

	// Pool is the run-wide packet pool: every stack draws its packets from
	// it and every switch recycles drops into it, so the steady-state
	// packet path allocates nothing.
	Pool *netsim.PacketPool

	// Faults is the live fault injector when the Net was built with
	// WithFaults; nil on a healthy fabric.
	Faults *fault.Injector

	// Rec is the recorder the Net was built with (WithRecorder); nil on an
	// uninstrumented run.
	Rec *obs.Recorder

	nextFlow int64
	seed     int64
}

// An Option configures a Net at construction time. Options replace the old
// setter methods (SetNoise, SetAckPrioData, EnableINT): a Net's shape is
// fixed at New, which keeps mid-run reconfiguration — a determinism hazard
// — out of the API.
type Option func(*Net)

// WithNoise installs a delay-measurement noise source on every stack.
func WithNoise(f func() sim.Time) Option {
	return func(n *Net) {
		for _, st := range n.Stacks {
			st.Noise = f
		}
	}
}

// WithAckPrioData makes ACKs share the data packet's priority (the paper's
// PrioPlus* ablation) instead of the default highest queue.
func WithAckPrioData() Option {
	return func(n *Net) {
		for _, st := range n.Stacks {
			st.AckPrioData = true
		}
	}
}

// WithINT turns on INT stamping on every fabric port (for HPCC).
func WithINT() Option {
	return func(n *Net) {
		for _, sw := range n.Topo.Switches {
			for _, p := range sw.Ports {
				p.INTEnabled = true
			}
		}
		for _, h := range n.Topo.Hosts {
			h.NIC.INTEnabled = true
		}
	}
}

// WithFaults resolves a fault plan against the topology and schedules its
// events on the engine; the live injector is exposed as Net.Faults. A nil
// or empty plan is a no-op, so callers can thread an optional plan through
// unconditionally.
func WithFaults(plan *fault.Plan) Option {
	return func(n *Net) {
		if plan.Empty() {
			return
		}
		n.Faults = plan.Install(n.Topo)
	}
}

// WithRecorder instruments the run: New attaches rec (Observe) once every
// other option has been applied — after the fault plan whatever the option
// order, so the fault log is always wired, and before any traffic exists —
// and Run completes the recorder protocol. A nil recorder is a no-op, like
// a nil fault plan.
func WithRecorder(rec *obs.Recorder) Option {
	return func(n *Net) { n.Rec = rec }
}

// New installs transport stacks on every host of the topology, wires one
// shared packet pool through stacks, switches, and ports (fault drops
// recycle through it too), applies the options in order, then attaches the
// recorder if one was given.
func New(t *topo.Network, seed int64, opts ...Option) *Net {
	n := &Net{Eng: t.Eng, Topo: t, seed: seed, Pool: netsim.NewPacketPool()}
	for _, h := range t.Hosts {
		st := transport.NewStack(t.Eng, h)
		st.Pool = n.Pool
		h.NIC.Pool = n.Pool
		n.Stacks = append(n.Stacks, st)
	}
	for _, sw := range t.Switches {
		sw.Pool = n.Pool
		for _, p := range sw.Ports {
			p.Pool = n.Pool
		}
	}
	for _, o := range opts {
		o(n)
	}
	if n.Rec != nil {
		n.Observe(n.Rec)
	}
	return n
}

// Run runs the engine to the horizon; call it once, after the flows are
// registered. On a Net built WithRecorder it is the whole recorder protocol
// of docs/OBSERVABILITY.md: the device counters are collected — which fires
// rec.OnCollected — exactly once, after the engine returns. With no
// recorder it is a plain RunUntil.
func (n *Net) Run(horizon sim.Time) {
	n.Eng.RunUntil(horizon)
	if n.Rec != nil {
		n.CollectMetrics(n.Rec)
	}
}

// Flow describes a flow to launch.
type Flow struct {
	Src, Dst   int
	Size       int64
	Prio       int // physical priority for data packets
	Algo       cc.Algorithm
	StartAt    sim.Time
	OnComplete func(fct sim.Time)
	// Paced spreads the window across the RTT instead of ack-clocked
	// bursts. Default off: the paper's ns-3 senders are window-based, and
	// the validated dynamics (blast -> cardinality estimation -> settle)
	// assume it.
	Paced bool
	VPrio int16
}

// AddFlow registers and schedules a flow; it returns the sender for
// inspection. The flow's base RTT is computed from the topology.
func (n *Net) AddFlow(f Flow) *transport.Sender {
	n.nextFlow++
	id := n.nextFlow
	st := n.Stacks[f.Src]
	s := st.NewFlow(transport.FlowSpec{
		ID:         id,
		Dst:        f.Dst,
		Size:       f.Size,
		Prio:       f.Prio,
		BaseRTT:    n.Topo.BaseRTT(f.Src, f.Dst),
		Algo:       f.Algo,
		OnComplete: f.OnComplete,
		Rand:       n.Eng.LazyRand(n.seed ^ id<<17 ^ 0x5bd1e995),
		Paced:      f.Paced,
		VPrio:      f.VPrio,
	})
	n.Eng.At(max(f.StartAt, n.Eng.Now()), s.Start)
	return s
}

// BDPPackets returns the line-rate bandwidth-delay product between two
// hosts, in MTU packets.
func (n *Net) BDPPackets(src, dst int) float64 {
	return n.Topo.Cfg.HostRate.BDP(n.Topo.BaseRTT(src, dst)) / netsim.DefaultMTU
}

// ThroughputMeter samples the cumulative bytes delivered for a set of
// flows, for rate-over-time plots.
type ThroughputMeter struct {
	bytes map[int]*int64 // key -> cumulative bytes
}

// NewThroughputMeter returns an empty meter.
func NewThroughputMeter() *ThroughputMeter {
	return &ThroughputMeter{bytes: make(map[int]*int64)}
}

// Counter returns the cumulative-bytes cell for a key, creating it on
// first use. Wire it into a flow by adding the payload of every delivered
// packet.
func (m *ThroughputMeter) Counter(key int) *int64 {
	if c, ok := m.bytes[key]; ok {
		return c
	}
	c := new(int64)
	m.bytes[key] = c
	return c
}

// Snapshot returns the current cumulative byte counts by key.
func (m *ThroughputMeter) Snapshot() map[int]int64 {
	out := make(map[int]int64, len(m.bytes))
	for k, c := range m.bytes {
		out[k] = *c
	}
	return out
}

// RateSampler periodically converts a ThroughputMeter's cumulative counts
// into per-window rates, for rate-over-time analyses.
type RateSampler struct {
	window sim.Time
	last   map[int]int64
	meter  *ThroughputMeter
	Times  []sim.Time
	Rates  []map[int]float64 // Gb/s per key per window
}

// SampleRates arranges periodic rate sampling of traffic delivered to one
// host, keyed by the given function, until the given time.
func (n *Net) SampleRates(recv int, key func(pkt *netsim.Packet) int, window, until sim.Time) *RateSampler {
	rs := &RateSampler{window: window, last: map[int]int64{}, meter: NewThroughputMeter()}
	n.SinkCounter(recv, rs.meter, key)
	var tick func()
	tick = func() {
		snap := rs.meter.Snapshot()
		rates := make(map[int]float64)
		for k, v := range snap {
			rates[k] = float64(v-rs.last[k]) * 8 / window.Seconds() / 1e9
			rs.last[k] = v
		}
		rs.Rates = append(rs.Rates, rates)
		rs.Times = append(rs.Times, n.Eng.Now())
		if n.Eng.Now()+window <= until {
			n.Eng.After(window, tick)
		}
	}
	n.Eng.After(window, tick)
	return rs
}

// Between returns the mean rate of key over (from, to].
func (rs *RateSampler) Between(from, to sim.Time, key int) float64 {
	var avg float64
	n := 0
	for i, t := range rs.Times {
		if t > from && t <= to {
			avg += rs.Rates[i][key]
			n++
		}
	}
	if n > 0 {
		avg /= float64(n)
	}
	return avg
}

// SinkCounter attaches a delivered-bytes counter for a host: every data
// packet arriving at the host adds its payload to the counter keyed by the
// packet's priority (or flow, if byFlow).
func (n *Net) SinkCounter(host int, m *ThroughputMeter, key func(pkt *netsim.Packet) int) {
	h := n.Topo.Hosts[host]
	inner := h.Sink
	h.Sink = func(pkt *netsim.Packet) {
		if pkt.Type == netsim.Data {
			*m.Counter(key(pkt)) += int64(pkt.Payload)
		}
		inner(pkt)
	}
}
