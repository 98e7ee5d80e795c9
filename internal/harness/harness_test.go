package harness_test

import (
	"math/rand"
	"runtime"
	"testing"

	"prioplus/internal/cc"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

func newNet(nHosts int, opts ...harness.Option) (*harness.Net, *sim.Engine) {
	eng := sim.NewEngine()
	cfg := topo.DefaultConfig()
	cfg.LinkDelay = 3 * sim.Microsecond
	return harness.New(topo.Star(eng, nHosts, cfg), 5, opts...), eng
}

func swift(net *harness.Net, src, dst int) cc.Algorithm {
	base := net.Topo.BaseRTT(src, dst)
	return cc.NewSwift(cc.DefaultSwiftConfig(base, net.BDPPackets(src, dst)))
}

func TestAddFlowCompletes(t *testing.T) {
	net, eng := newNet(3)
	done := false
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 100_000, Prio: 0,
		Algo: swift(net, 0, 2), OnComplete: func(sim.Time) { done = true }})
	eng.RunUntil(5 * sim.Millisecond)
	if !done {
		t.Fatal("flow did not complete")
	}
}

func TestAddFlowPastStartClamped(t *testing.T) {
	// Scheduling a flow with StartAt in the past (relative to Now) must
	// clamp to now rather than panic — completion callbacks launch
	// follow-up flows this way (the ML scenario).
	net, eng := newNet(3)
	done := 0
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 10_000, Prio: 0,
		Algo: swift(net, 0, 2),
		OnComplete: func(sim.Time) {
			done++
			net.AddFlow(harness.Flow{Src: 1, Dst: 2, Size: 10_000, Prio: 0,
				Algo: swift(net, 1, 2), StartAt: 0, // in the past now
				OnComplete: func(sim.Time) { done++ }})
		}})
	eng.RunUntil(5 * sim.Millisecond)
	if done != 2 {
		t.Fatalf("%d/2 flows completed", done)
	}
}

func TestBDPPackets(t *testing.T) {
	net, _ := newNet(3)
	// 100 Gb/s, ~12.3 us base RTT -> ~153 packets of 1000 B.
	got := net.BDPPackets(0, 2)
	if got < 140 || got > 165 {
		t.Errorf("BDPPackets = %.1f, want ~153", got)
	}
}

func TestThroughputMeterAndSinkCounter(t *testing.T) {
	net, eng := newNet(3)
	m := harness.NewThroughputMeter()
	net.SinkCounter(2, m, func(p *netsim.Packet) int { return p.Src })
	size := int64(50_000)
	for src := 0; src < 2; src++ {
		net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: size, Prio: 0, Algo: swift(net, src, 2)})
	}
	eng.RunUntil(5 * sim.Millisecond)
	snap := m.Snapshot()
	for src := 0; src < 2; src++ {
		if snap[src] != size {
			t.Errorf("counter[%d] = %d, want %d", src, snap[src], size)
		}
	}
	if len(snap) != 2 {
		t.Errorf("Snapshot() = %v, want 2 entries", snap)
	}
}

func TestSampleRatesWindows(t *testing.T) {
	net, eng := newNet(3)
	rs := net.SampleRates(2, func(*netsim.Packet) int { return 0 }, 100*sim.Microsecond, sim.Millisecond)
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 1 << 30, Prio: 0, Algo: swift(net, 0, 2)})
	eng.RunUntil(sim.Millisecond)
	if len(rs.Times) != 10 {
		t.Fatalf("got %d windows, want 10", len(rs.Times))
	}
	// Steady-state windows should be near line rate.
	if got := rs.Between(500*sim.Microsecond, sim.Millisecond, 0); got < 85 {
		t.Errorf("steady rate %.1f Gb/s, want ~100", got)
	}
	// Between() outside the sampled span returns 0.
	if got := rs.Between(2*sim.Millisecond, 3*sim.Millisecond, 0); got != 0 {
		t.Errorf("out-of-span Between = %v, want 0", got)
	}
}

func TestWithNoiseReachesAllStacks(t *testing.T) {
	net, eng := newNet(4, harness.WithNoise(func() sim.Time { return 7 * sim.Microsecond }))
	rec := &delayRecorder{}
	net.AddFlow(harness.Flow{Src: 1, Dst: 3, Size: 20_000, Prio: 0, Algo: rec})
	eng.RunUntil(sim.Millisecond)
	if len(rec.delays) == 0 {
		t.Fatal("no samples")
	}
	base := net.Topo.BaseRTT(1, 3)
	for _, d := range rec.delays {
		if d < base+6*sim.Microsecond {
			t.Fatalf("delay %v missing injected noise", d)
		}
	}
}

func TestVPrioPropagates(t *testing.T) {
	net, eng := newNet(3)
	seen := int16(-1)
	inner := net.Topo.Hosts[2].Sink
	net.Topo.Hosts[2].Sink = func(p *netsim.Packet) {
		if p.Type == netsim.Data {
			seen = p.VPrio
		}
		inner(p)
	}
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 5000, Prio: 0, VPrio: 3, Algo: swift(net, 0, 2)})
	eng.RunUntil(sim.Millisecond)
	if seen != 3 {
		t.Errorf("VPrio on the wire = %d, want 3", seen)
	}
}

// TestFlowRandLazy: a flow's source seeds itself on its first draw, yet
// yields exactly the stream of rand.NewSource over the seed AddFlow derives
// (the harness seed, 5 here, mixed with the flow id), so probe jitter — and
// every figure byte — is unchanged. A flow that never draws pays for no
// generator state: the whole AddFlow stays under 1 KB, where an eagerly
// seeded source alone is 4.9 KB.
func TestFlowRandLazy(t *testing.T) {
	net, _ := newNet(3)
	for id := int64(1); id <= 3; id++ {
		got := net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 1000, Algo: swift(net, 0, 2)}).Rand()
		want := rand.New(rand.NewSource(5 ^ id<<17 ^ 0x5bd1e995))
		for i := 0; i < 1000; i++ {
			n := int64(i) + 1
			if i%3 == 0 {
				n = 1 << 40 // a power of two takes Int63n's masking path
			}
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("flow %d draw %d: Int63n(%d) = %d, eager source gives %d", id, i, n, g, w)
			}
		}
	}

	const flows = 2000
	net, _ = newNet(3)
	algos := make([]cc.Algorithm, flows)
	for i := range algos {
		algos[i] = cc.NewNoCC()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < flows; i++ {
		net.AddFlow(harness.Flow{Src: i % 2, Dst: 2, Size: 64 << 10, Algo: algos[i], StartAt: sim.Time(i) * sim.Microsecond})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / flows; per >= 1024 {
		t.Errorf("AddFlow of a flow that never draws allocates %d B, want < 1 KB", per)
	}
}

type delayRecorder struct {
	drv    cc.Driver
	delays []sim.Time
}

func (d *delayRecorder) Start(drv cc.Driver)    { d.drv = drv }
func (d *delayRecorder) OnAck(fb cc.Feedback)   { d.delays = append(d.delays, fb.Delay) }
func (d *delayRecorder) OnProbeAck(cc.Feedback) {}
func (d *delayRecorder) OnRTO()                 {}
func (d *delayRecorder) CwndBytes() float64     { return 4000 }
func (d *delayRecorder) WantsECT() bool         { return false }
func (d *delayRecorder) Name() string           { return "rec" }
