package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"prioplus/internal/sim"
)

func TestRateSerialize(t *testing.T) {
	cases := []struct {
		rate  Rate
		bytes int
		want  sim.Time
	}{
		{100 * Gbps, 1000, 80 * sim.Nanosecond},
		{100 * Gbps, 1048, 83840 * sim.Picosecond},
		{10 * Gbps, 1000, 800 * sim.Nanosecond},
		{400 * Gbps, 1048, 20960 * sim.Picosecond},
		{100 * Mbps, 64, 5120 * sim.Nanosecond},
	}
	for _, c := range cases {
		if got := c.rate.Serialize(c.bytes); got != c.want {
			t.Errorf("Rate(%d).Serialize(%d) = %v, want %v", c.rate, c.bytes, got, c.want)
		}
	}
}

func TestRateBDP(t *testing.T) {
	// 100 Gb/s, 12 us RTT -> 150 KB.
	if got := (100 * Gbps).BDP(12 * sim.Microsecond); got != 150000 {
		t.Errorf("BDP = %v, want 150000", got)
	}
}

// twoHosts wires two hosts back to back (no switch) for link-level tests.
func twoHosts(eng *sim.Engine, rate Rate, prop sim.Time) (*Host, *Host) {
	a := NewHost(eng, 0, rate, prop, 1)
	b := NewHost(eng, 1, rate, prop, 1)
	Connect(a.NIC, b.NIC)
	return a, b
}

func TestLinkDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	a, b := twoHosts(eng, 100*Gbps, 1*sim.Microsecond)
	var arrived sim.Time
	b.Sink = func(pkt *Packet) { arrived = eng.Now() }
	pkt := NewData(1, 0, 1, 0, 0, 1000)
	a.Send(pkt)
	eng.Run()
	want := (100 * Gbps).Serialize(1048) + 1*sim.Microsecond
	if arrived != want {
		t.Errorf("arrival = %v, want %v", arrived, want)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	eng := sim.NewEngine()
	a, b := twoHosts(eng, 10*Gbps, 0)
	var arrivals []sim.Time
	b.Sink = func(pkt *Packet) { arrivals = append(arrivals, eng.Now()) }
	for i := 0; i < 3; i++ {
		a.Send(NewData(1, 0, 1, 0, int64(i)*1000, 1000))
	}
	eng.Run()
	ser := (10 * Gbps).Serialize(1048)
	for i, at := range arrivals {
		want := ser * sim.Time(i+1)
		if at != want {
			t.Errorf("arrival[%d] = %v, want %v (back-to-back serialization)", i, at, want)
		}
	}
}

// star builds a one-switch star: n hosts attached to one switch.
func star(eng *sim.Engine, n int, rate Rate, prop sim.Time, nq int, cfg BufferConfig) (*Switch, []*Host) {
	sw := NewSwitch(eng, "sw", cfg, rand.New(rand.NewSource(1)))
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		hosts[i] = NewHost(eng, i, rate, prop, nq)
		p := sw.AddPort(rate, prop, nq)
		Connect(hosts[i].NIC, p)
		sw.SetRoute(i, []int32{int32(i)})
	}
	sw.Finalize()
	return sw, hosts
}

func lossyConfig() BufferConfig {
	cfg := DefaultBufferConfig()
	cfg.PFCEnabled = false
	return cfg
}

func TestSwitchForwarding(t *testing.T) {
	eng := sim.NewEngine()
	_, hosts := star(eng, 3, 100*Gbps, 1*sim.Microsecond, 2, lossyConfig())
	got := 0
	hosts[2].Sink = func(pkt *Packet) {
		got++
		if pkt.Src != 0 || pkt.Dst != 2 {
			t.Errorf("packet src/dst = %d/%d, want 0/2", pkt.Src, pkt.Dst)
		}
	}
	hosts[0].Send(NewData(7, 0, 2, 0, 0, 1000))
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d packets, want 1", got)
	}
}

func TestStrictPriorityScheduling(t *testing.T) {
	eng := sim.NewEngine()
	sw, hosts := star(eng, 3, 10*Gbps, 0, 4, lossyConfig())
	_ = sw
	var order []int64
	hosts[2].Sink = func(pkt *Packet) { order = append(order, pkt.FlowID) }
	// Two senders converge on host 2. Host 0 floods priority 0; host 1
	// sends one priority-3 packet slightly later. The high-priority packet
	// must overtake all low-priority packets still queued at the switch.
	for i := 0; i < 10; i++ {
		hosts[0].Send(NewData(100, 0, 2, 0, int64(i)*1000, 1000))
	}
	eng.At(200*sim.Nanosecond, func() {
		hosts[1].Send(NewData(200, 1, 2, 3, 0, 1000))
	})
	eng.Run()
	if len(order) != 11 {
		t.Fatalf("delivered %d packets, want 11", len(order))
	}
	pos := -1
	for i, f := range order {
		if f == 200 {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Errorf("high-priority packet delivered at position %d, want near front", pos)
	}
}

func TestECNStepMarking(t *testing.T) {
	eng := sim.NewEngine()
	cfg := lossyConfig()
	cfg.ECNKMin = 3000
	cfg.ECNKMax = 3000
	sw, hosts := star(eng, 3, 10*Gbps, 0, 1, cfg)
	var marked, unmarked int
	hosts[2].Sink = func(pkt *Packet) {
		if pkt.CE {
			marked++
		} else {
			unmarked++
		}
	}
	// Two senders at line rate into one port: queue builds beyond K.
	for i := 0; i < 20; i++ {
		d0 := NewData(1, 0, 2, 0, int64(i)*1000, 1000)
		d0.ECT = true
		hosts[0].Send(d0)
		d1 := NewData(2, 1, 2, 0, int64(i)*1000, 1000)
		d1.ECT = true
		hosts[1].Send(d1)
	}
	eng.Run()
	if marked == 0 {
		t.Error("no packets ECN-marked despite standing queue above K")
	}
	if unmarked == 0 {
		t.Error("all packets marked; early packets below K should be clean")
	}
	if sw.ECNMarks != int64(marked) {
		t.Errorf("switch counted %d marks, receivers saw %d", sw.ECNMarks, marked)
	}
}

func TestECNNotMarkedWithoutECT(t *testing.T) {
	eng := sim.NewEngine()
	cfg := lossyConfig()
	cfg.ECNKMin = 1000
	cfg.ECNKMax = 1000
	_, hosts := star(eng, 3, 10*Gbps, 0, 1, cfg)
	hosts[2].Sink = func(pkt *Packet) {
		if pkt.CE {
			t.Error("non-ECT packet was CE-marked")
		}
	}
	for i := 0; i < 10; i++ {
		hosts[0].Send(NewData(1, 0, 2, 0, int64(i)*1000, 1000))
		hosts[1].Send(NewData(2, 1, 2, 0, int64(i)*1000, 1000))
	}
	eng.Run()
}

func TestDynamicThresholdDrop(t *testing.T) {
	eng := sim.NewEngine()
	cfg := lossyConfig()
	cfg.TotalBytes = 20 * 1048
	cfg.DTAlpha = 0.5
	sw, hosts := star(eng, 3, 10*Gbps, 0, 1, cfg)
	received := 0
	hosts[2].Sink = func(pkt *Packet) { received++ }
	// Flood far beyond the buffer: drops must occur and accounting must
	// recover so late packets still flow.
	for i := 0; i < 100; i++ {
		hosts[0].Send(NewData(1, 0, 2, 0, int64(i)*1000, 1000))
		hosts[1].Send(NewData(2, 1, 2, 0, int64(i)*1000, 1000))
	}
	eng.Run()
	if sw.Drops() == 0 {
		t.Error("no drops despite 2x overload on a tiny buffer")
	}
	if received+int(sw.Drops()) != 200 {
		t.Errorf("received %d + dropped %d != 200 sent", received, sw.Drops())
	}
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer not drained: %d bytes still accounted", sw.BufferUsed())
	}
}

func TestPFCPauseAndResume(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultBufferConfig()
	cfg.TotalBytes = 64 * 1048
	cfg.LosslessPrios = 2
	cfg.HeadroomBytes = 8 * 1048
	cfg.PFCAlpha = 0.125
	sw, hosts := star(eng, 3, 10*Gbps, 100*sim.Nanosecond, 2, cfg)
	received := 0
	hosts[2].Sink = func(pkt *Packet) { received++ }
	for i := 0; i < 60; i++ {
		hosts[0].Send(NewData(1, 0, 2, 0, int64(i)*1000, 1000))
		hosts[1].Send(NewData(2, 1, 2, 0, int64(i)*1000, 1000))
	}
	eng.Run()
	if sw.PausesSent() == 0 {
		t.Error("no PFC pauses under 2x incast on a small lossless buffer")
	}
	if sw.Drops() != 0 {
		t.Errorf("%d drops in lossless mode; headroom must absorb in-flight data", sw.Drops())
	}
	if received != 120 {
		t.Errorf("received %d packets, want all 120 (lossless)", received)
	}
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer not drained: %d bytes", sw.BufferUsed())
	}
	// Senders must have been paused at some point.
	if hosts[0].NIC.PausedFor == 0 && hosts[1].NIC.PausedFor == 0 {
		t.Error("no sender NIC was ever paused")
	}
}

func TestPFCDoesNotPauseOtherPriority(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultBufferConfig()
	cfg.TotalBytes = 64 * 1048
	cfg.LosslessPrios = 1 // only priority 0 is lossless
	cfg.HeadroomBytes = 8 * 1048
	cfg.PFCAlpha = 0.125
	_, hosts := star(eng, 3, 10*Gbps, 100*sim.Nanosecond, 2, cfg)
	var arrivalsHigh []sim.Time
	hosts[2].Sink = func(pkt *Packet) {
		if pkt.Prio == 1 {
			arrivalsHigh = append(arrivalsHigh, eng.Now())
		}
	}
	for i := 0; i < 60; i++ {
		hosts[0].Send(NewData(1, 0, 2, 0, int64(i)*1000, 1000)) // lossless prio 0 floods
		hosts[1].Send(NewData(2, 1, 2, 1, int64(i)*1000, 1000)) // lossy prio 1
	}
	eng.Run()
	if len(arrivalsHigh) == 0 {
		t.Fatal("priority-1 traffic starved")
	}
	// Priority 1 is strict-higher: it should finish around its own
	// serialization time, unaffected by priority-0 pauses.
	ser := (10 * Gbps).Serialize(1048)
	lastHigh := arrivalsHigh[len(arrivalsHigh)-1]
	budget := ser*62 + 2*sim.Microsecond
	if lastHigh > budget {
		t.Errorf("high priority finished at %v, want <= %v", lastHigh, budget)
	}
}

func TestECMPStablePerFlow(t *testing.T) {
	// Two equal-cost paths: dst routed via two ports. All packets of one
	// flow must take the same port; different flows should spread.
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "sw", lossyConfig(), rand.New(rand.NewSource(1)))
	counts := make([]int, 2)
	sinks := make([]*Host, 2)
	for i := 0; i < 2; i++ {
		i := i
		h := NewHost(eng, 5, 100*Gbps, 0, 1) // both "paths" end at host 5
		h.Sink = func(pkt *Packet) { counts[i]++ }
		p := sw.AddPort(100*Gbps, 0, 1)
		Connect(h.NIC, p)
		sinks[i] = h
	}
	src := NewHost(eng, 9, 100*Gbps, 0, 1)
	p := sw.AddPort(100*Gbps, 0, 1)
	Connect(src.NIC, p)
	sw.SetRoute(5, []int32{0, 1})
	sw.Finalize()
	for i := 0; i < 10; i++ {
		src.Send(NewData(42, 9, 5, 0, int64(i)*1000, 1000))
	}
	for f := int64(0); f < 64; f++ {
		src.Send(NewData(f+100, 9, 5, 0, 0, 1000))
	}
	eng.Run()
	if counts[0]+counts[1] != 74 {
		t.Fatalf("delivered %d, want 74", counts[0]+counts[1])
	}
	// Flow 42's 10 packets all on one path: one counter >= 10+something,
	// check spread exists for the 64 distinct flows.
	if counts[0] < 10 && counts[1] < 10 {
		t.Error("flow 42 split across paths: ECMP not flow-stable")
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Error("64 distinct flows all hashed to one path")
	}
}

func TestPortJitterAddsDelay(t *testing.T) {
	eng := sim.NewEngine()
	a, b := twoHosts(eng, 100*Gbps, 1*sim.Microsecond)
	a.NIC.SetJitter(func() sim.Time { return 5 * sim.Microsecond })
	var arrived sim.Time
	b.Sink = func(pkt *Packet) { arrived = eng.Now() }
	a.Send(NewData(1, 0, 1, 0, 0, 1000))
	eng.Run()
	want := (100 * Gbps).Serialize(1048) + 6*sim.Microsecond
	if arrived != want {
		t.Errorf("arrival = %v, want %v with jitter", arrived, want)
	}
}

func TestFlowHashDeterministic(t *testing.T) {
	f := func(flow int64) bool { return flowHash(flow) == flowHash(flow) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shared-buffer accounting stays consistent under random
// admit/release sequences: used never negative, never above capacity, and
// returns to zero when all packets released.
func TestSharedBufferAccountingProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		cfg := DefaultBufferConfig()
		cfg.TotalBytes = 100 * 1048
		cfg.LosslessPrios = 2
		cfg.HeadroomBytes = 10 * 1048
		b := newSharedBuffer(cfg, 4, 4)
		rng := rand.New(rand.NewSource(seed))
		type held struct{ port, prio, size int }
		var inFlight []held
		for _, op := range ops {
			if op%2 == 0 || len(inFlight) == 0 {
				port, prio, size := rng.Intn(4), rng.Intn(2), 64+rng.Intn(1024)
				adm, _ := b.admitLossless(port, prio, size)
				if adm {
					inFlight = append(inFlight, held{port, prio, size})
				}
			} else {
				i := rng.Intn(len(inFlight))
				h := inFlight[i]
				inFlight[i] = inFlight[len(inFlight)-1]
				inFlight = inFlight[:len(inFlight)-1]
				b.release(h.port, h.prio, h.size, true)
			}
			if b.used < 0 || b.used > b.shared {
				return false
			}
		}
		for _, h := range inFlight {
			b.release(h.port, h.prio, h.size, true)
		}
		return b.used == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPausedForAccounting drives pause/resume sequences through an 8-queue
// port and a naive per-queue model: Paused, PausedQueues and PausedFor must
// agree after every step, including redundant sets and clamped priorities.
func TestPausedForAccounting(t *testing.T) {
	type step struct {
		at   sim.Time // microseconds
		prio int
		on   bool
	}
	for name, steps := range map[string][]step{
		"one queue":        {{1, 0, true}, {3, 0, false}},
		"overlap":          {{1, 2, true}, {2, 5, true}, {4, 2, false}, {7, 5, false}},
		"redundant":        {{1, 3, true}, {2, 3, true}, {3, 4, false}, {5, 3, false}, {6, 3, false}},
		"clamped":          {{1, 99, true}, {2, -4, true}, {3, 7, false}, {5, 0, false}},
		"two episodes":     {{1, 1, true}, {2, 1, false}, {10, 6, true}, {11, 0, true}, {12, 6, false}, {15, 0, false}},
		"all eight":        {{1, 0, true}, {1, 1, true}, {1, 2, true}, {1, 3, true}, {1, 4, true}, {1, 5, true}, {1, 6, true}, {1, 7, true}, {9, 7, false}},
		"still paused end": {{2, 4, true}, {3, 4, false}, {5, 4, true}},
	} {
		eng := sim.NewEngine()
		p := newPort(eng, 10*Gbps, 0, 8)
		var model [8]bool
		count := func() (n int) {
			for _, on := range model {
				if on {
					n++
				}
			}
			return n
		}
		// PausedFor counts closed episodes: from the first queue pausing to
		// the last one resuming.
		var pausedFor, since sim.Time
		for i, st := range steps {
			eng.At(st.at*sim.Microsecond, func() {
				q := st.prio
				if q > 7 {
					q = 7
				} else if q < 0 {
					q = 0
				}
				before := count()
				model[q] = st.on
				if before == 0 && count() > 0 {
					since = eng.Now()
				} else if before > 0 && count() == 0 {
					pausedFor += eng.Now() - since
				}
				p.SetPaused(st.prio, st.on)
				for q, on := range model {
					if p.Paused(q) != on {
						t.Errorf("%s step %d: Paused(%d) = %v, want %v", name, i, q, !on, on)
					}
				}
				if p.PausedQueues() != count() {
					t.Errorf("%s step %d: PausedQueues = %d, want %d", name, i, p.PausedQueues(), count())
				}
			})
		}
		eng.Run()
		if p.PausedFor != pausedFor {
			t.Errorf("%s: PausedFor = %v, want %v", name, p.PausedFor, pausedFor)
		}
	}
}

// TestPortQueueLimit: a port takes up to MaxQueues queues and still serves
// the top one first; one more is refused with the count in the message.
func TestPortQueueLimit(t *testing.T) {
	eng := sim.NewEngine()
	a := NewHost(eng, 0, 10*Gbps, 0, MaxQueues)
	b := NewHost(eng, 1, 10*Gbps, 0, MaxQueues)
	Connect(a.NIC, b.NIC)
	var order []int64
	b.Sink = func(pkt *Packet) { order = append(order, pkt.FlowID) }
	// Flow 1 takes the idle wire; the rest queue behind it.
	for flow, prio := range []int{0, 0, 5, 63} {
		a.Send(NewData(int64(flow+1), 0, 1, prio, 0, 1000))
	}
	eng.Run()
	if want := []int64{1, 4, 3, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("delivery order = %v, want %v (queue 63 first)", order, want)
	}

	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "65 queues") {
			t.Errorf("newPort with 65 queues: recovered %q, want a panic naming the count", msg)
		}
	}()
	newPort(eng, 10*Gbps, 0, MaxQueues+1)
}
