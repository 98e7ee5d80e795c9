package netsim

import (
	"reflect"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// arrival is one packet delivery as a sink saw it.
type arrival struct {
	at   sim.Time
	host int
	flow int64
	seq  int64
	typ  PacketType
}

// hookLink is a two-host link, two queues per NIC, with an echoing
// receiver: b answers every data packet with a pooled ACK, and both sinks
// log what arrives.
type hookLink struct {
	eng  *sim.Engine
	pool *PacketPool
	a, b *Host
	log  []arrival
	seq  int64
}

func newHookLink() *hookLink {
	l := &hookLink{eng: sim.NewEngine(), pool: NewPacketPool()}
	l.a = NewHost(l.eng, 0, 100*Gbps, sim.Microsecond, 2)
	l.b = NewHost(l.eng, 1, 100*Gbps, sim.Microsecond, 2)
	l.a.NIC.Pool, l.b.NIC.Pool = l.pool, l.pool
	Connect(l.a.NIC, l.b.NIC)
	l.b.Sink = func(pkt *Packet) {
		l.record(1, pkt)
		if pkt.Type == Data {
			ack := l.pool.Ack(pkt, 0, pkt.Seq+int64(pkt.Payload))
			l.pool.Put(pkt)
			l.b.Send(ack)
		}
	}
	l.a.Sink = func(pkt *Packet) {
		l.record(0, pkt)
		l.pool.Put(pkt)
	}
	return l
}

func (l *hookLink) record(host int, pkt *Packet) {
	if l.log != nil {
		l.log = append(l.log, arrival{l.eng.Now(), host, pkt.FlowID, pkt.Seq, pkt.Type})
	}
}

// send posts one data packet from a and runs the engine dry: the idle-wire
// path, one hop each way.
func (l *hookLink) send() {
	l.a.Send(l.pool.Data(1, 0, 1, 0, l.seq, 1000))
	l.seq += 1000
	l.eng.Run()
}

// burst queues packets of both priorities and sizes behind each other at
// three instants, so the queued path, strict-priority pick and mid-
// serialization wake all run.
func (l *hookLink) burst() {
	for round := 0; round < 3; round++ {
		at := sim.Time(round) * 700 * sim.Nanosecond
		l.eng.At(at, func() {
			for i := 0; i < 6; i++ {
				payload := 1000
				if i%3 == 2 {
					payload = 64
				}
				l.a.Send(l.pool.Data(int64(1+i%2), 0, 1, i%2, l.seq, payload))
				l.seq += int64(payload)
			}
		})
	}
	l.eng.Run()
}

// TestEachHookAloneKeepsDelivery installs every optional port hook on its
// own — tracer, digest, fault state with zero loss, zero-delay jitter — on
// both ends of a two-host link. Each must leave delivery times and order
// exactly as on the bare link, show that it was armed, and keep the
// one-hop round trip allocation-free.
func TestEachHookAloneKeepsDelivery(t *testing.T) {
	type hook struct {
		name    string
		install func(l *hookLink) (armed func() bool)
	}
	hooks := []hook{
		{"bare", func(l *hookLink) func() bool { return func() bool { return l.a.NIC.cold == nil } }},
		{"tracer", func(l *hookLink) func() bool {
			rec := obs.NewRecorder()
			rec.Flight = obs.NewFlightRecorder(256)
			l.a.NIC.SetTrace(rec.Emitter(), rec.Devs.ID("host0"))
			l.b.NIC.SetTrace(rec.Emitter(), rec.Devs.ID("host1"))
			return func() bool { return len(rec.Flight.Events()) > 0 }
		}},
		{"digest", func(l *hookLink) func() bool {
			d := sim.NewDigest()
			l.eng.SetDigest(d)
			l.a.NIC.SetDigest(d, 1)
			l.b.NIC.SetDigest(d, 2)
			return func() bool { return d.Count > 0 && d.Chain != sim.NewDigest().Chain }
		}},
		{"fault", func(l *hookLink) func() bool {
			fa, fb := l.a.NIC.Fault(), l.b.NIC.Fault()
			return func() bool {
				return fa != nil && fb != nil && l.a.NIC.FaultDrops == 0 && l.b.NIC.FaultDrops == 0
			}
		}},
		{"jitter", func(l *hookLink) func() bool {
			calls := 0
			l.a.NIC.SetJitter(func() sim.Time { calls++; return 0 })
			l.b.NIC.SetJitter(func() sim.Time { calls++; return 0 })
			return func() bool { return calls > 0 }
		}},
	}
	var want []arrival
	for _, h := range hooks {
		t.Run(h.name, func(t *testing.T) {
			l := newHookLink()
			armed := h.install(l)
			l.log = []arrival{}
			l.burst()
			for i := 0; i < 4; i++ {
				l.send()
			}
			if want == nil {
				want = l.log
				if len(want) != 2*(18+4) {
					t.Fatalf("bare link delivered %d packets, want %d", len(want), 2*(18+4))
				}
			} else if !reflect.DeepEqual(l.log, want) {
				t.Errorf("deliveries differ from the bare link:\n got %v\nwant %v", l.log, want)
			}
			if !armed() {
				t.Errorf("hook %s left no trace of being armed", h.name)
			}
			l.log = nil
			for i := 0; i < 64; i++ {
				l.send()
			}
			if avg := testing.AllocsPerRun(100, l.send); avg != 0 {
				t.Errorf("one-hop round trip with %s: %v allocs/op, want 0", h.name, avg)
			}
		})
	}
}
