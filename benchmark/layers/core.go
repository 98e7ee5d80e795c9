//go:build layerbench

package main

import (
	"math/rand"

	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
)

func init() { register("core", 4, runCore) }

// coreDriver is the cc.Driver PrioPlus runs against: it records the stop /
// probe requests so the rig can answer them the way the transport would.
type coreDriver struct {
	now      sim.Time
	sndNxt   int64
	rng      *rand.Rand
	stopped  bool
	probeDue bool
}

const coreBaseRTT = 12 * sim.Microsecond

func (d *coreDriver) Now() sim.Time           { return d.now }
func (d *coreDriver) BaseRTT() sim.Time       { return coreBaseRTT }
func (d *coreDriver) LineRate() netsim.Rate   { return 100 * netsim.Gbps }
func (d *coreDriver) MTU() int                { return netsim.DefaultMTU }
func (d *coreDriver) SndNxt() int64           { return d.sndNxt }
func (d *coreDriver) RemainingBytes() int64   { return 1 << 40 }
func (d *coreDriver) StopSending()            { d.stopped = true }
func (d *coreDriver) ResumeSending()          { d.stopped = false }
func (d *coreDriver) SendProbeAfter(sim.Time) { d.probeDue = true }
func (d *coreDriver) ResetRTO()               {}
func (d *coreDriver) Rand() *rand.Rand        { return d.rng }

func newPrioPlus(baseRTT sim.Time, bdpPkts float64) *core.PrioPlus {
	ch := core.DefaultPlan(baseRTT).Channel(3)
	return core.New(cc.NewSwift(cc.DefaultSwiftConfig(baseRTT, bdpPkts)), core.DefaultConfig(ch, 8))
}

// feedNS drives pp with n ACKs whose delay delay(i) picks, answering every
// probe it schedules with a probe ACK at the channel target (path clear
// again), and returns ns per ACK.
func feedNS(pp *core.PrioPlus, ch core.Channel, n int, delay func(i int) sim.Time) float64 {
	drv := &coreDriver{rng: rand.New(rand.NewSource(5))}
	pp.Start(drv)
	feed := func() {
		for i := 0; i < n; i++ {
			drv.now += 80 * sim.Nanosecond
			if drv.probeDue {
				drv.probeDue = false
				pp.OnProbeAck(cc.Feedback{Now: drv.now, Delay: ch.Target})
			}
			drv.sndNxt += netsim.DefaultMTU
			pp.OnAck(cc.Feedback{
				Now: drv.now, Delay: delay(i), AckedBytes: netsim.DefaultMTU,
				Seq: drv.sndNxt - 8*netsim.DefaultMTU, CumAck: drv.sndNxt,
			})
		}
	}
	feed()
	return timeOps(3, n, feed)
}

func runCore(r *report) {
	const n = 2_000_000
	bdp := (100 * netsim.Gbps).BDP(coreBaseRTT) / netsim.DefaultMTU
	ch := core.DefaultPlan(coreBaseRTT).Channel(3)
	rng := rand.New(rand.NewSource(13))
	jitter := make([]sim.Time, 4096)
	for i := range jitter {
		jitter[i] = sim.Time(rng.Int63n(int64(2 * sim.Microsecond)))
	}

	// In channel: delays between the target's neighbourhood and the limit.
	inChannel := func(i int) sim.Time { return ch.Target - sim.Microsecond + jitter[i%len(jitter)] }
	r.put("core.onack_ns", feedNS(newPrioPlus(coreBaseRTT, bdp), ch, n, inChannel), "ns")

	// Above the limit for 4 ACKs in every 64: yield, probe, resume.
	pp := newPrioPlus(coreBaseRTT, bdp)
	yielding := func(i int) sim.Time {
		if i%64 < 4 {
			return ch.Limit + sim.Microsecond
		}
		return inChannel(i)
	}
	r.put("core.onack_yield_ns", feedNS(pp, ch, n, yielding), "ns")
	r.put("core.yields", float64(pp.Yields), "count")

	// What PrioPlus adds on top of the Swift it wraps, on the transport rig.
	if ladder.pathDeltaNS != nil {
		r.put("core.rung_ns", ladder.pathDeltaNS(
			func(baseRTT int64, bdpPkts float64) any {
				return cc.NewSwift(cc.DefaultSwiftConfig(sim.Time(baseRTT), bdpPkts))
			},
			func(baseRTT int64, bdpPkts float64) any { return newPrioPlus(sim.Time(baseRTT), bdpPkts) },
		), "ns")
	}
}
