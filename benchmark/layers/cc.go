//go:build layerbench

package main

import (
	"math/rand"

	"prioplus/internal/cc"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
)

func init() { register("cc", 3, runCC) }

// ccDriver is the flow a controller believes it drives: static path facts
// and a send pointer that advances as ACKs are fed in.
type ccDriver struct {
	now    sim.Time
	sndNxt int64
	rng    *rand.Rand
}

const (
	ccBaseRTT = 12 * sim.Microsecond
	ccRate    = 100 * netsim.Gbps
)

func (d *ccDriver) Now() sim.Time           { return d.now }
func (d *ccDriver) BaseRTT() sim.Time       { return ccBaseRTT }
func (d *ccDriver) LineRate() netsim.Rate   { return ccRate }
func (d *ccDriver) MTU() int                { return netsim.DefaultMTU }
func (d *ccDriver) SndNxt() int64           { return d.sndNxt }
func (d *ccDriver) RemainingBytes() int64   { return 1 << 40 }
func (d *ccDriver) StopSending()            {}
func (d *ccDriver) ResumeSending()          {}
func (d *ccDriver) SendProbeAfter(sim.Time) {}
func (d *ccDriver) ResetRTO()               {}
func (d *ccDriver) Rand() *rand.Rand        { return d.rng }

// onAckNS feeds algo a seeded stream of n ACKs — delays wandering around
// base + 8 us, one ECN mark in eight, intRecords INT records each — through
// direct OnAck calls and returns ns per call.
func onAckNS(algo cc.Algorithm, n, intRecords int) float64 {
	drv := &ccDriver{rng: rand.New(rand.NewSource(3))}
	algo.Start(drv)
	rng := rand.New(rand.NewSource(11))
	const ring = 4096
	fbs := make([]cc.Feedback, ring)
	for i := range fbs {
		fbs[i] = cc.Feedback{
			Delay:      ccBaseRTT + sim.Time(rng.Int63n(int64(16*sim.Microsecond))),
			CE:         rng.Intn(8) == 0,
			AckedBytes: netsim.DefaultMTU,
		}
		for h := 0; h < intRecords; h++ {
			fbs[i].INT = append(fbs[i].INT, netsim.INTRecord{QLen: rng.Intn(64 << 10), Rate: ccRate})
		}
	}
	feed := func() {
		for i := 0; i < n; i++ {
			fb := &fbs[i%ring]
			drv.now += 80 * sim.Nanosecond
			drv.sndNxt += netsim.DefaultMTU
			fb.Now, fb.Seq, fb.CumAck = drv.now, drv.sndNxt-8*netsim.DefaultMTU, drv.sndNxt
			for h := range fb.INT {
				fb.INT[h].TS = drv.now
				fb.INT[h].TxBytes += int64(netsim.DefaultMTU) * int64(1+h%2)
			}
			algo.OnAck(*fb)
		}
	}
	feed()
	return timeOps(3, n, feed)
}

func runCC(r *report) {
	const n = 2_000_000
	bdp := ccRate.BDP(ccBaseRTT) / netsim.DefaultMTU
	r.put("cc.swift_onack_ns", onAckNS(cc.NewSwift(cc.DefaultSwiftConfig(ccBaseRTT, bdp)), n, 0), "ns")
	r.put("cc.dctcp_onack_ns", onAckNS(cc.NewDCTCP(cc.DefaultDCTCPConfig(bdp)), n, 0), "ns")
	r.put("cc.dcqcn_onack_ns", onAckNS(cc.NewDCQCN(cc.DefaultDCQCNConfig(ccRate)), n, 0), "ns")
	r.put("cc.hpcc_onack_ns", onAckNS(cc.NewHPCC(cc.DefaultHPCCConfig(bdp)), n/4, 5), "ns")

	// What Swift adds to a packet's round trip on the transport rig.
	if ladder.pathDeltaNS != nil {
		r.put("cc.swift_rung_ns", ladder.pathDeltaNS(nil, func(baseRTT int64, bdpPkts float64) any {
			return cc.NewSwift(cc.DefaultSwiftConfig(sim.Time(baseRTT), bdpPkts))
		}), "ns")
	}
}
