package exp

import (
	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/noise"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// longTail names a run's delay-measurement noise: the long-tail model at
// scale, its RNG seeded off above the run's seed. The zero value installs
// no noise model.
type longTail struct {
	off   int64
	scale float64
}

// paperNoise is the model calibrated to the paper's Fig 7, which every
// scenario runs under unless it says otherwise.
var paperNoise = longTail{off: 7, scale: 1}

// newNet is the one place a run is assembled, always in the same order:
// engine → topo.Config (link delay, seed, then whatever build sets) →
// topology → the caller's options (a fault plan among them) → measurement
// noise, wrapped by o.Perturb → recorder. Every driver gets its net here
// and ends with net.Run(horizon), which is where the recorder protocol
// lives (harness.Net.Run).
//
// The recorder is o.NewRecorder(tag). An untagged run (tag == "") is never
// instrumented: drivers that spend several private engines on one result
// (fig10c's two variants, the fig10d/fig13 sweep cells, table2, the
// ablations) have no single run a recorder could describe.
func newNet(o Options, tag string, seed int64, linkDelay sim.Time, nz longTail,
	build func(*sim.Engine, topo.Config) *topo.Network, opts ...harness.Option) *harness.Net {
	cfg := topo.DefaultConfig()
	cfg.LinkDelay = linkDelay
	cfg.Seed = seed
	eng := sim.NewEngine()
	if o.cell != nil {
		o.cell.engs = append(o.cell.engs, eng)
	}
	nw := build(eng, cfg)
	if nz.scale > 0 {
		m := noise.NewLongTail(eng.Rand(seed+nz.off), nz.scale)
		opts = append(opts, harness.WithNoise(o.noiseFn(m.Sample)))
	}
	if tag != "" && o.NewRecorder != nil {
		opts = append(opts, harness.WithRecorder(o.NewRecorder(tag)))
	}
	return harness.New(nw, seed, opts...)
}

// star is the §6.1 micro-benchmark form: nHosts on one switch over
// 100 Gb/s, 3 us links (base RTT ~12 us). def is the driver's published
// seed, which o.Seed overrides; mod, when non-nil, adjusts the fabric.
func star(o Options, tag string, nHosts int, def int64, nz longTail, mod func(*topo.Config)) *harness.Net {
	return newNet(o, tag, o.seedOr(def), 3*sim.Microsecond, nz,
		func(eng *sim.Engine, cfg topo.Config) *topo.Network {
			if mod != nil {
				mod(&cfg)
			}
			return topo.Star(eng, nHosts, cfg)
		})
}

// schemeNet is the §6.2 form: a multi-switch fabric of 1 us links
// configured for one Scheme, whose flows are added by virtual priority.
type schemeNet struct {
	*harness.Net
	scheme Scheme
	nprios int
}

// schemeFabric builds a schemeNet seeded o.Seed. The scheme's switch-side
// requirements (queue count, lossless classes, ECN, INT) are applied to the
// config first; build then sizes what a scheme leaves alone — rates, buffer
// bytes, PFC on or off — and picks the topology.
func schemeFabric(o Options, tag string, s Scheme, nprios int, nz longTail,
	build func(*sim.Engine, topo.Config) *topo.Network, opts ...harness.Option) *schemeNet {
	if s.stampINT {
		opts = append(opts, harness.WithINT())
	}
	net := newNet(o, tag, o.Seed, sim.Microsecond, nz,
		func(eng *sim.Engine, cfg topo.Config) *topo.Network {
			s.fabric(&cfg, nprios)
			return build(eng, cfg)
		}, opts...)
	return &schemeNet{Net: net, scheme: s, nprios: nprios}
}

// fatTree builds the k-ary fat-tree of the flow-scheduling scenarios with
// the buffer of the paper's Fig 11 setting: 4.4 MB/Tbps of switch capacity
// (Tomahawk4 ratio; a k-port 100G switch has k*100G). PFC headroom is sized
// from the link parameters (2 link BDPs plus a few MTUs of response time),
// so its total reservation scales with the number of lossless priorities —
// the cliff beyond ~6 priorities that motivates the paper.
func fatTree(k int) func(*sim.Engine, topo.Config) *topo.Network {
	return func(eng *sim.Engine, tc topo.Config) *topo.Network {
		tc.Buffer.TotalBytes = int(4.4e6 * float64(k) * 100 / 1000)
		linkBDP := tc.HostRate.BDP(2 * tc.LinkDelay)
		tc.Buffer.HeadroomBytes = int(2*linkBDP) + 8*(netsim.DefaultMTU+netsim.HeaderBytes)
		return topo.FatTree(eng, k, tc)
	}
}

// addFlow puts one flow of virtual priority prio on the wire at time at:
// the scheme builds its controller from the path and picks its physical
// queue. done receives the flow's FCT and its ideal FCT. The controller is
// returned for drivers that read its counters after the run.
func (n *schemeNet) addFlow(src, dst int, size int64, prio int, at sim.Time, done func(fct, ideal sim.Time)) cc.Algorithm {
	tc := &n.Topo.Cfg
	base := n.Topo.BaseRTT(src, dst)
	env := flowEnv{
		prio: prio, nPrios: n.nprios, baseRTT: base,
		bdpPkts: tc.HostRate.BDP(base) / netsim.DefaultMTU,
		size:    size, ideal: idealFCT(size, tc.HostRate, base), now: at,
	}
	algo, ideal := n.scheme.newAlgo(env), env.ideal
	n.AddFlow(harness.Flow{
		Src: src, Dst: dst, Size: size, Prio: n.scheme.queueFor(prio, n.nprios),
		Algo: algo, StartAt: at,
		OnComplete: func(fct sim.Time) { done(fct, ideal) },
	})
	return algo
}

// swiftTo is the paper's default Swift for the path src → dst.
func swiftTo(net *harness.Net, src, dst int) *cc.Swift {
	return cc.NewSwift(cc.DefaultSwiftConfig(net.Topo.BaseRTT(src, dst), net.BDPPackets(src, dst)))
}

// ppSwiftTo is PrioPlus over swiftTo on channel ch of an 8-priority plan.
func ppSwiftTo(net *harness.Net, src, dst int, ch core.Channel) *core.PrioPlus {
	return core.New(swiftTo(net, src, dst), core.DefaultConfig(ch, 8))
}

// sampleQueueDelay posts n reads of a star's bottleneck — the switch's
// egress port to host recv — every step from time from, handing fn the time
// the bytes standing there take to drain at line rate. The reads are
// ordinary engine events posted by this call, so where a driver calls it
// fixes their place in the run's (time, seq) order.
func sampleQueueDelay(net *harness.Net, recv int, from, step sim.Time, n int, fn func(wait sim.Time)) {
	port := net.Topo.Switches[0].Ports[recv]
	bps := net.Topo.Cfg.HostRate.BytesPerSec()
	for i := 0; i < n; i++ {
		net.Eng.At(from+sim.Time(i)*step, func() {
			fn(sim.Time(float64(port.TotalQueuedBytes()) / bps * 1e12))
		})
	}
}
