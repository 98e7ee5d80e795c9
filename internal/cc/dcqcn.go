package cc

import (
	"math"

	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// DCQCNConfig parameterizes DCQCN [Zhu et al., SIGCOMM'15], the ECN-based
// congestion controller deployed for RoCEv2. It is not part of the paper's
// comparison set but is the de-facto RDMA baseline a user of this library
// will want; the paper cites it among the fair-convergence CCs that cannot
// provide prioritization (§7).
type DCQCNConfig struct {
	// G is the EWMA gain for the marking estimate alpha (1/256 in the
	// paper's recommended setting).
	G float64
	// RateAIMbps is the additive-increase step of the standard phase.
	RateAI netsim.Rate
	// RateHAI is the hyper-increase step after several unmarked periods.
	RateHAI netsim.Rate
	// AlphaTimer is the alpha update period (55 us in the paper).
	AlphaTimer sim.Time
	// IncreaseTimer drives rate increases (55 us default here).
	IncreaseTimer sim.Time
	// MinRate floors the sending rate.
	MinRate netsim.Rate
	// LineRate caps the sending rate.
	LineRate netsim.Rate
	// HyperThreshold is the number of consecutive increase periods
	// without marks before hyper increase engages (F = 5).
	HyperThreshold int
}

// DefaultDCQCNConfig returns the paper-recommended parameters for the
// given line rate.
func DefaultDCQCNConfig(lineRate netsim.Rate) DCQCNConfig {
	return DCQCNConfig{
		G:              1.0 / 256,
		RateAI:         lineRate / 20, // reach line rate in ~20 periods
		RateHAI:        lineRate / 4,
		AlphaTimer:     55 * sim.Microsecond,
		IncreaseTimer:  55 * sim.Microsecond,
		MinRate:        lineRate / 1000,
		LineRate:       lineRate,
		HyperThreshold: 5,
	}
}

// DCQCN implements the DCQCN rate controller on top of the window
// transport: the rate is expressed as a window (rate * RTT) and the flow
// should run paced. Timers are emulated from ACK arrival times, which is
// accurate under per-packet ACKs.
type DCQCN struct {
	cfg  DCQCNConfig
	drv  Driver
	dlog DecisionLogger

	targetRate  float64 // Rt, bytes/s
	currentRate float64 // Rc, bytes/s
	alpha       float64

	lastAlphaUpdate sim.Time
	lastIncrease    sim.Time
	lastCut         sim.Time
	sinceMark       int // increase periods without a mark
	markedInPeriod  bool
	srtt            sim.Time
}

// NewDCQCN returns a DCQCN instance.
func NewDCQCN(cfg DCQCNConfig) *DCQCN { return &DCQCN{cfg: cfg, alpha: 1} }

// Name implements Algorithm.
func (d *DCQCN) Name() string { return "dcqcn" }

// WantsECT implements Algorithm.
func (d *DCQCN) WantsECT() bool { return true }

// Start implements Algorithm: DCQCN starts at line rate.
func (d *DCQCN) Start(drv Driver) {
	d.drv = drv
	d.dlog = DecisionLoggerOf(drv)
	d.currentRate = d.cfg.LineRate.BytesPerSec()
	d.targetRate = d.currentRate
	d.srtt = drv.BaseRTT()
}

// OnAck implements Algorithm. A CE-marked ACK stands in for a CNP.
func (d *DCQCN) OnAck(fb Feedback) {
	if fb.Delay > 0 {
		d.srtt = (7*d.srtt + fb.Delay) / 8
	}
	now := fb.Now
	if fb.CE {
		d.markedInPeriod = true
		// Rate cut at most once per alpha period.
		if now-d.lastCut >= d.cfg.AlphaTimer {
			d.targetRate = d.currentRate
			d.currentRate *= 1 - d.alpha/2
			d.sinceMark = 0
			d.lastCut = now
			if d.dlog != nil {
				d.dlog.LogDecision(obs.SpanDecCut, fb.Delay, d.currentRate, d.alpha)
			}
		}
	}
	if now-d.lastAlphaUpdate >= d.cfg.AlphaTimer {
		f := 0.0
		if d.markedInPeriod {
			f = 1
		}
		d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G*f
		d.markedInPeriod = false
		d.lastAlphaUpdate = now
	}
	if now-d.lastIncrease >= d.cfg.IncreaseTimer {
		d.lastIncrease = now
		if d.markedInPeriod {
			return
		}
		d.sinceMark++
		switch {
		case d.sinceMark < d.cfg.HyperThreshold:
			// Fast recovery: Rc -> (Rc+Rt)/2, target unchanged.
		case d.sinceMark == d.cfg.HyperThreshold:
			d.targetRate += d.cfg.RateAI.BytesPerSec()
		default:
			d.targetRate += d.cfg.RateHAI.BytesPerSec()
			if d.dlog != nil && d.sinceMark == d.cfg.HyperThreshold+1 {
				d.dlog.LogDecision(obs.SpanDecGrow, fb.Delay, d.targetRate, float64(d.sinceMark))
			}
		}
		line := d.cfg.LineRate.BytesPerSec()
		d.targetRate = math.Min(d.targetRate, line)
		d.currentRate = (d.currentRate + d.targetRate) / 2
	}
	d.clampRate()
}

func (d *DCQCN) clampRate() {
	d.currentRate = math.Max(d.currentRate, d.cfg.MinRate.BytesPerSec())
	d.currentRate = math.Min(d.currentRate, d.cfg.LineRate.BytesPerSec())
}

// OnProbeAck implements Algorithm.
func (d *DCQCN) OnProbeAck(fb Feedback) {}

// OnRTO implements Algorithm.
func (d *DCQCN) OnRTO() {
	d.currentRate /= 2
	d.targetRate = d.currentRate
	d.clampRate()
}

// CwndBytes implements Algorithm: the rate expressed as a window over the
// smoothed RTT. Run the flow paced for faithful rate behavior.
func (d *DCQCN) CwndBytes() float64 {
	rtt := d.srtt
	if rtt <= 0 {
		rtt = d.drv.BaseRTT()
	}
	return d.currentRate * rtt.Seconds()
}
