package cc

import (
	"math"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// TIMELYConfig parameterizes TIMELY [Mittal et al., SIGCOMM'15], the
// RTT-gradient rate controller the paper cites as the other delay-signal
// family (§3.2 mentions delay gradient as a multi-bit signal). TIMELY
// reacts to the *slope* of the RTT rather than its distance to a target,
// with hard thresholds Tlow/Thigh guarding the gradient regime.
type TIMELYConfig struct {
	// Alpha is the EWMA weight for the RTT-difference filter.
	Alpha float64
	// Beta is the multiplicative-decrease factor.
	Beta float64
	// AddStep is the additive increase per completion event, bytes/s.
	AddStep float64
	// TLow/THigh bound the gradient regime: below TLow always increase,
	// above THigh always decrease.
	TLow, THigh sim.Time
	// MinRTT normalizes the gradient.
	MinRTT sim.Time
	// MinRate/MaxRate bound the rate in bytes/s.
	MinRate, MaxRate float64
	// HAIThreshold: consecutive gradient-negative completions before
	// hyper-active increase (5 in the paper).
	HAIThreshold int
}

// DefaultTIMELYConfig returns TIMELY parameters scaled to the path.
func DefaultTIMELYConfig(baseRTT sim.Time, lineBps float64) TIMELYConfig {
	return TIMELYConfig{
		Alpha:        0.875,
		Beta:         0.8,
		AddStep:      lineBps / 8 / 100, // 1% of line rate per event
		TLow:         baseRTT + 2*sim.Microsecond,
		THigh:        baseRTT + 24*sim.Microsecond,
		MinRTT:       baseRTT,
		MinRate:      lineBps / 8 / 1000,
		MaxRate:      lineBps / 8,
		HAIThreshold: 5,
	}
}

// TIMELY implements the TIMELY controller; run flows paced.
type TIMELY struct {
	cfg  TIMELYConfig
	drv  Driver
	dlog DecisionLogger

	rate     float64 // bytes/s
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, seconds
	negCount int
	srtt     sim.Time
}

// NewTIMELY returns a TIMELY instance.
func NewTIMELY(cfg TIMELYConfig) *TIMELY { return &TIMELY{cfg: cfg} }

// Name implements Algorithm.
func (t *TIMELY) Name() string { return "timely" }

// WantsECT implements Algorithm: TIMELY is delay-based.
func (t *TIMELY) WantsECT() bool { return false }

// Start implements Algorithm: line-rate start, like the paper's RDMA
// deployment.
func (t *TIMELY) Start(drv Driver) {
	t.drv = drv
	t.dlog = DecisionLoggerOf(drv)
	t.rate = t.cfg.MaxRate
	t.srtt = drv.BaseRTT()
}

// OnAck implements Algorithm, following the TIMELY pseudocode per
// completion event (here: per ACK).
func (t *TIMELY) OnAck(fb Feedback) {
	rtt := fb.Delay
	if rtt <= 0 {
		return
	}
	t.srtt = (7*t.srtt + rtt) / 8
	if t.prevRTT == 0 {
		t.prevRTT = rtt
		return
	}
	newDiff := (rtt - t.prevRTT).Seconds()
	t.prevRTT = rtt
	t.rttDiff = (1-t.cfg.Alpha)*t.rttDiff + t.cfg.Alpha*newDiff
	gradient := t.rttDiff / t.cfg.MinRTT.Seconds()

	switch {
	case rtt < t.cfg.TLow:
		t.negCount = 0
		t.rate += t.cfg.AddStep
	case rtt > t.cfg.THigh:
		t.negCount = 0
		// Decrease proportional to how far above THigh the RTT sits.
		t.rate *= 1 - t.cfg.Beta*(1-float64(t.cfg.THigh)/float64(rtt))
		if t.dlog != nil {
			t.dlog.LogDecision(obs.SpanDecCut, rtt, t.rate, gradient)
		}
	case gradient <= 0:
		t.negCount++
		n := 1.0
		if t.negCount >= t.cfg.HAIThreshold {
			n = 5
			if t.dlog != nil && t.negCount == t.cfg.HAIThreshold {
				t.dlog.LogDecision(obs.SpanDecGrow, rtt, t.rate, n)
			}
		}
		t.rate += n * t.cfg.AddStep
	default:
		t.negCount = 0
		t.rate *= 1 - t.cfg.Beta*gradient
		if t.dlog != nil {
			t.dlog.LogDecision(obs.SpanDecCut, rtt, t.rate, gradient)
		}
	}
	t.rate = math.Min(math.Max(t.rate, t.cfg.MinRate), t.cfg.MaxRate)
}

// OnProbeAck implements Algorithm.
func (t *TIMELY) OnProbeAck(fb Feedback) {}

// OnRTO implements Algorithm.
func (t *TIMELY) OnRTO() {
	t.rate = math.Max(t.rate/2, t.cfg.MinRate)
}

// CwndBytes implements Algorithm: rate expressed as a window.
func (t *TIMELY) CwndBytes() float64 {
	rtt := t.srtt
	if rtt <= 0 {
		rtt = t.drv.BaseRTT()
	}
	return t.rate * rtt.Seconds()
}
