// Package core implements PrioPlus, the paper's primary contribution: a
// congestion-control enhancement that emulates strict virtual priorities
// inside one physical switch queue by assigning each priority level a delay
// channel [D_target, D_limit] and gating transmission on the measured
// fabric delay (Algorithm 1 of the paper).
//
// PrioPlus wraps any delay-based congestion controller that implements
// cc.DelayBased (Swift and LEDBAT in this repository). Its mechanisms:
//
//   - Probe with collision avoidance (§4.2.1): when the delay exceeds
//     D_limit for two consecutive measurements, the flow stops sending and
//     probes after (delay - D_target) + random(BaseRTT).
//   - Linear start (§4.2.2): on an empty path (delay == base RTT), the
//     window grows by W_LS/#flow per RTT, the start strategy with provably
//     minimal potential buffer backlog (Theorem 4.1).
//   - Dual-RTT adaptive increase (§4.2.3): when only lower-priority flows
//     occupy the path, the AI step is raised once every two RTTs by
//     min(cwnd/2, (D_target-delay)/delay * cwnd) so the wrapped CC lifts
//     the delay to D_target within one RTT without overreacting.
//   - Delay-based flow-cardinality estimation (§4.3.1): #flow is estimated
//     as delay*LineRate/cwnd whenever the channel is overrun, and both the
//     AI step and the linear-start step are divided by it; a countdown
//     halves the estimate when the path stays idle.
//   - Filter mechanism (§4.3.1): bandwidth is relinquished only after the
//     delay exceeds D_limit twice in a row, absorbing long-tail
//     measurement noise.
package core

import (
	"fmt"
	"math"

	"prioplus/internal/cc"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// Channel is a priority's delay range. Flows of this priority keep the
// delay near Target and suspend transmission above Limit.
type Channel struct {
	Priority int
	Target   sim.Time // D_target, absolute (includes base RTT)
	Limit    sim.Time // D_limit, absolute
}

// ChannelPlan maps priority levels to delay channels following §4.3.2:
// D_target^i = BaseRTT + i*(A+B) and D_limit^i = D_target^i + A/2 + B,
// where A accommodates the wrapped CC's fluctuation and B the tolerable
// delay noise.
type ChannelPlan struct {
	BaseRTT     sim.Time
	Fluctuation sim.Time // A
	Noise       sim.Time // B
}

// DefaultPlan returns the paper's evaluation setting: A+B = 4 us spacing
// with A = 3.2 us (150 Swift flows) and B = 0.8 us (the 99.85th percentile
// of measured delay noise), giving D_target = base + 4i us and
// D_limit = D_target + 2.4 us.
func DefaultPlan(baseRTT sim.Time) ChannelPlan {
	return ChannelPlan{
		BaseRTT:     baseRTT,
		Fluctuation: 3200 * sim.Nanosecond,
		Noise:       800 * sim.Nanosecond,
	}
}

// Channel returns the delay channel for priority i (i >= 0; larger numbers
// are higher priorities, per Table 1 of the paper). The lowest priority's
// target sits one channel width above the base RTT — §6 assigns "target
// delays from 32 us to 4 us plus base RTT" for eight priorities — so even
// priority 0 has a workable queuing budget.
func (p ChannelPlan) Channel(i int) Channel {
	spacing := p.Fluctuation + p.Noise
	target := p.BaseRTT + sim.Time(i+1)*spacing
	return Channel{
		Priority: i,
		Target:   target,
		Limit:    target + p.Fluctuation/2 + p.Noise,
	}
}

// Config parameterizes one PrioPlus flow.
type Config struct {
	Channel Channel
	// WLSFraction is the linear-start step W_LS as a fraction of the base
	// BDP (§4.4 recommends 1 for high, 0.25 for medium and 0.125 for low
	// priorities). The flow reaches line rate in 1/WLSFraction RTTs.
	WLSFraction float64
	// ProbeFirst makes the flow probe the path before its first data
	// packet (§4.4: enabled for medium and low priorities, disabled for
	// high or latency-sensitive ones).
	ProbeFirst bool
	// BaseRTTEps is the tolerance for treating a measured delay as "equal
	// to the base RTT" in the presence of noise.
	BaseRTTEps sim.Time
	// ConsecLimit is how many consecutive above-limit measurements are
	// required before yielding (the paper's filter uses 2).
	ConsecLimit int
	// AdaptiveEveryRTT disables the dual-RTT gating of the adaptive
	// increase, applying it every RTT instead. This is the ablation of
	// Fig 10c, which shows it overreacts; never enable it in production.
	AdaptiveEveryRTT bool
	// DisableCardinality turns off delay-based flow-cardinality
	// estimation (§4.3.1), for ablations: #flow stays at 1, so many-flow
	// scenarios fluctuate past D_limit.
	DisableCardinality bool
	// NoProbeJitter removes the random(BaseRTT) term from the probe
	// schedule (§4.2.1), for ablations: yielded flows probe in lockstep
	// and collide when the path frees up.
	NoProbeJitter bool
	// NaiveProbe probes once per base RTT instead of waiting out the
	// predicted drain time (delay - D_target), for ablations: detection
	// stays fast but yielded flows burn far more probe bandwidth, the
	// §4.2.1 trade-off.
	NaiveProbe bool
	// Weight scales the wrapped CC's additive-increase step for flows
	// sharing one channel (the §7 weighted-virtual-priority extension):
	// same-channel flows converge to bandwidth shares proportional to
	// their weights, while cross-channel strictness is unaffected.
	// 0 means 1.
	Weight float64
}

// DefaultConfig returns a PrioPlus configuration for the given channel
// with the paper's recommended W_LS for its position in the hierarchy:
// high (top quarter of nprios) gets 1.0, middle 0.25, low 0.125.
func DefaultConfig(ch Channel, nprios int) Config {
	frac := 0.125
	switch {
	case nprios <= 1 || ch.Priority >= nprios-(nprios+3)/4:
		frac = 1.0
	case ch.Priority >= nprios/2:
		frac = 0.25
	}
	return Config{
		Channel:     ch,
		WLSFraction: frac,
		ProbeFirst:  frac < 1.0, // high priorities start without probing
		BaseRTTEps:  1 * sim.Microsecond,
		ConsecLimit: 2,
	}
}

// PrioPlus implements cc.Algorithm by wrapping a delay-based controller.
type PrioPlus struct {
	cfg   Config
	inner cc.DelayBased
	drv   cc.Driver
	dlog  cc.DecisionLogger

	nflow     float64 // #flow: estimated same-priority flow cardinality
	countDown int
	wlsPkts   float64 // W_LS in packets
	bdpPkts   float64 // base BDP in packets

	rttEndSeq   int64
	rttPass     bool
	dualRttPass bool
	consec      int
	stopped     bool

	// Counters for tests and experiments.
	Yields      int64 // times the flow relinquished bandwidth
	Probes      int64 // probes scheduled
	LinearStart int64 // linear-start increments applied
	AdaptiveInc int64 // dual-RTT adaptive increases applied
}

// New wraps inner with PrioPlus. The inner CC's target is pinned to the
// channel's D_target and its target scaling disabled, per §4.1.
func New(inner cc.DelayBased, cfg Config) *PrioPlus {
	if cfg.ConsecLimit <= 0 {
		cfg.ConsecLimit = 2
	}
	if cfg.WLSFraction <= 0 {
		cfg.WLSFraction = 0.125
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	inner.SetTarget(cfg.Channel.Target)
	return &PrioPlus{cfg: cfg, inner: inner, nflow: 1}
}

// baseAI returns the weighted base AI step W_AIorigin.
func (p *PrioPlus) baseAI() float64 {
	return p.inner.BaseAIStep() * p.cfg.Weight
}

// Name implements cc.Algorithm.
func (p *PrioPlus) Name() string {
	return fmt.Sprintf("prioplus[%d]+%s", p.cfg.Channel.Priority, p.inner.Name())
}

// WantsECT implements cc.Algorithm.
func (p *PrioPlus) WantsECT() bool { return p.inner.WantsECT() }

// Inner returns the wrapped delay-based controller.
func (p *PrioPlus) Inner() cc.DelayBased { return p.inner }

// Stopped reports whether the flow has relinquished bandwidth and is
// probing.
func (p *PrioPlus) Stopped() bool { return p.stopped }

// FlowEstimate returns the current cardinality estimate #flow.
func (p *PrioPlus) FlowEstimate() float64 { return p.nflow }

// Start implements cc.Algorithm. Low/medium priorities probe before
// transmitting; high priorities begin a linear start immediately (§4.4).
func (p *PrioPlus) Start(drv cc.Driver) {
	p.drv = drv
	p.dlog = cc.DecisionLoggerOf(drv)
	p.inner.Start(drv)
	p.bdpPkts = drv.LineRate().BDP(drv.BaseRTT()) / float64(drv.MTU())
	p.wlsPkts = math.Max(p.cfg.WLSFraction*p.bdpPkts, 1)
	p.countDown = p.resetCountdown()
	p.logDec(obs.SpanDecStart, 0, p.cfg.Channel.Target.Micros(), p.cfg.Channel.Limit.Micros())
	if p.cfg.ProbeFirst {
		p.stopped = true
		drv.StopSending()
		p.Probes++
		p.logDec(obs.SpanDecProbe, 0, 0, 0)
		drv.SendProbeAfter(0)
	} else {
		p.inner.SetCwndPackets(p.wlsPkts / p.nflow)
	}
}

// logDec records one decision on the flow's audit timeline; free (one nil
// check) for untraced flows.
func (p *PrioPlus) logDec(kind obs.SpanKind, delay sim.Time, a, b float64) {
	if p.dlog != nil {
		p.dlog.LogDecision(kind, delay, a, b)
	}
}

func (p *PrioPlus) resetCountdown() int {
	return int(math.Ceil(p.bdpPkts / p.wlsPkts))
}

// atBase reports whether the measured delay is indistinguishable from the
// base RTT.
func (p *PrioPlus) atBase(delay sim.Time) bool {
	return delay <= p.drv.BaseRTT()+p.cfg.BaseRTTEps
}

// estimateCardinality updates #flow from the inflight estimate
// delay*LineRate/cwnd (Algorithm 1 line 8) and scales the AI step.
func (p *PrioPlus) estimateCardinality(delay sim.Time) {
	if p.cfg.DisableCardinality {
		return
	}
	inflight := p.drv.LineRate().BytesPerSec() * delay.Seconds()
	est := inflight / math.Max(p.inner.CwndBytes(), 1)
	p.nflow = math.Max(p.nflow, est)
	p.inner.SetAIStep(p.baseAI() / p.nflow)
	p.countDown = p.resetCountdown()
	p.logDec(obs.SpanDecCardEst, delay, p.nflow, p.inner.AIStep())
}

// tickCountdown implements the idle-path countdown (§4.3.1): every RTT the
// path looks empty, decrement; at zero, halve #flow.
func (p *PrioPlus) tickCountdown() {
	if p.cfg.DisableCardinality {
		return
	}
	if p.countDown > 0 {
		p.countDown--
		return
	}
	p.nflow = math.Max(1, p.nflow/2)
	p.inner.SetAIStep(p.baseAI() / p.nflow)
	p.logDec(obs.SpanDecCardDecay, 0, p.nflow, float64(p.countDown))
}

// OnAck implements cc.Algorithm (Algorithm 1, procedure NewAck).
func (p *PrioPlus) OnAck(fb cc.Feedback) {
	if p.stopped {
		// Residual in-flight ACKs after yielding; the probe path owns
		// recovery.
		return
	}
	if fb.Seq >= p.rttEndSeq {
		p.rttPass = true
		p.rttEndSeq = p.drv.SndNxt()
		p.dualRttPass = !p.dualRttPass
		if !p.dualRttPass {
			// End of a dual-RTT adaptive-increase period: restore the AI
			// step (lines 5-6).
			p.inner.SetAIStep(p.baseAI() / p.nflow)
			p.logDec(obs.SpanDecAIRestore, fb.Delay, p.inner.AIStep(), 0)
		}
	}
	if fb.Delay >= p.cfg.Channel.Limit {
		p.consec++
	} else {
		p.consec = 0
	}
	if fb.Delay >= p.cfg.Channel.Limit && p.consec >= p.cfg.ConsecLimit {
		// Higher-priority traffic present: estimate cardinality, yield,
		// and probe (lines 7-10).
		p.estimateCardinality(fb.Delay)
		p.stopped = true
		p.Yields++
		p.logDec(obs.SpanDecYield, fb.Delay, p.nflow, float64(p.consec))
		p.drv.StopSending()
		p.scheduleProbe(fb.Delay)
		return
	}
	if fb.Delay <= p.cfg.Channel.Target && p.rttPass {
		p.rttPass = false // at most one structural action per RTT
		if p.atBase(fb.Delay) {
			// Empty path: linear start (lines 13-16).
			p.inner.SetCwndPackets(p.inner.CwndPackets() + p.wlsPkts/p.nflow)
			p.LinearStart++
			p.logDec(obs.SpanDecLinearStart, fb.Delay, p.inner.CwndPackets(), 0)
			p.tickCountdown()
		} else if p.dualRttPass || p.cfg.AdaptiveEveryRTT {
			// Only lower-priority flows present: raise the AI step so the
			// inner CC lifts the delay to D_target within one RTT
			// (lines 17-19).
			cwnd := p.inner.CwndPackets()
			step := float64(p.cfg.Channel.Target-fb.Delay) / float64(fb.Delay) * cwnd
			step = math.Min(cwnd/2, step)
			if step > 0 {
				p.inner.SetAIStep(p.inner.AIStep() + step)
				p.AdaptiveInc++
				p.logDec(obs.SpanDecAdaptiveInc, fb.Delay, p.inner.AIStep(), step)
			}
		}
	}
	p.inner.OnAck(fb) // line 21: OriginalCC(delay)
}

// scheduleProbe implements probe with collision avoidance (§4.2.1,
// lines 22-24): wait out the predicted queue-drain time plus a random
// slice of the base RTT.
func (p *PrioPlus) scheduleProbe(delay sim.Time) {
	if p.cfg.NaiveProbe {
		p.Probes++
		p.logDec(obs.SpanDecProbe, delay, p.drv.BaseRTT().Micros(), 0)
		p.drv.SendProbeAfter(p.drv.BaseRTT())
		return
	}
	wait := delay - p.cfg.Channel.Target
	if wait < 0 {
		wait = 0
	}
	if !p.cfg.NoProbeJitter {
		wait += sim.Time(p.drv.Rand().Int63n(int64(p.drv.BaseRTT()) + 1))
	}
	p.Probes++
	p.logDec(obs.SpanDecProbe, delay, wait.Micros(), 0)
	p.drv.SendProbeAfter(wait)
}

// Probe-answer outcome codes carried in the audit span's A field.
const (
	probeOutcomeReprobe     = 0 // still over D_limit: schedule another probe
	probeOutcomeLinearStart = 1 // path empty: resume at the linear-start window
	probeOutcomeOnePacket   = 2 // path busy but in channel: resume with one packet
)

// OnProbeAck implements cc.Algorithm (Algorithm 1, function NewProbeAck).
func (p *PrioPlus) OnProbeAck(fb cc.Feedback) {
	if !p.stopped {
		// A probe ACK races with resumed transmission: treat as a normal
		// delay sample.
		p.inner.OnAck(fb)
		return
	}
	p.drv.ResetRTO()
	if fb.Delay >= p.cfg.Channel.Limit {
		p.logDec(obs.SpanDecProbeAns, fb.Delay, probeOutcomeReprobe, 0)
		p.scheduleProbe(fb.Delay)
		return
	}
	if p.atBase(fb.Delay) {
		// Empty path: restart with the linear-start window (lines 28-31).
		p.logDec(obs.SpanDecProbeAns, fb.Delay, probeOutcomeLinearStart, 0)
		p.inner.SetCwndPackets(p.wlsPkts / p.nflow)
		p.LinearStart++
		p.tickCountdown()
	} else {
		// Between base RTT and D_limit: resume conservatively with one
		// packet (line 32, §4.4).
		p.logDec(obs.SpanDecProbeAns, fb.Delay, probeOutcomeOnePacket, 0)
		p.inner.SetCwndPackets(1)
	}
	p.stopped = false
	p.logDec(obs.SpanDecResume, fb.Delay, p.inner.CwndPackets(), 0)
	p.drv.ResumeSending()
	p.rttEndSeq = p.drv.SndNxt()
	p.dualRttPass = false
}

// OnRTO implements cc.Algorithm. While stopped, the transport retries the
// probe itself; otherwise defer to the inner CC.
func (p *PrioPlus) OnRTO() {
	if p.stopped {
		return
	}
	p.inner.OnRTO()
}

// CwndBytes implements cc.Algorithm.
func (p *PrioPlus) CwndBytes() float64 {
	if p.stopped {
		return 0
	}
	return p.inner.CwndBytes()
}
