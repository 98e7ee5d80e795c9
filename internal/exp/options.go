package exp

import (
	"prioplus/internal/fault"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// Options bundles the cross-cutting per-run knobs every figure driver
// accepts — the micro drivers as a parameter, the scenario configs as an
// embedded field — and newNet consumes. The zero value reproduces the
// paper's plain run exactly.
type Options struct {
	// Seed overrides a micro driver's baked-in seed when non-zero (the paper
	// figures keep their published seeds by default, so batch tooling that
	// doesn't set Seed gets byte-identical reference output) and is the seed
	// of a scenario config.
	Seed int64
	// NewRecorder, when non-nil, supplies the recorder of each run a driver
	// starts, keyed by the run's tag ("incast", "PrioPlus+Swift/np=8"); a
	// Sink's Recorder method is one. This is the only route a recorder takes
	// into a run. A recorder is strictly per-engine, so a driver asks once
	// per run, and its untagged runs are never instrumented (see newNet).
	// Instrumentation never changes figure output.
	NewRecorder func(tag string) *obs.Recorder
	// Faults, when non-nil and non-empty, is installed on each run's
	// topology before traffic starts (harness.WithFaults). A Plan is
	// immutable, so the same plan serves every run of a sweep.
	Faults *fault.Plan
	// Perturb, when non-zero, deliberately diverges the run for testing
	// the divergence-diagnosis tooling (prioplus-sim diff): the Perturb-th
	// delay-noise draw is inflated by one microsecond — one RNG draw
	// nudged, everything else identical — and the digest chain must
	// localize the butterfly effect to its exact first divergent event.
	// (A nanosecond would be subtler still, but measured-delay noise is
	// quantized by CC decision thresholds, so 1ns does not reliably change
	// any event.) It applies to every run with a noise model; the
	// registered specs pass it to the micro-fabric experiments (the ones
	// built on the star topology).
	Perturb uint64
}

// seedOr returns the override seed when set, the driver default otherwise.
func (o Options) seedOr(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// noiseFn wraps a delay-noise sampler with the Perturb injection: draw
// number Perturb (1-based) is inflated by one microsecond. With Perturb
// zero the sampler is returned unwrapped, so normal runs pay nothing.
func (o Options) noiseFn(sample func() sim.Time) func() sim.Time {
	if o.Perturb == 0 {
		return sample
	}
	var n uint64
	return func() sim.Time {
		v := sample()
		n++
		if n == o.Perturb {
			v += sim.Microsecond
		}
		return v
	}
}
