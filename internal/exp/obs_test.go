package exp

import (
	"io"
	"math"
	"reflect"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// TestRunFlowSchedObs: a flow-scheduling run with an attached recorder
// emits the live flow aggregates and the post-run device metrics.
func TestRunFlowSchedObs(t *testing.T) {
	t.Parallel()
	cfg := DefaultFlowSchedConfig(PrioPlusSwift(), 4)
	cfg.K = 4
	cfg.Duration = 2 * sim.Millisecond
	cfg.Drain = 5 * sim.Millisecond
	rec := obs.NewRecorder()
	cfg.NewRecorder = always(rec)
	res := RunFlowSched(cfg)
	if res.Flows.Count() == 0 {
		t.Fatal("no flows completed")
	}
	snap := rec.Metrics.Snapshot()
	if got := snap["net/flows_completed"]; got != float64(res.Flows.Count()) {
		t.Errorf("net/flows_completed = %v, want %d", got, res.Flows.Count())
	}
	if snap["net/tx_packets"] <= 0 || snap["net/rx_packets"] <= 0 {
		t.Errorf("device aggregates missing: tx=%v rx=%v", snap["net/tx_packets"], snap["net/rx_packets"])
	}
	if snap["net/queue_hwm_bytes"] <= 0 {
		t.Errorf("net/queue_hwm_bytes = %v, want > 0 under 0.7 load", snap["net/queue_hwm_bytes"])
	}
}

// TestFig10bWatchdogEarlyStop: a watchdog that trips before the first
// sample of an instrumentable micro driver must yield zeros, not a NaN or a
// divide-by-zero panic.
func TestFig10bWatchdogEarlyStop(t *testing.T) {
	t.Parallel()
	for name, sampled := range map[string]func(Options) []float64{
		"fig10b": func(o Options) []float64 {
			r := Fig10b(80, o)
			return []float64{r.WithinFrac, float64(r.MeanDelay)}
		},
		"fig8": func(o Options) []float64 {
			return []float64{Fig8(true, 2*sim.Millisecond, o).DominanceFrac}
		},
	} {
		rec := obs.NewRecorder()
		rec.Watchdog = &obs.Watchdog{MaxInflightBytes: 16 << 10}
		rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
		got := sampled(Options{NewRecorder: always(rec)})
		if rec.Watchdog.Tripped() != "inflight_bytes" {
			t.Fatalf("%s: Tripped = %q, want inflight_bytes", name, rec.Watchdog.Tripped())
		}
		for _, v := range got {
			if v != 0 || math.IsNaN(v) {
				t.Errorf("%s: early-stopped run reported %v, want zeros", name, got)
			}
		}
	}
}

// countingSink is a Sink that remembers which runs asked for a recorder, in
// order, and how often each recorder was collected.
type countingSink struct {
	tags      []string
	recs      []*obs.Recorder
	collected []int
}

func (s *countingSink) Recorder(tag string) *obs.Recorder {
	i := len(s.tags)
	rec := obs.NewRecorder()
	rec.OnCollected = func() { s.collected[i]++ }
	s.tags, s.recs, s.collected = append(s.tags, tag), append(s.recs, rec), append(s.collected, 0)
	return rec
}

// TestSpecsInstrumentEveryTaggedRun pins the one recorder route from the
// spec side: run through Spec.Run, each quick instrumented experiment asks
// its sink for exactly these runs in this order, collects each recorder
// once, and every recorder saw its run's traffic. Where the fingerprint
// manifest can only say that a hash moved, this says which run lost its
// recorder.
func TestSpecsInstrumentEveryTaggedRun(t *testing.T) {
	t.Parallel()
	for id, want := range map[string][]string{
		"fig8":       {"pp", "swift"},
		"fig10b":     {"incast"},
		"fig16":      {"PrioPlus+Swift/np=8", "PrioPlus+Swift/np=8/ackdata", "Physical+HPCC/np=8"},
		"faultsweep": {"PrioPlus+Swift", "Physical+Swift", "Physical+DCQCN", "Physical+HPCC"},
	} {
		id, want := id, want
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec, ok := Lookup(id)
			if !ok {
				t.Fatalf("no spec %q", id)
			}
			sink := &countingSink{}
			if err := spec.Run(spec.Defaults, sink, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sink.tags, want) {
				t.Fatalf("recorder tags = %q, want %q", sink.tags, want)
			}
			for i, rec := range sink.recs {
				if sink.collected[i] != 1 {
					t.Errorf("run %q collected %d times, want once", want[i], sink.collected[i])
				}
				if tx := rec.Metrics.Snapshot()["net/tx_packets"]; tx <= 0 {
					t.Errorf("run %q: net/tx_packets = %v, want > 0", want[i], tx)
				}
			}
		})
	}
}
