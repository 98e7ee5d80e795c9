// Package prioplus_bench times the paper's figure suite the one way it runs:
// each benchmark looks a spec up in the registry and runs it through
// serve.Execute, the path the CLI, the batch runner and the job server share.
package prioplus_bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
	"prioplus/internal/sim"
)

// slow are the specs that take minutes at quick scale; -short skips them.
var slow = map[string]bool{"fig12ab": true, "fig14": true, "fig15": true, "fig17": true, "fig18": true}

// checked maps a spec id to its figure output once a fingerprinted run has
// passed the manifest, so a sub-benchmark checks once however often it runs.
var checked = map[string]string{}

// BenchmarkSpec times every registered spec hooks-off at its defaults — the
// bytes `prioplus-sim <id>` prints — and reports the events it dispatches.
// Off the clock, a fingerprinted run must match testdata/fingerprints.json,
// and its figure lines must be the timed output.
func BenchmarkSpec(b *testing.B) {
	m, err := serve.LoadManifest("testdata/fingerprints.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range exp.Specs() {
		b.Run(spec.ID, func(b *testing.B) {
			if testing.Short() && slow[spec.ID] {
				b.Skip("takes minutes at quick scale")
			}
			want, ok := checked[spec.ID]
			if !ok {
				var fp bytes.Buffer
				if _, err := serve.Execute(spec.ID, spec.Defaults, serve.Instruments{Fingerprint: true}, nil, &fp); err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("%s/seed=%d", spec.ID, spec.Defaults.Seed)
				if err := m.Check(name, spec.Defaults, serve.OutputFingerprint(fp.String())); err != nil {
					b.Fatal(err)
				}
				// Drop the sink's summary lines: the digest chains, and the
				// post-mortem of a run its driver's own watchdog stopped (fig18).
				for _, line := range strings.SplitAfter(fp.String(), "\n") {
					if !strings.HasPrefix(line, "# fingerprint ") && !strings.HasPrefix(line, "# watchdog tripped ") {
						want += line
					}
				}
				checked[spec.ID] = want
			}
			var out bytes.Buffer
			start := sim.TotalEvents()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				if _, err := serve.Execute(spec.ID, spec.Defaults, serve.Instruments{}, nil, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(sim.TotalEvents()-start)/float64(b.N), "events/op")
			if out.String() != want {
				b.Fatalf("hooks-off output differs from the fingerprinted run's figure lines:\n%s\nvs\n%s", out.String(), want)
			}
		})
	}
}

// instrumentSets are the instrument sets BenchmarkInstruments times, each
// with what its one fig10b run must have recorded. CI gates full-obs over
// obs and all-hooks (the repository benchmark's obs_full set) over plain.
var instrumentSets = []struct {
	name  string
	ins   serve.Instruments
	check func(r *serve.Run) error
}{
	{"plain", serve.Instruments{}, nil},
	{"obs", serve.Instruments{Series: true, Hist: true}, lineOf("sample")},
	{"full-obs", serve.Instruments{Series: true, Hist: true, Cost: true, Runtime: true, Live: &runner.RunEntry{}},
		func(r *serve.Run) error {
			if _, ok := r.Rec.Metrics.Value("cost/transmit/samples"); !ok || r.Rec.Live.Events.Load() == 0 {
				return fmt.Errorf("cost profiler (%v) or live bridge (%d events) recorded nothing", ok, r.Rec.Live.Events.Load())
			}
			return lineOf("sample")(r)
		}},
	{"fingerprint", serve.Instruments{Fingerprint: true}, folded},
	{"trace", serve.Instruments{Series: true, TraceFlows: 4}, lineOf("span")},
	{"all-hooks", serve.Instruments{Series: true, Hist: true, Cost: true, Fingerprint: true, Audit: true, TraceFlows: 4},
		func(r *serve.Run) error {
			if aud := r.Rec.Audit; aud.Checks == 0 || aud.Violation() != "" {
				return fmt.Errorf("auditor: %d checks, violation %q", aud.Checks, aud.Violation())
			}
			if err := folded(r); err != nil {
				return err
			}
			return lineOf("span")(r)
		}},
}

// lineOf fails a run whose artifact has no line of the given type.
func lineOf(typ string) func(r *serve.Run) error {
	return func(r *serve.Run) error {
		if !strings.Contains(r.Lines, `{"type":"`+typ+`"`) {
			return fmt.Errorf("artifact has no %q line", typ)
		}
		return nil
	}
}

func folded(r *serve.Run) error {
	if r.Rec.Digest.Count == 0 {
		return fmt.Errorf("digest folded nothing")
	}
	return nil
}

// BenchmarkInstruments times fig10b under each set, then checks the last run.
func BenchmarkInstruments(b *testing.B) {
	spec, _ := exp.Lookup("fig10b")
	for _, set := range instrumentSets {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			var runs []*serve.Run
			for i := 0; i < b.N; i++ {
				var err error
				if runs, err = serve.Execute(spec.ID, spec.Defaults, set.ins, nil, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if set.check == nil {
				return
			}
			if len(runs) != 1 {
				b.Fatalf("fig10b returned %d runs, want 1", len(runs))
			}
			if err := set.check(runs[0]); err != nil {
				b.Fatal(err)
			}
		})
	}
}
