// Command benchmark is the repository's one performance instrument. It builds
// ./cmd/prioplus-sim, drives it only through its documented surfaces (CLI
// flags and the HTTP API of docs/API.md), checks that what it computes did not
// move, and prints every metric BENCHMARK.json names. See README.md.
//
// This package imports nothing from prioplus/internal: refactors behind the
// CLI and the API are measured by it, not broken by it. The per-layer rigs
// that do reach inside live in ./layers behind the layerbench build tag.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// notMeasured is the value a per-layer metric carries when this traced run
// could not produce it: the metric belongs to another workload's own
// execution, or its layer adapter no longer builds (see README.md).
const notMeasured = -1

// tally counts operations against the correctness gate. fail may be called
// from the load generator's client goroutines; attempted is only written
// between rounds.
type tally struct {
	attempted int
	mu        sync.Mutex
	failed    int
	msgs      []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// bench is the state of one workload run.
type bench struct {
	ctx      context.Context
	root     string // checkout root (holds cmd/prioplus-sim and BENCHMARK.json)
	buildDir string // root/.bench_build: binaries and the Go build cache
	tmp      string // this run's scratch directory under buildDir, removed on exit
	sim      string // the built prioplus-sim
	buildS   float64

	workload string
	seed     int64
	seconds  float64
	trace    bool

	spans    *spanLog // nil when not tracing
	manifest map[string]string
	hashes   map[string]string // spec identity -> output hash, for the identical-spec check
	peakRSS  float64

	tally   tally
	metrics map[string]metric
	notes   map[string]string
}

// put records a metric with the sample note printed beside it.
func (b *bench) put(name string, v float64, unit, note string) {
	b.metrics[name] = metric{v, unit}
	b.notes[name] = note
}

func (b *bench) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(b.root, "testdata", "fingerprints.json"))
	if err != nil {
		return err
	}
	var m struct {
		Runs map[string]string `json:"runs"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("testdata/fingerprints.json: %w", err)
	}
	b.manifest = m.Runs
	return nil
}

const setupRepeats = 3

// repeatSetup performs a workload's set-up setupRepeats times and returns
// the median duration; a single set-up of tens of milliseconds is too noisy
// to gate on. Only the last set-up's state is kept (last is true for it).
func (b *bench) repeatSetup(setup func(last bool) error) (float64, error) {
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := setup(i == setupRepeats-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// findRoot returns the checkout root: the working directory when run through
// run.sh, its parent under `go run -C benchmark .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "prioplus-sim", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", fmt.Errorf("cmd/prioplus-sim and BENCHMARK.json not found: run from the repository root")
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "one of star_micro, fattree_faults, flowsched, obs_full, serve_mixed, or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 0, "measuring time per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: spans on, per-layer rigs, per-layer metrics instead of end-to-end")
	out := flag.String("out", "", "result file to append this run to (default: .bench_build/results/<workload>-seed<n>-trace<t>.json, overwritten)")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cat, err := loadCatalog(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(cat, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(cat.RunSeconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !cat.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	// SIGINT/SIGTERM cancel the context every child runs under, so they are
	// killed and waited for before the scratch directory goes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(buildDir, "results"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sim, buildS, err := buildSim(ctx, root, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	code := 0
	for _, name := range names {
		b := &bench{
			ctx: ctx, root: root, buildDir: buildDir, sim: sim, buildS: buildS,
			workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0,
			hashes: map[string]string{}, metrics: map[string]metric{}, notes: map[string]string{},
		}
		if b.trace {
			b.spans = newSpanLog()
		}
		rec, err := b.measure(cat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
		path := *out
		if path == "" {
			path = filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, *seed, *trace))
			_ = os.Remove(path)
		}
		if err := appendResult(path, root, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if err := b.print(rec, cat, path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// measure runs the workload inside a scratch directory and assembles the record.
func (b *bench) measure(cat *catalog) (*runRecord, error) {
	tmp, err := os.MkdirTemp(b.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	b.tmp = tmp
	defer os.RemoveAll(tmp)

	if b.workload == "serve_mixed" {
		err = b.runServeWorkload()
	} else {
		err = b.runCLIWorkload(b.workload)
	}
	if err != nil {
		return nil, err
	}

	want := cat.EndToEnd
	if b.trace {
		want = cat.PerLayer
		b.put("cli.build_s", b.buildS, "s", "go build of cmd/prioplus-sim in this run (near 0 when up to date)")
		b.runLayers()
		tracePath := filepath.Join(b.buildDir, "results", fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
		if err := b.spans.write(tracePath); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spans: %s\n", tracePath)
	}
	// The record carries exactly the catalogue's metrics for this mode.
	final := map[string]metric{}
	for _, def := range want {
		m, ok := b.metrics[def.Name]
		switch {
		case ok:
			m.Unit = def.Unit
		case b.trace:
			m = metric{notMeasured, def.Unit}
		default:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", def.Name)
		}
		final[def.Name] = m
	}
	return &runRecord{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.trace,
		Correct: b.tally.failed == 0, Attempted: b.tally.attempted, Failed: b.tally.failed,
		Metrics: final, Failures: b.tally.msgs,
	}, nil
}

// print writes the human-readable table in catalogue order, then the
// one-line JSON result the driver reads as the last line of standard output.
func (b *bench) print(rec *runRecord, cat *catalog, path string) error {
	fmt.Printf("== %s  seed=%d  seconds=%g  trace=%t\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	defs := cat.EndToEnd
	if rec.Trace {
		defs = cat.PerLayer
	}
	for _, def := range defs {
		m := rec.Metrics[def.Name]
		if _, measured := b.metrics[def.Name]; !measured {
			fmt.Printf("  %-34s %14s %-6s not measured by this workload's traced run\n", def.Name, "-", m.Unit)
			continue
		}
		fmt.Printf("  %-34s %14.6g %-6s %s\n", def.Name, m.Value, m.Unit, b.notes[def.Name])
	}
	frac := float64(rec.Failed) / float64(max(rec.Attempted, 1))
	fmt.Printf("  %-34s %14.6g %-6s %d of %d ops failed\n", "failed_frac", frac, "ratio", rec.Failed, rec.Attempted)
	for _, msg := range rec.Failures {
		fmt.Printf("  FAILED: %s\n", msg)
	}
	fmt.Printf("result file: %s\n", path)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, rec.Metrics})
	if err != nil { // a NaN or Inf slipped into a metric
		return err
	}
	fmt.Println(string(line))
	return nil
}
