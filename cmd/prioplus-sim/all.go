package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"prioplus/internal/exp"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
	"prioplus/internal/sim"
)

// runAll is the `prioplus-sim all` subcommand: it fans (experiment, seed)
// runs across a worker pool and reports per-run wall-clock plus batch
// events/sec. Every run owns a private engine, so per-run output is
// byte-identical whatever -parallel is. Returns the process exit code.
func runAll(args []string) int {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs (1 = serial)")
	seedsArg := fs.String("seeds", "1", "comma-separated seeds; every experiment runs once per seed")
	onlyArg := fs.String("only", "", "comma-separated subset of experiment ids (default: all)")
	jsonOut := fs.String("json", "", "write per-run results to this file as JSON")
	timeout := fs.Duration("timeout", 0, "per-run wall-clock limit (0 = none)")
	full := fs.Bool("full", false, "run at the paper's full scale")
	progress := fs.Bool("progress", true, "write a live progress line to stderr as runs complete")
	fpOut := fs.String("fp-out", "", "write a fingerprint manifest (run name -> output hash) to this file; implies -fingerprint")
	fpCheck := fs.String("fp-check", "", "check every run's output hash against this manifest; implies -fingerprint")
	obsFlags := addObsFlags(fs)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(args)

	ins, err := obsFlags.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *fpOut != "" || *fpCheck != "" {
		ins.Fingerprint = true
	}

	ids := exp.IDs()
	if *onlyArg != "" {
		ids = strings.Split(*onlyArg, ",")
		for _, id := range ids {
			if err := validExperiment(id); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
	}
	seeds, err := parseSeeds(*seedsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// -listen: register every run up front so /runs shows pending tasks,
	// and tee artifact lines into the server's hub for /events.
	var runs *runner.RunTable
	if obsFlags.listen != "" {
		var srv *stream.Server
		srv, runs, err = startLive(obsFlags.listen, liveBanner, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		ins.Hub = srv.Hub
	}

	var tasks []runner.Task
	var states []*runner.RunEntry // parallel to tasks; nil without -listen
	// Every run's parameters, but for its seed.
	params := exp.RunParams{Full: *full, Perturb: obsFlags.perturb}
	for _, id := range ids {
		for _, seed := range seeds {
			name := fmt.Sprintf("%s/seed=%d", id, seed)
			p, taskIns := params, ins
			p.Seed = seed
			if runs != nil {
				taskIns.Live = runs.Add(name, id, seed)
				states = append(states, taskIns.Live)
			}
			tasks = append(tasks, runner.Task{
				Name: name,
				Run: func() (string, map[string]float64) {
					if taskIns.Live != nil {
						taskIns.Live.Start()
					}
					var buf bytes.Buffer
					// Ids are validated above, so the only errors left are
					// artifact writes and audit violations; the panic lands
					// in Result.Err and fails just this run.
					if _, err := serve.Execute(id, p, taskIns, &buf); err != nil {
						panic(err)
					}
					return buf.String(), nil
				},
			})
		}
	}

	opts := runner.Options{Workers: *parallel, Timeout: *timeout}
	// OnResult calls are serialized by the runner, so the counter and
	// the stderr line need no extra locking. Run states finish here, not
	// in the task closure, so timed-out runs are marked failed too.
	done := 0
	opts.OnResult = func(r runner.Result) {
		if states != nil {
			states[r.Index].Finish(errText(r.Err))
		}
		if !*progress {
			return
		}
		done++
		status := "ok"
		if r.Err != nil {
			status = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "\r[%d/%d] %-24s %-4s", done, len(tasks), r.Name, status)
	}
	// The profile window is exactly the batch: started after set-up and
	// stopped before reporting, so every exit path below has its profiles
	// and scripts/pgo.sh samples simulation, not JSON encoding.
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	startEvents := sim.TotalEvents()
	startDispatched := sim.TotalProcessed()
	startWall := time.Now()
	results := runner.Run(tasks, opts)
	wall := time.Since(startWall)
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "\r%*s\r", 40, "")
	}
	// Two event bases (see sim.TotalEvents): "events" is the logical count,
	// stable across engine optimizations; "dispatched" is raw dispatches,
	// which elision optimizations shrink. Rates use the logical basis.
	events := sim.TotalEvents() - startEvents
	dispatched := sim.TotalProcessed() - startDispatched

	failures := 0
	fps := map[string]string{} // run name -> output fingerprint (with -fingerprint)
	for _, r := range results {
		status := "ok"
		if r.Err != nil {
			status = "FAIL: " + r.Err.Error()
			failures++
		}
		fp := ""
		if ins.Fingerprint && r.Err == nil {
			fps[r.Name] = serve.OutputFingerprint(r.Output)
			fp = " fp=" + fps[r.Name]
		}
		fmt.Printf("== %-20s %10.2fms  %s%s\n", r.Name, float64(r.Wall.Microseconds())/1000, status, fp)
		if r.Output != "" {
			fmt.Print(indent(r.Output))
		}
	}
	fmt.Printf("\n%d/%d runs ok, %d workers, wall %.2fs, %d logical events (%d dispatched), %.3gM events/sec (logical basis)\n",
		len(results)-failures, len(results), *parallel, wall.Seconds(),
		events, dispatched, float64(events)/wall.Seconds()/1e6)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results, seeds, *parallel, *full, wall, events, dispatched, fps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *fpOut != "" {
		if err := serve.WriteManifest(*fpOut, fps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("fingerprint manifest: %d runs written to %s\n", len(fps), *fpOut)
	}
	if *fpCheck != "" {
		if err := checkFingerprints(*fpCheck, params, fps); err != nil {
			fmt.Fprintln(os.Stderr, "fingerprint check FAILED:", err)
			return 1
		}
		fmt.Printf("fingerprint check: all %d runs match %s\n", len(fps), *fpCheck)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// checkFingerprints is the -fp-check gate: every fingerprint of this batch
// (run name -> output hash, run with params plus the name's seed) must match
// the manifest at path. A run the manifest does not cover fails too (the
// manifest must be regenerated when experiments are added); manifest entries
// not run this batch (a -only or -seeds subset) are ignored.
func checkFingerprints(path string, params exp.RunParams, fps map[string]string) error {
	m, err := serve.LoadManifest(path)
	if err != nil {
		return err
	}
	var bad []string
	for name, fp := range fps {
		if err := m.Check(name, params, fp); err != nil {
			bad = append(bad, err.Error())
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("%d of %d runs diverged:\n  %s\n(bisect one with: prioplus-sim diff -exp ID -seed N ARTIFACT.jsonl)",
			len(bad), len(fps), strings.Join(bad, "\n  "))
	}
	return nil
}

// validExperiment resolves id against the exp registry — the single
// source of truth for experiment ids since the spec-registry refactor.
func validExperiment(id string) error {
	if _, ok := exp.Lookup(id); !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds value %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

func indent(s string) string {
	out := "   " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n   ")
	return out + "\n"
}

// runJSON is one run in the -json report. Output is the run's full text,
// byte-identical for any -parallel value.
type runJSON struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Output string  `json:"output,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Fingerprint is the FNV-64a hash of Output, present with -fingerprint
	// (see the fingerprint manifest); the per-run digest chains are inside
	// Output as '# fingerprint' lines.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// eventsBasis documents the two event counters in batchJSON, so readers of
// archived batch reports know which numbers are comparable across builds.
const eventsBasis = "events counts logical events (dispatched + elided transmitter wake-ups), stable across engine optimizations; events_dispatched counts raw dispatches, which elision shrinks; events_per_sec uses the logical basis"

type batchJSON struct {
	Full     bool    `json:"full"`
	Parallel int     `json:"parallel"`
	Seeds    []int64 `json:"seeds"`
	WallMS   float64 `json:"wall_ms"`
	// Events is the logical event count; EventsDispatched the raw dispatch
	// count; EventsBasis explains the difference (see sim.TotalEvents).
	Events           uint64    `json:"events"`
	EventsDispatched uint64    `json:"events_dispatched"`
	EventsBasis      string    `json:"events_basis"`
	EventsPerSec     float64   `json:"events_per_sec"`
	Runs             []runJSON `json:"runs"`
}

func writeJSON(path string, results []runner.Result, seeds []int64, parallel int, full bool, wall time.Duration, events, dispatched uint64, fps map[string]string) error {
	doc := batchJSON{
		Full:             full,
		Parallel:         parallel,
		Seeds:            seeds,
		WallMS:           float64(wall.Microseconds()) / 1000,
		Events:           events,
		EventsDispatched: dispatched,
		EventsBasis:      eventsBasis,
		EventsPerSec:     float64(events) / wall.Seconds(),
	}
	for _, r := range results {
		rj := runJSON{Name: r.Name, WallMS: float64(r.Wall.Microseconds()) / 1000, Output: r.Output,
			Fingerprint: fps[r.Name]}
		if r.Err != nil {
			rj.Error = r.Err.Error()
		}
		doc.Runs = append(doc.Runs, rj)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// startProfiles starts CPU profiling and/or arranges a heap profile; the
// returned function stops the CPU profile and writes the heap profile.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
