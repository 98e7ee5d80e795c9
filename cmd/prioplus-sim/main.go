// Command prioplus-sim runs the paper's experiments from the command line:
//
//	prioplus-sim <experiment> [flags]
//	prioplus-sim all [-parallel N] [-seeds a,b,c] [-json out.json]
//	prioplus-sim report out/*.jsonl
//
// Experiments (ids match DESIGN.md and the paper's figures/tables):
//
//	fig2 fig3a fig3b fig3c fig3d fig7 fig8 fig9 fig10a fig10b fig10c
//	fig10d fig11 fig12ab fig12c fig13 fig14 fig15 fig16 fig17 fig18
//	tab2 appd ablation ext-ecn ext-weighted faultsweep
//
// Use -full for paper-scale runs (slower); the default scale preserves the
// comparisons at a fraction of the runtime. The `all` subcommand fans every
// experiment across a worker pool (one private engine per run, so results
// are byte-identical whatever -parallel is) and reports wall-clock and
// events/sec. -cpuprofile/-memprofile write pprof profiles for either mode
// and for serve; in batch mode the profile covers the batch alone, which is
// what scripts/pgo.sh feeds the profile-guided build (default.pgo here).
//
// Observability (both single and batch mode, on the experiments that
// support it — the fat-tree, coflow, and incast scenarios): `-series out/`
// writes one timeline artifact (JSONL) per run into out/, `-hist` records
// streaming latency histograms and prints their summaries, and
// `-watchdog 256m` arms an in-flight-bytes watchdog that stops a runaway
// run and dumps the last trace events from the flight recorder. The
// `report` subcommand renders artifacts back into a text report; see
// docs/OBSERVABILITY.md.
//
// Determinism tooling: `-fingerprint` folds every dispatched event into a
// per-run digest chain (checkpointed into -series artifacts), `-audit`
// runs the conservation auditor, and the `diff` subcommand bisects two
// fingerprinted executions down to their first divergent event. The `all`
// subcommand's -fp-out/-fp-check write and enforce the committed
// fingerprint manifest (testdata/fingerprints.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"prioplus/internal/exp"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
)

// runOpts carries the per-run knobs shared by single and batch mode.
type runOpts struct {
	full   bool
	series bool // print inline time-series data where available
	seed   int64
	obs    obsOpts
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	expID := os.Args[1]
	switch expID {
	case "all":
		os.Exit(runAll(os.Args[2:]))
	case "report":
		os.Exit(runReport(os.Args[2:]))
	case "trace":
		os.Exit(runTrace(os.Args[2:]))
	case "watch":
		os.Exit(runWatch(os.Args[2:]))
	case "diff":
		os.Exit(runDiff(os.Args[2:]))
	case "serve":
		os.Exit(runServe(os.Args[2:]))
	}
	fs := flag.NewFlagSet(expID, flag.ExitOnError)
	full := fs.Bool("full", false, "run at the paper's full scale")
	seed := fs.Int64("seed", 1, "simulation seed")
	printSer := fs.Bool("print-series", false, "also print inline time-series data where available")
	obsFlags := addObsFlags(fs)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[2:])

	if err := validExperiment(expID); err != nil {
		fmt.Fprintln(os.Stderr, err)
		usage()
		os.Exit(2)
	}
	obsOpt, err := obsFlags.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var srv *stream.Server
	var st *runner.RunState
	if obsOpt.listen != "" {
		reg := &runner.Registry{}
		st = reg.Add(fmt.Sprintf("%s/seed=%d", expID, *seed), expID, *seed)
		srv = stream.NewServer(reg)
		if err := srv.Start(obsOpt.listen); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "live endpoints on http://%s (/metrics /runs /events)\n", srv.Addr())
		obsOpt.hub = srv.Hub
		obsOpt.live = st
	}
	if st != nil {
		st.Start()
	}
	runErr := runExperiment(expID, runOpts{full: *full, series: *printSer, seed: *seed, obs: obsOpt}, os.Stdout)
	if st != nil {
		msg := ""
		if runErr != nil {
			msg = runErr.Error()
		}
		st.Finish(msg)
	}
	if srv != nil {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

// obsFlagSet is the raw observability flag values before validation.
type obsFlagSet struct {
	seriesDir  *string
	hist       *bool
	watchdog   *string
	wdEvents   *int64
	runtime    *bool
	cost       *bool
	listen     *string
	traceFlows *int
	traceMatch *string
	traceEvery *int
	tracePkts  *int
	fingerp    *bool
	audit      *bool
	perturb    *uint64
}

// addObsFlags registers the shared observability flags on fs.
func addObsFlags(fs *flag.FlagSet) obsFlagSet {
	return obsFlagSet{
		seriesDir:  fs.String("series", "", "write per-run timeline artifacts (JSONL) into this directory"),
		hist:       fs.Bool("hist", false, "record streaming histograms (FCT, fabric delay, ACK RTT) and print summaries"),
		watchdog:   fs.String("watchdog", "", "in-flight bytes ceiling (e.g. 256m); tripping stops the run and dumps the flight recorder"),
		wdEvents:   fs.Int64("watchdog-events", 0, "event-heap size ceiling for the watchdog (0 = off)"),
		runtime:    fs.Bool("runtime", false, "merge host-process gauges (RSS, GC, events/sec) into the series; makes artifacts wall-clock dependent"),
		cost:       fs.Bool("cost", false, "attribute sampled per-event execution cost by event kind (artifact metrics + /metrics)"),
		listen:     fs.String("listen", "", "serve live endpoints on this address (/metrics, /runs, /events SSE); e.g. :8080"),
		traceFlows: fs.Int("trace-flows", 0, "flow-trace up to N flows (packet journeys + CC decision audit; needs -series)"),
		traceMatch: fs.String("trace-match", "", "flow-trace exactly these comma-separated flow ids (needs -series)"),
		traceEvery: fs.Int("trace-every", 0, "with -trace-flows, admit only a 1-in-K hash sample of flow ids"),
		tracePkts:  fs.Int("trace-packets", 0, "journey-stamp every Kth data packet of a traced flow (default 16, 1 = all)"),
		fingerp:    fs.Bool("fingerprint", false, "fold every dispatched event into a digest chain and print the run fingerprint"),
		audit:      fs.Bool("audit", false, "run conservation audits on the sampler clock (packet, byte, PFC accounting); a violation stops the run"),
		perturb:    fs.Uint64("perturb", 0, "deliberately inflate the Nth delay-noise draw by 1us (micro experiments; for testing diff)"),
	}
}

// resolve validates the flag values and prepares the -series directory.
func (f obsFlagSet) resolve() (obsOpts, error) {
	var maxBytes int64
	if *f.watchdog != "" {
		var err error
		maxBytes, err = parseBytes(*f.watchdog)
		if err != nil {
			return obsOpts{}, fmt.Errorf("-watchdog: %w", err)
		}
	}
	match, err := parseFlowList(*f.traceMatch)
	if err != nil {
		return obsOpts{}, fmt.Errorf("-trace-match: %w", err)
	}
	o := obsOpts{
		dir: *f.seriesDir, hist: *f.hist,
		maxBytes: maxBytes, maxEvents: *f.wdEvents,
		runtime: *f.runtime, cost: *f.cost, listen: *f.listen,
		traceFlows: *f.traceFlows, traceMatch: match,
		traceEvery: *f.traceEvery, tracePackets: *f.tracePkts,
		fingerprint: *f.fingerp, audit: *f.audit, perturb: *f.perturb,
	}
	if o.tracing() && o.dir == "" {
		return obsOpts{}, fmt.Errorf("flow tracing needs -series DIR: trace spans are only delivered through the timeline artifact")
	}
	if o.runtime && o.dir == "" && o.listen == "" {
		return obsOpts{}, fmt.Errorf("-runtime needs -series DIR or -listen ADDR: runtime gauges are delivered as timeline series")
	}
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return obsOpts{}, err
		}
	}
	return o, nil
}

// parseFlowList parses a comma-separated flow-id list ("" = none).
func parseFlowList(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad flow id %q", p)
		}
		out = append(out, id)
	}
	return out, nil
}

// runExperiment executes one experiment and writes its report to w. It
// returns an error for an unknown id or a failed observability-artifact
// write; experiment output (including the batch runner's captured per-run
// output) goes to w. The obs sink, when enabled, is wired into the
// experiments that run full network scenarios (incast, fat-tree, coflow);
// the analytic and micro experiments ignore it.
func runExperiment(expID string, o runOpts, w io.Writer) error {
	return runExperimentWith(expID, o, newObsSink(o.obs, expID, o.seed), w)
}

// runExperimentWith is runExperiment with a caller-supplied sink, so the
// diff subcommand can rerun an experiment and inspect the recorders (and
// their digest chains) afterwards instead of only seeing flushed text. The
// experiment itself is resolved through the exp registry; this function
// only translates the CLI's flag bundle into exp.RunParams and flushes the
// sink afterwards.
func runExperimentWith(expID string, o runOpts, sink *obsSink, w io.Writer) error {
	spec, ok := exp.Lookup(expID)
	if !ok {
		return fmt.Errorf("unknown experiment %q", expID)
	}
	p := exp.RunParams{Seed: o.seed, Full: o.full, Series: o.series, Perturb: o.obs.perturb}
	// A nil *obsSink must become a nil interface, not a typed nil the
	// drivers would dereference.
	var s exp.Sink
	if sink != nil {
		s = sink
	}
	if err := spec.Run(p, s, w); err != nil {
		return err
	}
	if sink != nil {
		return sink.flush(w)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prioplus-sim <experiment> [-full] [-seed N] [-print-series] [obs flags] [-cpuprofile f] [-memprofile f]
       prioplus-sim all [-parallel N] [-seeds a,b,c] [-only ids] [-json out.json] [-timeout d] [-full] [-fp-out f] [-fp-check f] [obs flags] [-cpuprofile f] [-memprofile f]
       prioplus-sim serve [-listen ADDR] [-workers N] [-queue N] [-job-timeout d] [-cache N] [-manifest f] [-cpuprofile f] [-memprofile f]
       prioplus-sim report [-width N] file.jsonl|dir...
       prioplus-sim trace [-flows a,b] [-journeys K] [-width N] file.jsonl|dir...
       prioplus-sim watch [-interval d] [-once] ADDR
       prioplus-sim diff A.jsonl B.jsonl
       prioplus-sim diff -exp ID [-seed N] [-full] [-perturb D] A.jsonl

obs flags (network experiments only; see docs/OBSERVABILITY.md):
  -series DIR       write one timeline artifact (JSONL) per run into DIR
  -hist             record streaming histograms (FCT, fabric delay, ACK RTT)
  -watchdog BYTES   in-flight-bytes ceiling; tripping stops the run and
                    dumps the flight recorder (e.g. -watchdog 256m)
  -watchdog-events N  event-heap ceiling for the watchdog
  -listen ADDR      serve live endpoints while running: /metrics (process
                    gauges + cost attribution), /runs (batch state), and
                    /events (artifact lines as SSE, byte-identical to the
                    -series files); watch renders them as a dashboard
  -runtime          merge host-process gauges (RSS, heap, GC, events/sec,
                    wall-vs-sim) into the series; artifacts become
                    wall-clock dependent, so keep it off when comparing
  -cost             sampled per-event-kind cost attribution (artifact
                    metrics cost/<kind>/{samples,ns} and /metrics)
  -trace-flows N    flow-trace up to N flows: per-packet hop journeys and
                    the CC decision audit, delivered via -series artifacts
                    and rendered by the trace subcommand
  -trace-match IDS  flow-trace exactly these comma-separated flow ids
  -trace-every K    with -trace-flows, admit a deterministic 1-in-K sample
  -trace-packets K  journey-stamp every Kth data packet (default 16)
  -fingerprint      fold every dispatched event into a per-run digest
                    chain; prints the run fingerprint and writes ckpt
                    lines into -series artifacts (for diff / -fp-check)
  -audit            conservation auditor on the sampler clock (packet
                    pool, shared-buffer sums, PFC symmetry); a violation
                    stops the run and dumps the flight recorder
  -perturb D        inflate the D-th delay-noise draw by 1us — a
                    controlled divergence for exercising diff

experiments (from the exp registry; suite order):`)
	for _, s := range exp.Specs() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", s.ID, s.Describe)
	}
	fmt.Fprintln(os.Stderr, `
subcommands:
  all          every experiment above, fanned across a worker pool
  serve        long-running job server: POST experiment specs to /jobs,
               poll status, fetch byte-stable results (deterministic
               result cache; see docs/API.md)
  report       render -series artifacts as a text report
  trace        render flow-trace artifacts as causal per-flow timelines
  watch        live terminal dashboard over a -listen ADDR endpoint
  diff         compare two fingerprinted artifacts, or an artifact vs a
               live rerun, and name the first divergent event (see
               docs/OBSERVABILITY.md, "Bisecting a divergence")`)
}
