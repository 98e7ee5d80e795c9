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
	"os"
	"strconv"
	"strings"

	"prioplus/internal/exp"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
)

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
	ins, err := obsFlags.resolve()
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
	if obsFlags.listen != "" {
		var runs *runner.RunTable
		srv, runs, err = startLive(obsFlags.listen, liveBanner, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ins.Hub = srv.Hub
		ins.Live = runs.Add(fmt.Sprintf("%s/seed=%d", expID, *seed), expID, *seed)
		ins.Live.Start()
	}
	p := exp.RunParams{Seed: *seed, Full: *full, Series: *printSer, Perturb: obsFlags.perturb}
	_, runErr := serve.Execute(expID, p, ins, os.Stdout)
	if srv != nil {
		ins.Live.Finish(errText(runErr))
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

// liveBanner announces the -listen endpoints of a single or batch run.
const liveBanner = "live endpoints on http://%s (/metrics /runs /events)\n"

// startLive stands up the -listen endpoints for single, batch and serve
// mode: a run table, the streaming server over it (its Hub tees artifact
// lines to /events) and the banner on stderr. mount, when non-nil, adds
// routes before the listener starts; serve mounts the job API there.
func startLive(addr, banner string, mount func(*stream.Server, *runner.RunTable)) (*stream.Server, *runner.RunTable, error) {
	runs := &runner.RunTable{}
	srv := stream.NewServer(runs)
	if mount != nil {
		mount(srv, runs)
	}
	if err := srv.Start(addr); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, banner, srv.Addr())
	return srv, runs, nil
}

// errText is the message a run state finishes with: empty means success.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// obsFlagSet is the shared observability flags. The ones that are plain
// instrument settings are parsed straight into ins; the rest need parsing
// (-watchdog, -trace-match) or are not instruments: -listen stands up the
// live server whose Hub and run state the caller wires in, and -perturb is
// a RunParam.
type obsFlagSet struct {
	ins        serve.Instruments
	watchdog   string
	traceMatch string
	listen     string
	perturb    uint64
}

// addObsFlags registers the shared observability flags on fs.
func addObsFlags(fs *flag.FlagSet) *obsFlagSet {
	f := &obsFlagSet{}
	fs.StringVar(&f.ins.Dir, "series", "", "write per-run timeline artifacts (JSONL) into this directory")
	fs.BoolVar(&f.ins.Hist, "hist", false, "record streaming histograms (FCT, fabric delay, ACK RTT) and print summaries")
	fs.StringVar(&f.watchdog, "watchdog", "", "in-flight bytes ceiling (e.g. 256m); tripping stops the run and dumps the flight recorder")
	fs.Int64Var(&f.ins.MaxEvents, "watchdog-events", 0, "pending-event ceiling for the watchdog (0 = off)")
	fs.BoolVar(&f.ins.Runtime, "runtime", false, "merge host-process gauges (RSS, GC, events/sec) into the series; makes artifacts wall-clock dependent")
	fs.BoolVar(&f.ins.Cost, "cost", false, "attribute sampled per-event execution cost by event kind (artifact metrics + /metrics)")
	fs.StringVar(&f.listen, "listen", "", "serve live endpoints on this address (/metrics, /runs, /events SSE); e.g. :8080")
	fs.IntVar(&f.ins.TraceFlows, "trace-flows", 0, "flow-trace up to N flows (packet journeys + CC decision audit; needs -series)")
	fs.StringVar(&f.traceMatch, "trace-match", "", "flow-trace exactly these comma-separated flow ids (needs -series)")
	fs.IntVar(&f.ins.TraceEvery, "trace-every", 0, "with -trace-flows, admit only a 1-in-K hash sample of flow ids")
	fs.IntVar(&f.ins.TracePackets, "trace-packets", 0, "journey-stamp every Kth data packet of a traced flow (default 16, 1 = all)")
	fs.BoolVar(&f.ins.Fingerprint, "fingerprint", false, "fold every dispatched event into a digest chain and print the run fingerprint")
	fs.BoolVar(&f.ins.Audit, "audit", false, "run conservation audits on the sampler clock (packet, byte, PFC accounting); a violation stops the run")
	fs.Uint64Var(&f.perturb, "perturb", 0, "deliberately inflate the Nth delay-noise draw by 1us (micro experiments; for testing diff)")
	return f
}

// resolve validates the parsed flags, prepares the -series directory and
// returns the instrument set they ask for.
func (f *obsFlagSet) resolve() (serve.Instruments, error) {
	ins, none := f.ins, serve.Instruments{}
	var err error
	if f.watchdog != "" {
		if ins.MaxBytes, err = parseBytes(f.watchdog); err != nil {
			return none, fmt.Errorf("-watchdog: %w", err)
		}
	}
	if ins.TraceMatch, err = parseFlowList(f.traceMatch); err != nil {
		return none, fmt.Errorf("-trace-match: %w", err)
	}
	ins.Series = ins.Dir != "" || f.listen != ""
	if (ins.TraceFlows > 0 || len(ins.TraceMatch) > 0) && ins.Dir == "" {
		return none, fmt.Errorf("flow tracing needs -series DIR: trace spans are only delivered through the timeline artifact")
	}
	if ins.Runtime && !ins.Series {
		return none, fmt.Errorf("-runtime needs -series DIR or -listen ADDR: runtime gauges are delivered as timeline series")
	}
	if ins.Dir != "" {
		if err := os.MkdirAll(ins.Dir, 0o755); err != nil {
			return none, err
		}
	}
	return ins, nil
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

// parseBytes parses a human-readable byte count: a plain integer with an
// optional k/m/g suffix (binary multiples), e.g. "64m", "2g", "65536".
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty byte count")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return v * mult, nil
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
  -watchdog-events N  pending-event ceiling for the watchdog
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
