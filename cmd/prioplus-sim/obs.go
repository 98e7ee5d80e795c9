package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"prioplus/internal/exp"
	"prioplus/internal/obs"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// flightSize is the flight recorder's ring capacity: the most recent trace
// events kept for the post-mortem dump when a watchdog trips.
const flightSize = 4096

// obsOpts carries the observability flags shared by single and batch mode.
// The zero value disables everything.
type obsOpts struct {
	dir       string // -series: artifact JSONL directory ("" = off)
	hist      bool   // -hist: streaming histograms plus printed summaries
	maxBytes  int64  // -watchdog: in-flight bytes ceiling (0 = off)
	maxEvents int64  // -watchdog-events: event-heap ceiling (0 = off)
	runtime   bool   // -runtime: merge host-process gauges into the series
	cost      bool   // -cost: sampled per-event-kind cost attribution
	listen    string // -listen: live HTTP endpoint address ("" = off)

	traceFlows   int     // -trace-flows: flow-trace cap (0 = off)
	traceMatch   []int64 // -trace-match: explicit flow ids to trace
	traceEvery   int     // -trace-every: 1-in-K hash sample of flow ids
	tracePackets int     // -trace-packets: journey stride (0 = default 16)

	fingerprint bool   // -fingerprint: per-event digest chain + run fingerprint
	audit       bool   // -audit: conservation auditor on the sampler clock
	perturb     uint64 // -perturb: inflate the Nth delay-noise draw (0 = off)

	// windowLo/windowHi arm full-event window recording on the digest
	// ([lo, hi) in dispatch counts). Set by the diff subcommand's rerun
	// phase, not by flags.
	windowLo, windowHi uint64

	// hub and live are wired by main/runAll after resolve, not by flags:
	// hub tees artifact lines to /events subscribers, live receives this
	// run's progress gauges for /runs.
	hub  *stream.Hub
	live *runner.RunState
}

func (o obsOpts) enabled() bool {
	return o.dir != "" || o.hist || o.maxBytes > 0 || o.maxEvents > 0 ||
		o.runtime || o.cost || o.hub != nil || o.live != nil || o.tracing() ||
		o.fingerprint || o.audit
}

// tracing reports whether flow tracing was requested.
func (o obsOpts) tracing() bool {
	return o.traceFlows > 0 || len(o.traceMatch) > 0
}

// obsSink hands out per-run recorders during one experiment invocation,
// writes each run's artifact as soon as that run's metrics are collected,
// and at flush time prints the summaries. One experiment may own several
// runs (a figure's sweep of schemes and priority counts), so recorders are
// keyed by run tag. A sink belongs to a single runExperiment call and needs
// no locking.
type obsSink struct {
	opts obsOpts
	exp  string
	seed int64
	runs []*obsRun
	seen map[string]int // filename stems already issued, for dedupe
}

// obsSink implements exp.Sink, so the registry's Run funcs can pull
// recorders from it without depending on the CLI's flag types.
var _ exp.Sink = (*obsSink)(nil)

type obsRun struct {
	tag  string
	stem string // artifact basename, unique within the sink
	rec  *obs.Recorder

	// Set by finish: the run's files are written, and post is the
	// post-mortem line flush prints if the run stopped early.
	finished bool
	post     string
	err      error
}

// newObsSink returns nil when every observability flag is off, so callers
// can gate wiring on a single nil check.
func newObsSink(opts obsOpts, exp string, seed int64) *obsSink {
	if !opts.enabled() {
		return nil
	}
	return &obsSink{opts: opts, exp: exp, seed: seed, seen: map[string]int{}}
}

// Recorder builds the recorder for one run, enabling only the instruments
// the flags asked for. It implements exp.Sink — the factory shape the exp
// drivers and configs expect (FlowSchedConfig.ObsFor and friends); the
// sink keeps every recorder it hands out so flush can summarize them after
// the experiment finishes.
func (s *obsSink) Recorder(tag string) *obs.Recorder {
	rec := obs.NewRecorder()
	if s.opts.dir != "" || s.opts.hub != nil {
		rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
	}
	if s.opts.runtime && rec.Series != nil {
		rec.Runtime = &obs.RuntimeSampler{}
	}
	if s.opts.cost {
		rec.Cost = &obs.CostProfiler{}
	}
	if s.opts.live != nil {
		rec.Live = &s.opts.live.Live
		s.opts.live.SetPhase(tag)
	}
	if s.opts.hist {
		rec.Hist = obs.NewHistSet()
	}
	if s.opts.maxBytes > 0 || s.opts.maxEvents > 0 {
		rec.Watchdog = &obs.Watchdog{
			MaxInflightBytes: s.opts.maxBytes,
			MaxHeapEvents:    s.opts.maxEvents,
		}
		rec.Flight = obs.NewFlightRecorder(flightSize)
	}
	if s.opts.tracing() {
		n := s.opts.traceFlows
		if n < len(s.opts.traceMatch) {
			n = len(s.opts.traceMatch) // -trace-match alone sizes its own cap
		}
		ft := obs.NewFlowTracer(n)
		ft.Match = s.opts.traceMatch
		ft.Every = s.opts.traceEvery
		ft.PacketEvery = s.opts.tracePackets
		rec.FlowTrace = ft
	}
	if s.opts.fingerprint {
		rec.Digest = sim.NewDigest()
		if s.opts.windowHi > 0 {
			rec.Digest.SetWindow(s.opts.windowLo, s.opts.windowHi)
		}
	}
	if s.opts.audit {
		rec.Audit = &obs.Auditor{}
		if rec.Flight == nil {
			rec.Flight = obs.NewFlightRecorder(flightSize)
		}
	}
	run := &obsRun{tag: tag, stem: s.stem(tag), rec: rec}
	rec.OnCollected = func() { s.finish(run) }
	s.runs = append(s.runs, run)
	return rec
}

// stem returns a unique filesystem-safe basename for one run's artifacts.
func (s *obsSink) stem(tag string) string {
	base := obs.ArtifactStem(s.exp, tag, s.seed)
	s.seen[base]++
	if n := s.seen[base]; n > 1 {
		base += "-" + strconv.Itoa(n)
	}
	return base
}

// finish writes one run's files — the flight-recorder post-mortem if its
// watchdog tripped or its auditor violated, then the artifact JSONL into the
// -series directory and the live hub — and releases what only those needed.
// It runs when the run's metrics are collected, so a sweep holds one run's
// series and span rings at a time instead of all of them until flush; a
// driver that never collects is finished by flush. Errors wait in r.err.
func (s *obsSink) finish(r *obsRun) {
	if r.finished {
		return
	}
	r.finished = true
	// A run that stopped early gets one post-mortem dump, whatever stopped
	// it: the watchdog and the auditor share a sampler tick, so both can
	// fire in the same run, and they share the flight ring.
	tripped, violated := "", ""
	if wd := r.rec.Watchdog; wd != nil {
		tripped = wd.Tripped()
	}
	if aud := r.rec.Audit; aud != nil {
		violated = aud.Violation()
	}
	why := ""
	switch {
	case tripped != "" && violated != "":
		why = fmt.Sprintf("watchdog tripped (%s) and AUDIT VIOLATION in run %q: %s — engine stopped", tripped, r.tag, violated)
	case tripped != "":
		why = fmt.Sprintf("watchdog tripped (%s) in run %q: engine stopped", tripped, r.tag)
	case violated != "":
		why = fmt.Sprintf("AUDIT VIOLATION in run %q: %s — engine stopped", r.tag, violated)
	}
	if why != "" {
		path := filepath.Join(s.dumpDir(), r.stem+".flight.jsonl")
		n, err := dumpFlight(path, r.rec)
		if err != nil {
			r.err = err
			return
		}
		r.post = fmt.Sprintf("# %s, last %d trace events in %s\n", why, n, path)
	}
	if s.opts.dir != "" || s.opts.hub != nil {
		r.err = s.writeArtifact(r.stem, r.tag, r.rec)
	}
	// The sampled columns, the span rings and the flight ring are the
	// recorder's bulk, and the files above were their last reader.
	r.rec.Series, r.rec.FlowTrace, r.rec.Flight = nil, nil, nil
}

// flush finishes any run its driver did not, then prints, per run, the
// post-mortem line, the -hist summaries and the -fingerprint line to w (so
// batch mode captures them with the run output). A conservation violation
// is returned as an error after everything is written: unlike a watchdog
// trip (a configured resource ceiling doing its job) a violation means the
// simulator itself miscounted, so the run must fail.
func (s *obsSink) flush(w io.Writer) error {
	var violation error
	for _, r := range s.runs {
		s.finish(r)
		if r.err != nil {
			return r.err
		}
		io.WriteString(w, r.post)
		if aud := r.rec.Audit; aud != nil && aud.Violation() != "" && violation == nil {
			violation = fmt.Errorf("conservation audit violation in run %q: %s", r.tag, aud.Violation())
		}
		if s.opts.hist && r.rec.Hist != nil {
			for _, h := range r.rec.Hist.All() {
				if h.Count() == 0 {
					continue
				}
				fmt.Fprintf(w, "# hist %s %s (%s): n=%d mean=%.0f p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
					r.tag, h.Name, h.Unit, h.Count(), h.Mean(),
					h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max())
			}
		}
		if d := r.rec.Digest; d != nil {
			fmt.Fprintf(w, "# fingerprint %s chain=%016x events=%d\n", r.tag, d.Chain, d.Count)
		}
	}
	return violation
}

// dumpDir is where flight-recorder post-mortems land: the -series
// directory when one is configured, the working directory otherwise.
func (s *obsSink) dumpDir() string {
	if s.opts.dir != "" {
		return s.opts.dir
	}
	return "."
}

// writeArtifact emits one run's artifact to the -series file and/or the
// live hub. Both sinks see the same encoder output, so streamed lines are
// byte-identical to the on-disk artifact.
func (s *obsSink) writeArtifact(stem, tag string, rec *obs.Recorder) error {
	var ws []io.Writer
	var f *os.File
	if s.opts.dir != "" {
		var err error
		f, err = os.Create(filepath.Join(s.opts.dir, stem+".jsonl"))
		if err != nil {
			return err
		}
		ws = append(ws, f)
	}
	var lw *stream.LineWriter
	if s.opts.hub != nil {
		lw = s.opts.hub.ArtifactWriter(stem)
		ws = append(ws, lw)
	}
	err := obs.WriteArtifact(io.MultiWriter(ws...), tag, rec)
	if lw != nil {
		lw.Close()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// dumpFlight writes the run's flight ring to path, device ids resolved
// through the recorder's name table.
func dumpFlight(path string, rec *obs.Recorder) (int, error) {
	if rec.Flight == nil {
		return 0, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := rec.Flight.Dump(f, &rec.Devs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
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
