package serve

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"prioplus/internal/exp"
	"prioplus/internal/obs"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// flightSize is the flight recorder's ring capacity: the most recent trace
// events kept for the post-mortem dump when a watchdog trips.
const flightSize = 4096

// Instruments selects what one execution records. The CLI fills it from
// its obs flags and the scheduler from a JobSpec (Fingerprint on, Series
// when the spec asked for an artifact); the two differ only in where an
// artifact's bytes go. The zero value runs the experiment hooks-off.
type Instruments struct {
	// Series records the sampled timeline. Each run's artifact (JSONL) is
	// written as soon as that run's metrics are collected: into Dir when
	// it is set, into Run.Lines otherwise, and teed to Hub either way.
	Series bool
	// Dir is the -series directory; flight-recorder post-mortems land
	// there too, or in the working directory when it is empty.
	Dir string
	// Hub, when non-nil, receives artifact lines for /events subscribers.
	Hub *stream.Hub
	// Live, when non-nil, receives the run's progress gauges for /runs.
	Live *runner.RunEntry

	// Hist records streaming histograms and prints their summaries.
	Hist bool
	// MaxBytes and MaxEvents arm the watchdog (in-flight bytes, pending
	// events; 0 = off); tripping stops the run and dumps the flight ring.
	MaxBytes, MaxEvents int64
	// Runtime merges host-process gauges into the series.
	Runtime bool
	// Cost attributes sampled per-event execution cost by event kind.
	Cost bool

	// TraceFlows caps flow tracing (0 = off) and TraceMatch names flow ids
	// to trace; TraceEvery admits a 1-in-K hash sample of flow ids and
	// TracePackets is the journey stride (0 = the tracer's default).
	TraceFlows   int
	TraceMatch   []int64
	TraceEvery   int
	TracePackets int

	// Fingerprint folds every dispatched event into a digest chain and
	// prints the run fingerprint; WindowLo/WindowHi additionally record
	// every event in [lo, hi) dispatch counts (the diff rerun's phase 2).
	Fingerprint        bool
	WindowLo, WindowHi uint64
	// Audit runs the conservation auditor on the sampler clock.
	Audit bool
}

func (ins *Instruments) tracing() bool {
	return ins.TraceFlows > 0 || len(ins.TraceMatch) > 0
}

func (ins *Instruments) enabled() bool {
	return ins.Series || ins.Hist || ins.MaxBytes > 0 || ins.MaxEvents > 0 ||
		ins.Runtime || ins.Cost || ins.Live != nil || ins.tracing() ||
		ins.Fingerprint || ins.Audit
}

// Run is one run of an executed experiment. One experiment may own several
// (a figure's sweep of schemes and priority counts).
type Run struct {
	// Tag is the driver's name for the run ("incast", "pp/np=8").
	Tag string
	// Stem is the artifact basename, unique within the execution.
	Stem string
	// Rec is the run's recorder. Its Series, FlowTrace and Flight are
	// released once the run's files are written; the digest, histograms
	// and metrics stay.
	Rec *obs.Recorder
	// Lines is the run's artifact when Series was on without a Dir.
	Lines string

	// Set by finish: the run's files are written, and post is the
	// post-mortem line flush prints if the run stopped early.
	finished bool
	post     string
	err      error
}

// Execute is the one way an experiment runs — `prioplus-sim <id>`, a task of
// `all`, diff's rerun and a job-server compute all call it: look the spec
// up, run it with the instruments armed, and flush the per-run summaries
// ("# hist", "# fingerprint") to w after the figure output. It returns the
// runs in the order the experiment asked for their recorders, a fan-out's
// in its cells' order (sink.Order); an experiment that asks for one tag
// twice fails (sink.Recorder). With no
// instrument on the experiment gets a nil exp.Sink and the caller's memo
// (nil for none), and no run is returned; with any on it gets no memo.
// A conservation violation is returned as an error after everything is
// written: unlike a watchdog trip (a configured ceiling doing its job) it
// means the simulator itself miscounted, so the run must fail.
func Execute(id string, p exp.RunParams, ins Instruments, memo *exp.Memo, w io.Writer) ([]*Run, error) {
	spec, ok := exp.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	if !ins.enabled() {
		return nil, spec.Run(p, nil, memo, w)
	}
	s := &sink{ins: ins, exp: id, seed: p.Seed}
	if err := spec.Run(p, s, nil, w); err != nil {
		return s.runs, err
	}
	if s.err != nil {
		return s.runs, s.err
	}
	return s.runs, s.flush(w)
}

// sink is the exp.Sink of one Execute call: it hands out per-run recorders,
// writes each run's artifact as soon as that run's metrics are collected,
// and at flush time prints the summaries. A fanned-out figure's cells ask
// for recorders and finish runs from several goroutines at once; Order
// then puts their runs back in the figure's order.
type sink struct {
	ins  Instruments
	exp  string
	seed int64

	mu   sync.Mutex // guards runs and err
	runs []*Run
	err  error // the first run asked for under a taken name
}

var _ exp.Sink = (*sink)(nil)

// Recorder builds the recorder for one run, enabling only the instruments
// asked for. It implements exp.Sink.
func (s *sink) Recorder(tag string) *obs.Recorder {
	ins := &s.ins
	rec := obs.NewRecorder()
	if ins.Series {
		rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
		if ins.Runtime {
			rec.Runtime = &obs.RuntimeSampler{}
		}
	}
	if ins.Cost {
		rec.Cost = &obs.CostProfiler{}
	}
	if ins.Live != nil {
		rec.Live = &ins.Live.Live
		ins.Live.SetPhase(tag)
	}
	if ins.Hist {
		rec.Hist = obs.NewHistSet()
	}
	if ins.MaxBytes > 0 || ins.MaxEvents > 0 {
		rec.Watchdog = &obs.Watchdog{MaxInflightBytes: ins.MaxBytes, MaxHeapEvents: ins.MaxEvents}
	}
	if rec.Watchdog != nil || ins.Audit {
		rec.Flight = obs.NewFlightRecorder(flightSize)
	}
	if ins.tracing() {
		n := ins.TraceFlows
		if n < len(ins.TraceMatch) {
			n = len(ins.TraceMatch) // -trace-match alone sizes its own cap
		}
		ft := obs.NewFlowTracer(n)
		ft.Match = ins.TraceMatch
		ft.Every = ins.TraceEvery
		ft.PacketEvery = ins.TracePackets
		rec.FlowTrace = ft
	}
	if ins.Fingerprint {
		rec.Digest = sim.NewDigest()
		if ins.WindowHi > 0 {
			rec.Digest.SetWindow(ins.WindowLo, ins.WindowHi)
		}
	}
	if ins.Audit {
		rec.Audit = &obs.Auditor{}
	}
	// A tag names one run, and its stem one run's files: a second request
	// for a stem fails the execution, and its run goes unrecorded rather
	// than clobber the first run's files.
	stem := obs.ArtifactStem(s.exp, tag, s.seed)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.ContainsFunc(s.runs, func(r *Run) bool { return r.Stem == stem }) {
		if s.err == nil {
			s.err = fmt.Errorf("%s: run %q asked for twice; each run of an experiment needs its own tag", s.exp, tag)
		}
		return nil
	}
	run := &Run{Tag: tag, Stem: stem, Rec: rec}
	s.runs = append(s.runs, run)
	rec.OnCollected = func() { s.finish(run) }
	return rec
}

// Order lists the runs of a fan-out in the figure's order: cells[i] holds
// the recorders cell i received, in its own order. The runs keep the places
// in s.runs that their requests took and fill them in figure order, so the
// summary lines and the returned runs read as a serial run's would. It
// implements exp.Sink; exp's cells reports to it.
func (s *sink) Order(cells [][]*obs.Recorder) {
	rank := map[*obs.Recorder]int{} // a run's place in figure order
	for _, recs := range cells {
		for _, rec := range recs {
			rank[rec] = len(rank)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var slots []int
	var moved []*Run
	for i, r := range s.runs {
		if _, ok := rank[r.Rec]; ok {
			slots, moved = append(slots, i), append(moved, r)
		}
	}
	slices.SortFunc(moved, func(a, b *Run) int { return rank[a.Rec] - rank[b.Rec] })
	for k, i := range slots {
		s.runs[i] = moved[k]
	}
}

// finish writes one run's files — the flight-recorder post-mortem if its
// watchdog tripped or its auditor violated, then the artifact — and releases
// what only those needed. It runs when the run's metrics are collected, so a
// sweep holds one run's series and span rings at a time instead of all of
// them until flush; a driver that never collects is finished by flush.
// Errors wait in r.err.
func (s *sink) finish(r *Run) {
	if r.finished {
		return
	}
	r.finished = true
	// A run that stopped early gets one post-mortem dump, whatever stopped
	// it: the watchdog and the auditor share a sampler tick, so both can
	// fire in the same run, and they share the flight ring.
	tripped, violated := "", ""
	if wd := r.Rec.Watchdog; wd != nil {
		tripped = wd.Tripped()
	}
	if aud := r.Rec.Audit; aud != nil {
		violated = aud.Violation()
	}
	why := ""
	switch {
	case tripped != "" && violated != "":
		why = fmt.Sprintf("watchdog tripped (%s) and AUDIT VIOLATION in run %q: %s — engine stopped", tripped, r.Tag, violated)
	case tripped != "":
		why = fmt.Sprintf("watchdog tripped (%s) in run %q: engine stopped", tripped, r.Tag)
	case violated != "":
		why = fmt.Sprintf("AUDIT VIOLATION in run %q: %s — engine stopped", r.Tag, violated)
	}
	if why != "" {
		dir := s.ins.Dir
		if dir == "" {
			dir = "."
		}
		path := filepath.Join(dir, r.Stem+".flight.jsonl")
		// A driver can arm a watchdog of its own (fig18's uncontrolled
		// baseline) on a recorder that has no flight ring: nothing to dump.
		n := 0
		if r.Rec.Flight != nil {
			r.err = writeFile(path, func(f io.Writer) (err error) {
				n, err = r.Rec.Flight.Dump(f, &r.Rec.Devs) // device ids resolved through the name table
				return err
			})
			if r.err != nil {
				return
			}
		}
		r.post = fmt.Sprintf("# %s, last %d trace events in %s\n", why, n, path)
	}
	if s.ins.Series {
		r.err = s.writeArtifact(r)
	}
	// The sampled columns, the span rings and the flight ring are the
	// recorder's bulk, and the files above were their last reader.
	r.Rec.Series, r.Rec.FlowTrace, r.Rec.Flight = nil, nil, nil
}

// flush finishes any run its driver did not, then prints, per run, the
// post-mortem line, the histogram summaries and the fingerprint line to w
// (so a batch captures them with the run output).
func (s *sink) flush(w io.Writer) error {
	var violation error
	for _, r := range s.runs {
		s.finish(r)
		if r.err != nil {
			return r.err
		}
		io.WriteString(w, r.post)
		if aud := r.Rec.Audit; aud != nil && aud.Violation() != "" && violation == nil {
			violation = fmt.Errorf("conservation audit violation in run %q: %s", r.Tag, aud.Violation())
		}
		if r.Rec.Hist != nil {
			for _, h := range r.Rec.Hist.All() {
				if h.Count() == 0 {
					continue
				}
				fmt.Fprintf(w, "# hist %s %s (%s): n=%d mean=%.0f p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
					r.Tag, h.Name, h.Unit, h.Count(), h.Mean(),
					h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max())
			}
		}
		if d := r.Rec.Digest; d != nil {
			fmt.Fprintf(w, "# fingerprint %s chain=%016x events=%d\n", r.Tag, d.Chain, d.Count)
		}
	}
	return violation
}

// writeArtifact emits one run's artifact to its destination — the -series
// file or r.Lines — and the live hub. Both see the same encoder output, so
// streamed lines are byte-identical to the stored artifact.
func (s *sink) writeArtifact(r *Run) error {
	write := func(dst io.Writer) error {
		if s.ins.Hub != nil {
			lw := s.ins.Hub.ArtifactWriter(r.Stem)
			defer lw.Close()
			dst = io.MultiWriter(dst, lw)
		}
		return obs.WriteArtifact(dst, r.Tag, r.Rec)
	}
	if s.ins.Dir != "" {
		return writeFile(filepath.Join(s.ins.Dir, r.Stem+".jsonl"), write)
	}
	var captured bytes.Buffer
	err := write(&captured)
	r.Lines = captured.String() // a copy: an exact-size string, not the buffer's grown capacity
	return err
}

// writeFile creates path, has fill write it, and closes it; the first error
// wins.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
