package exp

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prioplus/internal/obs"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// withProcs runs f under GOMAXPROCS n, restoring the old value after.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// together runs a two-cell fan-out whose cells each wait, up to a deadline,
// for the other to start. It reports whether they met: whether a helper ran
// one cell while the caller ran the other.
func together() bool {
	var started atomic.Int32
	met := cells(Options{}, 2, func(int, Options) bool {
		started.Add(1)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if started.Load() == 2 {
				return true
			}
			time.Sleep(100 * time.Microsecond)
		}
		return false
	})
	return met[0] && met[1]
}

//go:noinline
func panicInCell(i int) int {
	panic(fmt.Sprintf("boom in cell %d", i))
}

// orderSink is a Sink that keeps what it was asked: asked is the tags of the
// runs it handed out, in the order they asked, and listed the same tags put
// in figure order by Order. twice names a tag asked for a second time, which
// the CLI's sink rejects. With digest set, each run's recorder arms the
// per-event digest chain.
type orderSink struct {
	digest bool
	mu     sync.Mutex
	tags   map[*obs.Recorder]string
	asked  []string
	listed []string
	recs   []*obs.Recorder // in listed order
	twice  string
}

func (s *orderSink) Recorder(tag string) *obs.Recorder {
	rec := obs.NewRecorder()
	if s.digest {
		rec.Digest = sim.NewDigest()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tags == nil {
		s.tags = map[*obs.Recorder]string{}
	}
	if slices.Contains(s.asked, tag) {
		s.twice = tag
	}
	s.tags[rec] = tag
	s.asked = append(s.asked, tag)
	return rec
}

func (s *orderSink) Order(cells [][]*obs.Recorder) {
	for _, recs := range cells {
		for _, rec := range recs {
			s.listed = append(s.listed, s.tags[rec])
			s.recs = append(s.recs, rec)
		}
	}
}

// chains lists the runs in figure order with their digest chains.
func (s *orderSink) chains() string {
	var b strings.Builder
	for i, rec := range s.recs {
		fmt.Fprintf(&b, "# %s events=%d chain=%016x\n", s.listed[i], rec.Digest.Count, rec.Digest.Chain)
	}
	return b.String()
}

// recorderSink hands out the recorders of an instrumented spec run, and
// lists its runs in the order they asked.
type recorderSink func(tag string) *obs.Recorder

func (f recorderSink) Recorder(tag string) *obs.Recorder { return f(tag) }
func (recorderSink) Order([][]*obs.Recorder)             {}

// TestCellsOrderAndBudget: results come back in index order whoever ran
// them; with GOMAXPROCS 1 there is no helper, with 2 there is one unless the
// runs in progress hold both cores; and a registered spec holds a core while
// it runs.
func TestCellsOrderAndBudget(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			got := cells(Options{}, 50, func(i int, _ Options) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("GOMAXPROCS %d: cell %d = %d, want %d", procs, i, v, i*i)
				}
			}
		})
	}
	withProcs(1, func() {
		cells(Options{}, 8, func(i int, _ Options) int {
			if h := heldCores(); h != 1 {
				t.Errorf("GOMAXPROCS 1: cell %d ran with %d cores held, want its caller's one: a serial run", i, h)
			}
			return 0
		})
	})
	withProcs(2, func() {
		if !together() {
			t.Error("GOMAXPROCS 2: the two cells never ran at once")
		}
		exec.hold(2) // two runs of a batch hold both cores
		cells(Options{}, 8, func(i int, _ Options) int {
			if h := heldCores(); h != 2 {
				t.Errorf("cell %d ran with %d cores held while two runs held both, want no helper", i, h)
			}
			return 0
		})
		exec.hold(-2)
		spec, _ := Lookup("fig10b")
		held := false
		sink := recorderSink(func(string) *obs.Recorder {
			held = heldCores() == 1
			return nil
		})
		if err := spec.Run(spec.Defaults, sink, nil, io.Discard); err != nil || !held || heldCores() != 0 {
			t.Errorf("fig10b: err %v, held a core while running %v, %d cores held after, want a core held and released", err, held, heldCores())
		}
	})
}

// TestCellsStartOrder: a run starts its cells in the given order and returns
// them in index order; an instrumented one, which asks the sink for
// recorders in start order, has the sink list its runs in index order; and
// of two panicking cells the lower index surfaces, though it started second.
func TestCellsStartOrder(t *testing.T) {
	start := []int{3, 0, 4, 1, 2}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			var (
				mu    sync.Mutex
				order []int
			)
			got := cells(Options{}, len(start), func(i int, _ Options) int {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return i * i
			}, start...)
			for i, v := range got {
				if v != i*i {
					t.Errorf("GOMAXPROCS %d: cell %d = %d, want %d", procs, i, v, i*i)
				}
			}
			if procs == 1 && fmt.Sprint(order) != fmt.Sprint(start) {
				t.Errorf("hooks-off cells started in order %v, want %v", order, start)
			}
		})
	}

	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			sink := &orderSink{}
			var (
				mu    sync.Mutex
				order []int
			)
			cells(specOptions(RunParams{}, sink, nil), len(start), func(i int, o Options) int {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				o.NewRecorder(fmt.Sprint(i))
				o.NewRecorder(fmt.Sprint(i, "b"))
				return 0
			}, start...)
			if procs == 1 && fmt.Sprint(order) != fmt.Sprint(start) {
				t.Errorf("instrumented cells started in order %v, want %v", order, start)
			}
			if got := fmt.Sprint(sink.listed); got != "[0 0b 1 1b 2 2b 3 3b 4 4b]" {
				t.Errorf("GOMAXPROCS %d: the sink lists the runs as %s, want index order", procs, got)
			}
		})
	}

	withProcs(2, func() {
		var started atomic.Int32
		recovered := func() (r any) {
			defer func() { r = recover() }()
			cells(Options{}, 2, func(i int, _ Options) int {
				started.Add(1)
				for deadline := time.Now().Add(5 * time.Second); started.Load() < 2 && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				return panicInCell(i)
			}, 1, 0)
			return nil
		}()
		err, ok := recovered.(error)
		if !ok {
			t.Fatalf("recovered %v (%T), want the cell's panic as an error", recovered, recovered)
		}
		if first, _, _ := strings.Cut(err.Error(), "\n"); first != "cell 0: boom in cell 0" {
			t.Errorf("two cells panicked, started 1 then 0; the panic reads %q, want cell 0's", first)
		}
	})
}

// TestCellsPanic: a panicking cell surfaces on the caller with the cell's
// value on the first line and its stack after, the same with hooks off or
// on; its siblings stop taking new cells; every held core comes back (a
// fan-out right after still gets its helper); and under runner.Run only
// that task fails.
func TestCellsPanic(t *testing.T) {
	withProcs(2, func() {
		const n = 1000
		for _, o := range []Options{{}, specOptions(RunParams{}, &orderSink{}, nil)} {
			var started atomic.Int32
			recovered := func() (r any) {
				defer func() { r = recover() }()
				cells(o, n, func(i int, _ Options) int {
					started.Add(1)
					if i == 0 {
						return panicInCell(i)
					}
					time.Sleep(100 * time.Microsecond)
					return i
				})
				return nil
			}()
			err, ok := recovered.(error)
			if !ok {
				t.Fatalf("recovered %v (%T), want the cell's panic as an error", recovered, recovered)
			}
			first, stack, _ := strings.Cut(err.Error(), "\n")
			if first != "cell 0: boom in cell 0" || !strings.Contains(stack, "panicInCell") {
				t.Errorf("instrumented %v: panic reads %q, want the cell's value, then its stack:\n%s", o.NewRecorder != nil, first, stack)
			}
			if s := started.Load(); s > n/10 {
				t.Errorf("instrumented %v: %d of %d cells started after cell 0 panicked, want the siblings stopped", o.NewRecorder != nil, s, n)
			}
		}
		if h := heldCores(); h != 0 {
			t.Errorf("%d cores still held after the fan-out returned", h)
		}
		if !together() {
			t.Error("a fan-out right after the panic got no helper")
		}

		task := func(name string, bad bool) runner.Task {
			return runner.Task{Name: name, Run: func() (string, map[string]float64) {
				sum := 0
				for _, v := range cells(Options{}, 6, func(i int, _ Options) int {
					if bad && i == 3 {
						return panicInCell(i)
					}
					return i
				}) {
					sum += v
				}
				return fmt.Sprint(sum), nil
			}}
		}
		res := runner.Run([]runner.Task{task("a", false), task("bad", true), task("c", false)}, runner.Options{Workers: 2})
		for i, r := range res {
			switch {
			case i == 1 && (r.Err == nil || !strings.Contains(r.Err.Error(), "panicInCell")):
				t.Errorf("task %s: Err = %v, want the cell's panic with its stack", r.Name, r.Err)
			case i != 1 && (r.Err != nil || r.Output != "15"):
				t.Errorf("task %s: output %q, err %v, want 15", r.Name, r.Output, r.Err)
			}
		}
	})
}

// TestFig16CellsMatchSerial: fig16's scheme cells give the same rows fanned
// out as one after another. Under -race it is the check that flow-scheduling
// cells share no state; a short horizon keeps it cheap there.
func TestFig16CellsMatchSerial(t *testing.T) {
	cfg := shortFlowSched(PrioPlusSwift(), 4)
	cfg.duration, cfg.drain = sim.Millisecond, 4*sim.Millisecond
	var serial, fanned []fig11Row
	withProcs(1, func() { serial = fig16(4, cfg) })
	withProcs(2, func() { fanned = fig16(4, cfg) })
	if s, f := fmt.Sprint(serial), fmt.Sprint(fanned); s != f {
		t.Errorf("fanned-out rows differ from serial ones:\n%s\nvs\n%s", f, s)
	}
}

// TestCellsRejectBadStart: a start order that is not a permutation of the
// cells' indices panics before any cell runs, naming n and the bad index.
func TestCellsRejectBadStart(t *testing.T) {
	for _, c := range []struct {
		start []int
		want  string
	}{
		{[]int{0, 2, 2}, "n=3 cells: index 2 repeated or out of range"},
		{[]int{0, 1}, "n=3 cells: index 2 missing"},
		{[]int{}, "n=3 cells: index 0 missing"},
		{[]int{0, 3, 1}, "n=3 cells: index 3 repeated or out of range"},
		{[]int{-1, 0, 1}, "n=3 cells: index -1 repeated or out of range"},
	} {
		ran := false
		recovered := func() (r any) {
			defer func() { r = recover() }()
			cells(Options{}, 3, func(int, Options) int { ran = true; return 0 }, c.start...)
			return nil
		}()
		if msg, _ := recovered.(string); !strings.Contains(msg, c.want) || ran {
			t.Errorf("start %v: recovered %v, a cell ran %v; want a panic naming %q before any cell", c.start, recovered, ran, c.want)
		}
	}
}

// tinyCoflow is a coflow config too short to matter: one millisecond of
// arrivals and no drain, for checks that look at which runs start when.
func tinyCoflow(o Options) CoflowConfig {
	cfg := DefaultCoflowConfig(PrioPlusSwift(), 0.7)
	cfg.Duration, cfg.Drain, cfg.Options = 200*sim.Microsecond, 0, o
	return cfg
}

// TestSchemeStartOrder: every driver whose cells are indexed by scheme
// starts them in schemeStart's order — the INT-stamping cell first, the
// unbounded-backlog cell last, the others in list order — seen as the order
// in which a one-core run's cells ask the sink for recorders. The drivers
// run the real scheme lists over horizons too short to matter.
func TestSchemeStartOrder(t *testing.T) {
	sweep := func(schemes []Scheme) func(o Options) {
		return func(o Options) {
			cfg := quickFaultSweepConfig(1)
			cfg.horizon, cfg.Options = 10*sim.Microsecond, o
			faultSweep(cfg, schemes)
		}
	}
	def := faultSweepSchemes()
	rev := slices.Clone(def)
	slices.Reverse(rev)
	sched := func(o Options, nprios int) flowSchedConfig {
		cfg := shortFlowSched(PrioPlusSwift(), nprios)
		cfg.duration, cfg.drain, cfg.Options = 100*sim.Microsecond, 0, o
		return cfg
	}
	fig14Schemes := []Scheme{PrioPlusSwift(), swiftPhysicalIdeal(), d2tcp(), noCCPhysicalIdeal()}
	for _, c := range []struct {
		name string
		run  func(o Options)
		want string
	}{
		{"faultsweep", sweep(def), "Physical+HPCC,PrioPlus+Swift,Physical+Swift,Physical+DCQCN"},
		{"faultsweep reversed", sweep(rev), "Physical+HPCC,Physical+Swift,PrioPlus+Swift,Physical+DCQCN"},
		{"fig16", func(o Options) { fig16(8, sched(o, 8)) },
			"Physical+HPCC/np=8,PrioPlus+Swift/np=8,PrioPlus+Swift/np=8/ackdata"},
		{"fig18", func(o Options) {
			cfg := tinyCoflow(o)
			cfg.maxInflight = 128 << 20
			Fig12Coflow(cfg, false, hpccPhysical(8), noCCPhysicalIdeal())
		}, "Physical+HPCC/load=0.7,baseline/Physical+Swift/load=0.7,Physical+Swift/load=0.7,PrioPlus+Swift/load=0.7,Physical* w/o CC/load=0.7"},
		{"fig14", func(o Options) { fig14(sched(o, 12), fig14Schemes) },
			"PrioPlus+Swift/np=12,Physical*+Swift/np=12,D2TCP/np=12,Physical* w/o CC/np=12"},
		{"neither flag: quick faultsweep", sweep(quickFaultSweepSchemes()), "PrioPlus+Swift,Physical+Swift"},
		{"neither flag: fig12ab at one load", func(o Options) { Fig12Coflow(tinyCoflow(o), false) },
			"baseline/Physical+Swift/load=0.7,Physical+Swift/load=0.7,PrioPlus+Swift/load=0.7"},
	} {
		withProcs(1, func() {
			sink := &orderSink{}
			c.run(specOptions(RunParams{}, sink, nil))
			if got := strings.Join(sink.asked, ","); got != c.want {
				t.Errorf("%s starts\n%s\nwant\n%s", c.name, got, c.want)
			}
		})
	}
}

// TestFanOutDriversSameBytes: the drivers that fan out their scheme or grid
// cells — the coflow family (fig12ab's two loads as one fan-out, fig17,
// fig18), fig12c, fig13 and fig14 — print the same bytes on two cores as on
// one, on reduced configs, hooks-off and fingerprinted: there every run's
// digest chain, listed in figure order, must match too, the figure lines
// must equal the hooks-off ones, and no tag may be handed out twice. fig18's
// uncontrolled cell still reports its watchdog stop, under a ceiling scaled
// to the reduced fabric. -short (the race detector's run) keeps to fig13 and
// fig14.
func TestFanOutDriversSameBytes(t *testing.T) {
	coflow := func(o Options, load float64) CoflowConfig {
		cfg := DefaultCoflowConfig(PrioPlusSwift(), load)
		cfg.Duration, cfg.Drain, cfg.Options = sim.Millisecond, 5*sim.Millisecond, o
		return cfg
	}
	printRows := func(rows ...[]CoflowSpeedups) string {
		var b strings.Builder
		for _, r := range rows {
			printCoflow(&b, r)
		}
		return b.String()
	}
	sched := shortFlowSched(PrioPlusSwift(), 12)
	sched.load, sched.duration, sched.drain = 0.5, 200*sim.Microsecond, 500*sim.Microsecond
	for _, d := range []struct {
		name string
		slow bool
		run  func(o Options) string
	}{
		{"fig12ab", true, func(o Options) string {
			return printRows(coflowLoads([]CoflowConfig{coflow(o, 0.4), coflow(o, 0.7)}, false)...)
		}},
		{"fig18", true, func(o Options) string {
			cfg := coflow(o, 0.7)
			cfg.maxInflight = 16 << 20
			out := printRows(Fig12Coflow(cfg, false, hpccPhysical(8), noCCPhysicalIdeal()))
			if !strings.Contains(out, "Physical* w/o CC [watchdog: inflight_bytes]") {
				t.Errorf("fig18: no watchdog annotation on the uncontrolled row:\n%s", out)
			}
			return out
		}},
		{"fig12c", true, func(o Options) string {
			cfg := DefaultMLConfig(PrioPlusSwift())
			cfg.Duration, cfg.gradScale, cfg.Options = 10*sim.Millisecond, 64, o
			return fmt.Sprintf("%+v", fig12ML(cfg))
		}},
		{"fig13", false, func(o Options) string {
			return fmt.Sprintf("%+v", fig13(fig13Config{tolerancesUS: []float64{10}, rangesUS: []float64{0, 6, 40}}, o))
		}},
		{"fig14", false, func(o Options) string {
			cfg := sched
			cfg.Options = o
			return fmt.Sprintf("%+v", fig14(cfg, []Scheme{PrioPlusSwift(), swiftPhysicalIdeal(), d2tcp(), noCCPhysicalIdeal()}))
		}},
	} {
		if d.slow && testing.Short() {
			continue
		}
		var plain, fp [2]string
		for k, procs := range []int{1, 2} {
			withProcs(procs, func() {
				plain[k] = d.run(Options{})
				sink := &orderSink{digest: true}
				fig := d.run(specOptions(RunParams{}, sink, nil))
				if sink.twice != "" {
					t.Errorf("%s, GOMAXPROCS %d: two runs asked for the tag %q", d.name, procs, sink.twice)
				}
				if fig != plain[k] {
					t.Errorf("%s, GOMAXPROCS %d: fingerprinted figure lines\n%s\ndiffer from hooks-off\n%s", d.name, procs, fig, plain[k])
				}
				fp[k] = fig + sink.chains()
			})
		}
		if plain[0] != plain[1] {
			t.Errorf("%s: hooks-off output on two cores\n%s\ndiffers from one core's\n%s", d.name, plain[1], plain[0])
		}
		if fp[0] != fp[1] {
			t.Errorf("%s: fingerprinted output on two cores\n%s\ndiffers from one core's\n%s", d.name, fp[1], fp[0])
		}
	}
}
