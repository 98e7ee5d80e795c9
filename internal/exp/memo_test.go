package exp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prioplus/internal/fault"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// memoBatch is what one pass of a memo test printed, and what it cost.
type memoBatch struct {
	out        []string // each step's bytes
	events     uint64   // logical events (sim.TotalEvents)
	dispatched uint64   // raw dispatches (sim.TotalProcessed)
}

// runSteps runs steps one after another, each with the Options it is
// handed, and returns their bytes with the events the pass counted.
func runSteps(o Options, steps []func(o Options) string) memoBatch {
	ev, disp := sim.TotalEvents(), sim.TotalProcessed()
	var b memoBatch
	for _, step := range steps {
		b.out = append(b.out, step(o))
	}
	b.events, b.dispatched = sim.TotalEvents()-ev, sim.TotalProcessed()-disp
	return b
}

// checkTransparent runs steps without a memo and then with one, and fails
// unless every step prints the same bytes both ways and the memo pass
// counts the same logical events while dispatching fewer. It returns the
// memo, for the caller's hit and miss counts.
func checkTransparent(t *testing.T, names []string, steps []func(o Options) string) *Memo {
	t.Helper()
	memo := NewMemo(nil)
	off := runSteps(Options{}, steps)
	on := runSteps(Options{memo: memo}, steps)
	for i := range steps {
		if on.out[i] != off.out[i] {
			t.Errorf("%s: memo on printed\n%s\nmemo off printed\n%s", names[i], on.out[i], off.out[i])
		}
	}
	if hits, _ := memo.Stats(); hits > 0 && (on.events != off.events || on.dispatched >= off.dispatched) {
		t.Errorf("with %d memo hits: %d logical events (%d dispatched), without: %d (%d); want equal logical events, fewer dispatches",
			hits, on.events, on.dispatched, off.events, off.dispatched)
	}
	return memo
}

// TestMemoFaultSweepSeeds: faultsweep at seeds 1001–1004 in one batch,
// the registered spec's bytes, with the memo and without. Only the
// PrioPlus+Swift cell reads the seed, so the other three are computed once
// for the four seeds, and its later seeds may be computed ahead as twins.
// The batch's runs share the memo from two workers; -short (the race
// detector's run) sweeps the reduced two-scheme config.
func TestMemoFaultSweepSeeds(t *testing.T) {
	seeds := []int64{1001, 1002, 1003, 1004}
	spec, _ := Lookup("faultsweep")
	run := func(seed int64, memo *Memo) string {
		var buf bytes.Buffer
		if err := spec.Run(RunParams{Seed: seed}, nil, memo, &buf); err != nil {
			panic(err)
		}
		return buf.String()
	}
	cells, seedFree := uint64(4), uint64(3)
	if testing.Short() {
		run = func(seed int64, memo *Memo) string {
			cfg := quickFaultSweepConfig(seed)
			cfg.memo = memo
			return fmt.Sprintf("%+v", faultSweep(cfg))
		}
		cells, seedFree = 2, 1
	}
	batch := func(memo *Memo) []runner.Result {
		var tasks []runner.Task
		for _, seed := range seeds {
			tasks = append(tasks, runner.Task{Name: fmt.Sprint(seed), Run: func() (string, map[string]float64) {
				return run(seed, memo), nil
			}})
		}
		return runner.Run(tasks, runner.Options{Workers: 2})
	}
	off, memo := batch(nil), NewMemo(seeds)
	on := batch(memo)
	memo.Close(true)
	for i := range seeds {
		if on[i].Err != nil || off[i].Err != nil {
			t.Fatalf("seed %d: %v / %v", seeds[i], on[i].Err, off[i].Err)
		}
		if on[i].Output != off[i].Output {
			t.Errorf("seed %d: memo on printed\n%s\nmemo off printed\n%s", seeds[i], on[i].Output, off[i].Output)
		}
	}
	// The two workers may both compute a seed-free cell before either
	// stores it; the seeds after them hit. A seeded cell is computed once
	// per seed: by the first seed's run, and by a later seed's run unless
	// it was computed ahead as a twin, which the run is then served.
	n := uint64(len(seeds))
	seeded := n * (cells - seedFree)
	hits, misses := memo.Stats()
	if hits+misses != cells*n || misses < cells || misses > seeded+2*seedFree {
		t.Errorf("%d hits, %d misses over %d seeds of %d cells", hits, misses, n, cells)
	}
}

// TestMemoFig11ThenFig16: fig11 then fig16 at 8 priorities, reduced, with
// the memo and without: fig16's PrioPlus+Swift cell is fig11's.
func TestMemoFig11ThenFig16(t *testing.T) {
	base := shortFlowSched(PrioPlusSwift(), 8)
	base.duration, base.drain = sim.Millisecond, 4*sim.Millisecond
	rows := func(r []fig11Row) string {
		var b strings.Builder
		printFig11(&b, r)
		return b.String()
	}
	memo := checkTransparent(t, []string{"fig11", "fig16"}, []func(o Options) string{
		func(o Options) string { c := base; c.Options = o; return rows(fig11([]int{8}, c)) },
		func(o Options) string { c := base; c.Options = o; return rows(fig16(8, c)) },
	})
	if hits, misses := memo.Stats(); hits != 1 || misses != 5 {
		t.Errorf("%d hits, %d misses; want fig16's PrioPlus+Swift cell served from fig11 (1, 5)", hits, misses)
	}
}

// TestMemoCoflowFigures: a reduced coflow config run as fig12ab's 70 %
// half, then as fig15's tail, then in fig18's watchdog form, with the memo
// and without. fig15 computes no cell; fig18's ceiling is part of its
// cells' keys, so it computes all five.
func TestMemoCoflowFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("coflow runs in -short mode")
	}
	cfg := DefaultCoflowConfig(PrioPlusSwift(), 0.7)
	cfg.Duration, cfg.Drain = sim.Millisecond, 5*sim.Millisecond
	rows := func(r []CoflowSpeedups) string {
		var b strings.Builder
		printCoflow(&b, r)
		return b.String()
	}
	memo := checkTransparent(t, []string{"fig12ab", "fig15", "fig18"}, []func(o Options) string{
		func(o Options) string { c := cfg; c.Options = o; return rows(Fig12Coflow(c, false)) },
		func(o Options) string { c := cfg; c.Options = o; return rows(Fig12Coflow(c, true)) },
		func(o Options) string {
			c := cfg
			c.Options, c.maxInflight = o, 128<<20
			return rows(Fig12Coflow(c, false, hpccPhysical(8), noCCPhysicalIdeal()))
		},
	})
	if hits, misses := memo.Stats(); hits != 3 || misses != 8 {
		t.Errorf("%d hits, %d misses; want fig15's three cells served (3, 8)", hits, misses)
	}
}

// TestMemoSeedFreeCellsHoldForEverySeed checks the seed witness: every
// cell the memo stores seed-free prints the same bytes run at two other
// seeds without a memo. faultsweep's three physical-queue cells must be
// among them and its PrioPlus+Swift cell must not; the flow-scheduling
// cells draw their workload from the seed.
func TestMemoSeedFreeCellsHoldForEverySeed(t *testing.T) {
	fs := defaultFaultSweepConfig()
	fs.Seed = 1001
	fs.Faults = fault.NewPlan(fs.Seed).Flap(fs.flapAt, fs.flapDur, fault.Link("p0e0", "p0a0"))
	sched := shortFlowSched(SwiftPhysical(8), 4)
	sched.duration, sched.drain = sim.Millisecond, 4*sim.Millisecond
	type cell struct {
		name     string
		seedFree bool // what the witness must find
		key      string
		run      func(seed int64, memo *Memo) string
	}
	var cases []cell
	for _, s := range fs.schemes {
		cases = append(cases, cell{s.name, !strings.HasPrefix(s.name, "PrioPlus"), fs.key(s), func(seed int64, memo *Memo) string {
			c := fs
			c.Seed, c.memo = seed, memo
			return fmt.Sprintf("%+v", memoize(c.Options, c.key(s), func(o Options) faultSweepRow {
				c.Options = o
				return faultSweepOne(s, c)
			}))
		}})
	}
	cases = append(cases, cell{"flowsched " + sched.scheme.name, false, sched.key(), func(seed int64, memo *Memo) string {
		c := sched
		c.Seed, c.memo = seed, memo
		return fmt.Sprintf("%+v", schedRow(c))
	}})
	for _, c := range cases {
		memo := NewMemo(nil)
		stored := c.run(fs.Seed, memo)
		_, seedFree := memo.cells.Get(c.key)
		if seedFree != c.seedFree {
			t.Errorf("%s: stored seed-free %t, want %t", c.name, seedFree, c.seedFree)
		}
		if !seedFree {
			continue
		}
		for _, seed := range []int64{7, 1002} {
			if got := c.run(seed, nil); got != stored {
				t.Errorf("%s: stored seed-free as\n%s\nbut seed %d prints\n%s", c.name, stored, seed, got)
			}
		}
	}
}

// TestMemoPanickingCellNotStored: a cell that panics reaches its caller
// and leaves nothing in the memo, so the next ask computes it.
func TestMemoPanickingCellNotStored(t *testing.T) {
	memo := NewMemo(nil)
	o := Options{memo: memo}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the cell's panic did not reach its caller")
			}
		}()
		memoize(o, "k", func(Options) int { panic("cell failed") })
	}()
	if got := memoize(o, "k", func(Options) int { return 7 }); got != 7 {
		t.Errorf("after a panicking cell the memo served %d, want a fresh 7", got)
	}
	if hits, misses := memo.Stats(); hits != 0 || misses != 1 {
		t.Errorf("%d hits, %d misses; want the panic uncounted and one computed cell", hits, misses)
	}
}

// twinBatch runs steps one per seed, in seed order, through the runner's
// single worker (`all -parallel 1`), sharing memo, which it closes after;
// it returns each run's bytes or error and the logical events counted.
func twinBatch(t *testing.T, seeds []int64, memo *Memo, step func(seed int64, memo *Memo) string) ([]runner.Result, uint64) {
	t.Helper()
	var tasks []runner.Task
	for _, seed := range seeds {
		tasks = append(tasks, runner.Task{Name: fmt.Sprint(seed), Run: func() (string, map[string]float64) {
			return step(seed, memo), nil
		}})
	}
	ev := sim.TotalEvents()
	res := runner.Run(tasks, runner.Options{Workers: 1})
	if memo != nil {
		memo.Close(true)
		if h := helpers.Load(); h != 0 {
			t.Errorf("%d helpers still hold a core after Close", h)
		}
		if n := memo.cells.Len(); n > memoEntries {
			t.Errorf("the memo holds %d entries, over its bound %d", n, memoEntries)
		}
	}
	return res, sim.TotalEvents() - ev
}

// TestMemoTwins: the reduced faultsweep at four seeds in one batch prints
// each seed's bytes and counts the events of one run per seed without a
// memo. At GOMAXPROCS 2 the PrioPlus+Swift cell's later seeds are queued
// as twins; at GOMAXPROCS 1 none is.
func TestMemoTwins(t *testing.T) {
	seeds := []int64{1001, 1002, 1003, 1004}
	step := func(seed int64, memo *Memo) string {
		cfg := quickFaultSweepConfig(seed)
		cfg.memo = memo
		return fmt.Sprintf("%+v", faultSweep(cfg))
	}
	var want []string
	var wantEvents uint64
	for _, seed := range seeds {
		res, ev := twinBatch(t, []int64{seed}, nil, step)
		want, wantEvents = append(want, res[0].Output), wantEvents+ev
	}
	for _, procs := range []int{2, 1} {
		withProcs(procs, func() {
			memo := NewMemo(seeds)
			res, events := twinBatch(t, seeds, memo, step)
			for i, r := range res {
				if r.Err != nil || r.Output != want[i] {
					t.Errorf("GOMAXPROCS %d, seed %d: %v, printed\n%s\nwant\n%s", procs, seeds[i], r.Err, r.Output, want[i])
				}
			}
			if events != wantEvents {
				t.Errorf("GOMAXPROCS %d: %d logical events, one run per seed counts %d", procs, events, wantEvents)
			}
			if queued := len(memo.queued); (procs == 1) != (queued == 0) {
				t.Errorf("GOMAXPROCS %d: %d twins queued", procs, queued)
			}
		})
	}
}

// twinCell is a memoized cell that reads its seed only from its Options,
// through its engine's random stream: it runs 64 events at delays drawn
// from the stream and returns the last one. At seed panicAt it panics
// after its events have run. computed counts its computations per seed.
func twinCell(o Options, panicAt int64, computed map[int64]*atomic.Int32) string {
	return memoize(o, "k", func(o Options) string {
		computed[o.Seed].Add(1)
		eng := sim.NewEngine()
		if o.cell != nil {
			o.cell.engs = append(o.cell.engs, eng)
		}
		rng := eng.Rand(o.Seed)
		var last sim.Time
		for range 64 {
			d := sim.Time(rng.Int63n(1000) + 1)
			eng.After(d, func() { last = d })
		}
		eng.Run()
		if o.Seed == panicAt {
			panic(fmt.Sprintf("cell failed at seed %d", o.Seed))
		}
		return fmt.Sprint(last)
	})
}

// twinFanOut runs cell as cell 0 of a two-cell fan-out whose cell 1 waits
// until the memo has queued twins: whichever goroutine ran cell 0, a cells
// helper is left to drain them.
func twinFanOut(o Options, cell func(o Options) string) string {
	m := o.memo
	return cells(o, 2, func(i int, o Options) string {
		if i == 0 {
			return cell(o)
		}
		if m != nil {
			waitFor(m, func() bool { return len(m.queued) > 0 })
		}
		return ""
	})[0]
}

// waitFor polls cond under the memo's lock until it holds, or for at most
// ten seconds.
func waitFor(m *Memo, cond func() bool) {
	held := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return cond()
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !held(); {
		time.Sleep(time.Millisecond)
	}
}

// TestMemoTwinsReadTheirSeed: a cell whose result depends on its seed,
// swept at three seeds in one batch at GOMAXPROCS 2, prints each seed's
// bytes and counts the events of one run per seed without a memo; its
// later seeds are computed ahead as twins and served. When the cell panics
// at seed 2, the twin there is dropped, not stored, and its events taken
// back: the run at seed 2 computes the cell itself, and only that run
// fails.
func TestMemoTwinsReadTheirSeed(t *testing.T) {
	seeds := []int64{1, 2, 3}
	for _, panicAt := range []int64{0, 2} {
		computed := map[int64]*atomic.Int32{}
		for _, seed := range seeds {
			computed[seed] = &atomic.Int32{}
		}
		step := func(seed int64, memo *Memo) string {
			out := twinFanOut(Options{Seed: seed, memo: memo}, func(o Options) string { return twinCell(o, panicAt, computed) })
			// Let the drain end, so a later run finds each twin stored
			// or dropped.
			if memo != nil {
				waitFor(memo, func() bool { return len(memo.twins) == 0 && helpers.Load() == 0 })
			}
			return out
		}
		withProcs(2, func() {
			want, wantEvents := twinBatch(t, seeds, nil, step)
			memo := NewMemo(seeds)
			res, events := twinBatch(t, seeds, memo, step)
			for i, r := range res {
				failed := r.Err != nil
				if failed != (seeds[i] == panicAt) || failed != (want[i].Err != nil) || r.Output != want[i].Output {
					t.Errorf("panic at %d, seed %d: printed %q (error %v), alone %q (error %v)",
						panicAt, seeds[i], r.Output, r.Err, want[i].Output, want[i].Err)
				}
			}
			if res[0].Output == res[1].Output && panicAt == 0 {
				t.Errorf("seeds 1 and 2 both print %q: the cell does not read its seed", res[0].Output)
			}
			if events != wantEvents {
				t.Errorf("panic at %d: %d logical events, one run per seed counts %d", panicAt, events, wantEvents)
			}
			// Without a memo each seed computes once; with it, seed 1's run
			// computes, seeds 2 and 3 are twins, and a twin that panicked is
			// computed once more by its run.
			for _, seed := range seeds {
				want := int32(2)
				if seed == panicAt {
					want = 3
				}
				if n := computed[seed].Load(); n != want {
					t.Errorf("panic at %d: seed %d computed %d times over both batches, want %d", panicAt, seed, n, want)
				}
			}
			if _, ok := memo.cells.Get(seedKey("k", panicAt)); ok {
				t.Errorf("panic at %d: the panicking twin was stored", panicAt)
			}
			wantHits := uint64(2)
			if panicAt != 0 {
				wantHits = 1
			}
			if hits, misses := memo.Stats(); hits != wantHits || misses != 1 {
				t.Errorf("panic at %d: %d hits, %d misses; want seed 1 computed and the twins that did not panic served (%d, 1)",
					panicAt, hits, misses, wantHits)
			}
		})
	}
}

// TestMemoCloseAfterTimeout: a run the runner abandons while it waits on
// a twin does not hold up the batch. Close without waiting returns while
// the twin still runs; Close with waiting returns once it is done, and
// its drainer has given back its core.
func TestMemoCloseAfterTimeout(t *testing.T) {
	seeds := []int64{1, 2}
	memo := NewMemo(seeds)
	started, release := make(chan struct{}), make(chan struct{})
	step := func(seed int64) string {
		return twinFanOut(Options{Seed: seed, memo: memo}, func(o Options) string {
			return memoize(o, "k", func(o Options) string {
				o.cell.engs = append(o.cell.engs, sim.NewEngine())
				o.cell.engs[0].Rand(o.Seed) // reads the seed
				if o.Seed == 2 {
					close(started)
					<-release
				}
				return fmt.Sprint(o.Seed)
			})
		})
	}
	withProcs(2, func() {
		var tasks []runner.Task
		for _, seed := range seeds {
			tasks = append(tasks, runner.Task{Name: fmt.Sprint(seed), Run: func() (string, map[string]float64) {
				if seed == 2 {
					<-started // the twin is in flight when the run asks for it
				}
				return step(seed), nil
			}})
		}
		res := runner.Run(tasks, runner.Options{Workers: 1, Timeout: 200 * time.Millisecond})
		select {
		case <-started:
		default:
			t.Fatal("no twin was computed ahead")
		}
		if !errors.Is(res[1].Err, runner.ErrTimeout) {
			t.Fatalf("seed 2's run: %v, want it abandoned on timeout", res[1].Err)
		}
		closed := make(chan struct{})
		go func() { memo.Close(false); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("Close without waiting waited for the twin")
		}
		close(release)
		memo.Close(true)
		if h := helpers.Load(); h != 0 {
			t.Errorf("%d helpers still hold a core after Close", h)
		}
	})
}
