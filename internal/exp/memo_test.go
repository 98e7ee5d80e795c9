package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

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
	memo := NewMemo()
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
// for the four seeds. The batch's runs share the memo from two workers;
// -short (the race detector's run) sweeps the reduced two-scheme config.
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
	off, memo := batch(nil), NewMemo()
	on := batch(memo)
	for i := range seeds {
		if on[i].Err != nil || off[i].Err != nil {
			t.Fatalf("seed %d: %v / %v", seeds[i], on[i].Err, off[i].Err)
		}
		if on[i].Output != off[i].Output {
			t.Errorf("seed %d: memo on printed\n%s\nmemo off printed\n%s", seeds[i], on[i].Output, off[i].Output)
		}
	}
	// The two workers may both compute a seed-free cell before either
	// stores it; the seeds after them hit.
	n := uint64(len(seeds))
	seeded := n * (cells - seedFree)
	if hits, misses := memo.Stats(); hits+misses != cells*n || misses < seeded+seedFree || misses > seeded+2*seedFree {
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
		memo := NewMemo()
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
	memo := NewMemo()
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
