package exp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// memoRow is one row of checkTransparent: the steps one run of a batch
// takes in order, each building its config from the Options it is handed
// (the run's seed and the batch's memo), and what one seed's run counts in
// a batch of its own.
type memoRow struct {
	names []string
	steps []func(o Options) string
	// hits and misses are one seed's memo counts; seedFree of the misses
	// are cells that read no seed, which a batch computes once for all its
	// seeds.
	hits, misses, seedFree uint64
	// workers is how many of the batch's runs share the memo at once.
	workers int
}

// memoPass runs row's steps once per seed as a batch of runs on
// row.workers workers, sharing memo (nil: none), which it closes after.
// It returns each run's bytes and the logical and dispatched events the
// batch counted.
func memoPass(t *testing.T, row memoRow, seeds []int64, memo *Memo) (out []string, events, dispatched uint64) {
	t.Helper()
	var tasks []runner.Task
	for _, seed := range seeds {
		tasks = append(tasks, runner.Task{Name: fmt.Sprint(seed), Run: func() (string, map[string]float64) {
			var b strings.Builder
			for i, step := range row.steps {
				fmt.Fprintf(&b, "== %s\n%s", row.names[i], step(Options{Seed: seed, memo: memo}))
			}
			return b.String(), nil
		}})
	}
	ev, disp := sim.TotalEvents(), sim.TotalProcessed()
	res := runner.Run(tasks, runner.Options{Workers: row.workers})
	if memo != nil {
		memo.Close(true)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seeds[i], r.Err)
		}
		out = append(out, r.Output)
	}
	return out, sim.TotalEvents() - ev, sim.TotalProcessed() - disp
}

// checkTransparent runs row at seeds 1–3 (-short: 1) in one batch, at
// GOMAXPROCS 1 and 2, without a memo and then with one. It fails unless
// every seed's run prints the same bytes both ways, the memo pass counts
// the same logical events and dispatches no more — fewer when a stored
// cell is served — and the memo's hits and misses equal row's counts over
// the seeds, however the cells were scheduled. At GOMAXPROCS 2 a seeded
// cell's later seeds may be computed ahead as twins, which the later runs
// are served; at 1 none is.
func checkTransparent(t *testing.T, row memoRow) {
	t.Helper()
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	n := uint64(len(seeds))
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			off, offEvents, offDisp := memoPass(t, row, seeds, nil)
			memo := NewMemo(seeds)
			on, onEvents, onDisp := memoPass(t, row, seeds, memo)
			for i, seed := range seeds {
				if on[i] != off[i] {
					t.Errorf("GOMAXPROCS %d, seed %d: memo on printed\n%s\nmemo off printed\n%s", procs, seed, on[i], off[i])
				}
			}
			served := row.hits > 0 || n > 1 && row.seedFree > 0
			if onEvents != offEvents || onDisp > offDisp || served && onDisp == offDisp {
				t.Errorf("GOMAXPROCS %d: %d logical events (%d dispatched) with the memo, %d (%d) without; want equal logical events, fewer dispatches",
					procs, onEvents, onDisp, offEvents, offDisp)
			}
			// A miss is a distinct entry the batch asked for: a seeded
			// cell once per seed, a seed-free one once.
			asks, want := (row.hits+row.misses)*n, (row.misses-row.seedFree)*n+row.seedFree
			if hits, misses := memo.Stats(); hits != asks-want || misses != want {
				t.Errorf("GOMAXPROCS %d: %d hits, %d misses over %d seeds; want %d, %d",
					procs, hits, misses, n, asks-want, want)
			}
		})
	}
}

// TestMemoFaultSweepSeeds: faultsweep, the registered spec's bytes, with
// the memo and without. Only the PrioPlus+Swift cell reads the seed, so
// the other three are computed once for all seeds, and its later seeds
// may be computed ahead as twins. The batch's runs share the memo from two
// workers; -short (the race detector's run) sweeps the reduced two-scheme
// config.
func TestMemoFaultSweepSeeds(t *testing.T) {
	spec, _ := Lookup("faultsweep")
	row := memoRow{names: []string{"faultsweep"}, misses: 4, seedFree: 3, workers: 2,
		steps: []func(o Options) string{func(o Options) string {
			var buf bytes.Buffer
			if err := spec.Run(RunParams{Seed: o.Seed}, nil, o.memo, &buf); err != nil {
				panic(err)
			}
			return buf.String()
		}}}
	if testing.Short() {
		row.misses, row.seedFree = 2, 1
		row.steps[0] = func(o Options) string {
			cfg := quickFaultSweepConfig(o.Seed)
			cfg.memo = o.memo
			return fmt.Sprintf("%+v", faultSweep(cfg, quickFaultSweepSchemes()))
		}
	}
	checkTransparent(t, row)
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
	checkTransparent(t, memoRow{names: []string{"fig11", "fig16"}, hits: 1, misses: 5, workers: 1,
		steps: []func(o Options) string{
			func(o Options) string { c := base; c.Options = o; return rows(fig11([]int{8}, c)) },
			func(o Options) string { c := base; c.Options = o; return rows(fig16(8, c)) },
		}})
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
	checkTransparent(t, memoRow{names: []string{"fig12ab", "fig15", "fig18"}, hits: 3, misses: 8, workers: 1,
		steps: []func(o Options) string{
			func(o Options) string { c := cfg; c.Options = o; return rows(Fig12Coflow(c, false)) },
			func(o Options) string { c := cfg; c.Options = o; return rows(Fig12Coflow(c, true)) },
			func(o Options) string {
				c := cfg
				c.Options, c.maxInflight = o, 128<<20
				return rows(Fig12Coflow(c, false, hpccPhysical(8), noCCPhysicalIdeal()))
			},
		}})
}

// TestMemoHitsAreTheBatchs: a batch of faultsweep, fig11 and fig16 at
// seeds 1 and 2 on one worker, reduced, counts the same memo hits and
// misses three times over at GOMAXPROCS 2, where twins are computed ahead
// as the cores happen to allow, and at GOMAXPROCS 1, where none is.
func TestMemoHitsAreTheBatchs(t *testing.T) {
	sched := shortFlowSched(PrioPlusSwift(), 8)
	sched.duration, sched.drain = sim.Millisecond, 4*sim.Millisecond
	rows := func(r []fig11Row) string {
		var b strings.Builder
		printFig11(&b, r)
		return b.String()
	}
	row := memoRow{names: []string{"faultsweep", "fig11", "fig16"}, workers: 1,
		steps: []func(o Options) string{
			func(o Options) string {
				cfg := quickFaultSweepConfig(o.Seed)
				cfg.memo = o.memo
				return fmt.Sprintf("%+v", faultSweep(cfg, quickFaultSweepSchemes()))
			},
			func(o Options) string { c := sched; c.Options = o; return rows(fig11([]int{8}, c)) },
			func(o Options) string { c := sched; c.Options = o; return rows(fig16(8, c)) },
		}}
	var counts []string
	for _, procs := range []int{2, 2, 2, 1} {
		withProcs(procs, func() {
			memo := NewMemo([]int64{1, 2})
			memoPass(t, row, []int64{1, 2}, memo)
			hits, misses := memo.Stats()
			counts = append(counts, fmt.Sprintf("%d hits, %d misses", hits, misses))
		})
	}
	for i, c := range counts[1:] {
		if c != counts[0] {
			t.Errorf("batch %d counted %s, batch 0 %s (GOMAXPROCS 2, 2, 2, 1)", i+1, c, counts[0])
		}
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
	sched := shortFlowSched(SwiftPhysical(8), 4)
	sched.duration, sched.drain = sim.Millisecond, 4*sim.Millisecond
	type cell struct {
		name     string
		seedFree bool // what the witness must find
		key      string
		run      func(seed int64, memo *Memo) string
	}
	var cases []cell
	for _, s := range faultSweepSchemes() {
		c := fs
		c.scheme = s
		cases = append(cases, cell{s.name, !strings.HasPrefix(s.name, "PrioPlus"), memoKey(c), func(seed int64, memo *Memo) string {
			c := c
			c.Seed, c.memo = seed, memo
			return fmt.Sprintf("%+v", memoize(c, faultSweepOne))
		}})
	}
	cases = append(cases, cell{"flowsched " + sched.scheme.name, false, memoKey(sched), func(seed int64, memo *Memo) string {
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

// TestMemoCellsWriteNothingShared: each memoized cell function — the
// faultsweep cell, the coflow run and the flow-scheduling row — run twice
// at once on one config value, at reduced scale, prints the same bytes
// both times. A memo runs a cell's twins so, on copies of one config;
// under -race (CI) a cell that writes anything the other can see fails.
func TestMemoCellsWriteNothingShared(t *testing.T) {
	fs := quickFaultSweepConfig(1)
	fs.scheme = PrioPlusSwift()
	coflow := tinyCoflow(Options{})
	sched := shortFlowSched(PrioPlusSwift(), 4)
	sched.duration, sched.drain = 500*sim.Microsecond, sim.Millisecond
	for _, c := range []struct {
		name string
		cell func() any
	}{
		{"faultsweep", func() any { return faultSweepOne(fs) }},
		{"coflow", func() any { return runCoflow(coflow) }},
		{"flowsched", func() any { return schedCell(sched) }},
	} {
		var out [2]string
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = fmt.Sprintf("%+v", c.cell())
			}()
		}
		wg.Wait()
		if out[0] != out[1] {
			t.Errorf("%s: two runs at once printed\n%s\nand\n%s", c.name, out[0], out[1])
		}
	}
}

// runContext is the reviewed list of config fields a memo key leaves out:
// the seed, read only through the engine's streams (the seed witness), and
// the run's context — recorder factory, run order, memo, cell — which
// decides how a cell runs, never what it prints.
var runContext = []string{"Options.Seed", "Options.NewRecorder", "Options.order", "Options.memo", "Options.cell"}

// TestMemoKeyComplete: changing any one field of a memoized cell's config,
// its Scheme's included, changes the cell's memo key, makes memoize skip
// the memo, or is a runContext field. And no func, pointer, map, chan or
// interface is reachable from a config outside its Options, so a key never
// prints an address: a closure field added to Scheme fails here.
func TestMemoKeyComplete(t *testing.T) {
	checkKeyComplete(t, DefaultCoflowConfig(PrioPlusSwift(), 0.7))
	checkKeyComplete(t, defaultFlowSchedConfig(PrioPlusSwift(), 8))
	fs := defaultFaultSweepConfig()
	fs.scheme = PrioPlusSwift()
	checkKeyComplete(t, fs)
}

func checkKeyComplete[C any, P cellConfig[C]](t *testing.T, cfg C) {
	t.Helper()
	typ := reflect.TypeOf(cfg)
	if path := addressIn(typ, ""); path != "" {
		t.Errorf("%s%s can hold an address, which a memo key would print", typ.Name(), path)
	}
	skips := func(c C) bool {
		m := NewMemo(nil)
		P(&c).options().memo = m
		memoize[C, P](c, func(C) int { return 0 })
		hits, misses := m.Stats()
		return hits+misses == 0
	}
	if skips(cfg) {
		t.Fatalf("%s: memoize skips the memo for the base config", typ.Name())
	}
	base := memoKey[C, P](cfg)
	for _, f := range fieldsOf(typ, "", nil) {
		c := cfg
		v := reflect.ValueOf(&c).Elem().FieldByIndex(f.index)
		change(t, reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem())
		if memoKey[C, P](c) == base && !skips(c) && !slices.Contains(runContext, f.path) {
			t.Errorf("%s.%s: changing it leaves the memo key as it was", typ.Name(), f.path)
		}
	}
}

// keyField is one field reachable from a config by struct fields: its
// path ("Scheme.ecnK") and its index sequence.
type keyField struct {
	path  string
	index []int
}

// fieldsOf lists the non-struct fields reachable from t by struct fields.
func fieldsOf(t reflect.Type, path string, index []int) []keyField {
	if t.Kind() != reflect.Struct {
		return []keyField{{strings.TrimPrefix(path, "."), index}}
	}
	var out []keyField
	for i := range t.NumField() {
		f := t.Field(i)
		out = append(out, fieldsOf(f.Type, path+"."+f.Name, append(slices.Clone(index), i))...)
	}
	return out
}

// change sets v to a value other than the one it holds.
func change(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(2*v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { panic("not called") }))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("no way to change a %s", v.Type())
	}
}

// addressIn returns the path to the first func, pointer, map, chan or
// interface reachable from t outside an embedded Options, or "".
func addressIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return path
	case reflect.Slice, reflect.Array:
		return addressIn(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if f.Anonymous && f.Type == reflect.TypeFor[Options]() {
				continue
			}
			if p := addressIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
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
		memoize(o, func(Options) int { panic("cell failed") })
	}()
	if got := memoize(o, func(Options) int { return 7 }); got != 7 {
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
		if h := heldCores(); h != 0 {
			t.Errorf("%d cores still held after Close", h)
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
// as twins, found in the executor's table when their runs start; at
// GOMAXPROCS 1 none is.
func TestMemoTwins(t *testing.T) {
	seeds := []int64{1001, 1002, 1003, 1004}
	prioplus := quickFaultSweepConfig(0)
	prioplus.scheme = quickFaultSweepSchemes()[0]
	key := memoKey(prioplus)
	var ahead []int64 // the seeds whose cell was in the table when their run started
	step := func(seed int64, memo *Memo) string {
		if memo != nil && inTable(memo, seedKey(key, seed)) {
			ahead = append(ahead, seed)
		}
		cfg := quickFaultSweepConfig(seed)
		cfg.memo = memo
		return fmt.Sprintf("%+v", faultSweep(cfg, quickFaultSweepSchemes()))
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
			ahead = nil
			res, events := twinBatch(t, seeds, memo, step)
			for i, r := range res {
				if r.Err != nil || r.Output != want[i] {
					t.Errorf("GOMAXPROCS %d, seed %d: %v, printed\n%s\nwant\n%s", procs, seeds[i], r.Err, r.Output, want[i])
				}
			}
			if events != wantEvents {
				t.Errorf("GOMAXPROCS %d: %d logical events, one run per seed counts %d", procs, events, wantEvents)
			}
			want := seeds[1:]
			if procs == 1 {
				want = nil
			}
			if !slices.Equal(ahead, want) {
				t.Errorf("GOMAXPROCS %d: the cell was queued ahead of the runs at %v, want %v", procs, ahead, want)
			}
		})
	}
}

// twinCell is a memoized cell that reads its seed only from its Options,
// through its engine's random stream: it runs 64 events at delays drawn
// from the stream and returns the last one. At seed panicAt it panics
// after its events have run. computed counts its computations per seed.
func twinCell(o Options, panicAt int64, computed map[int64]*atomic.Int32) string {
	return memoize(o, func(o Options) string {
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
// until cell 0 has returned, and so queued its twins: whichever goroutine
// ran cell 0, a helper is left to compute them.
func twinFanOut(o Options, cell func(o Options) string) string {
	queued := make(chan struct{})
	return cells(o, 2, func(i int, o Options) string {
		if i == 0 {
			defer close(queued)
			return cell(o)
		}
		<-queued
		return ""
	})[0]
}

// waitFor polls cond under the executor's lock until it holds, or for at
// most ten seconds.
func waitFor(cond func() bool) {
	held := func() bool {
		exec.mu.Lock()
		defer exec.mu.Unlock()
		return cond()
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !held(); {
		time.Sleep(time.Millisecond)
	}
}

// TestMemoTwinsReadTheirSeed: a cell whose result depends on its seed,
// swept at three seeds in one batch at GOMAXPROCS 2, prints each seed's
// bytes and counts the events of one run per seed without a memo; its
// later seeds are computed ahead as twins, before their runs start, and
// served. When the cell panics
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
		var ahead []int64 // seeds computed before their run started
		step := func(seed int64, memo *Memo) string {
			if memo != nil && computed[seed].Load() == 2 {
				ahead = append(ahead, seed)
			}
			out := twinFanOut(Options{Seed: seed, memo: memo}, func(o Options) string { return twinCell(o, panicAt, computed) })
			// Let the twins end, so a later run finds each one stored or
			// dropped.
			if memo != nil {
				waitFor(func() bool { return len(exec.twins) == 0 && exec.held == 0 })
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
			if !slices.Equal(ahead, seeds[1:]) {
				t.Errorf("panic at %d: seeds %v were computed ahead of their runs, want %v", panicAt, ahead, seeds[1:])
			}
			if _, ok := memo.cells.Get(seedKey(memoKey(Options{}), panicAt)); ok {
				t.Errorf("panic at %d: the panicking twin was stored", panicAt)
			}
			// Each seed is a distinct entry the batch asked for once; an
			// ask that panicked is not counted.
			wantMisses := uint64(3)
			if panicAt != 0 {
				wantMisses = 2
			}
			if hits, misses := memo.Stats(); hits != 0 || misses != wantMisses {
				t.Errorf("panic at %d: %d hits, %d misses; want 0, %d", panicAt, hits, misses, wantMisses)
			}
		})
	}
}

// TestMemoCloseAfterTimeout: a run the runner abandons while it waits on
// a twin does not hold up the batch. Close without waiting returns while
// the twin still runs; Close with waiting returns once it is done, and
// once the abandoned run has returned too, no core is held.
func TestMemoCloseAfterTimeout(t *testing.T) {
	seeds := []int64{1, 2}
	memo := NewMemo(seeds)
	started, release := make(chan struct{}), make(chan struct{})
	step := func(seed int64) string {
		return twinFanOut(Options{Seed: seed, memo: memo}, func(o Options) string {
			return memoize(o, func(o Options) string {
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
	abandoned := make(chan struct{})
	withProcs(2, func() {
		var tasks []runner.Task
		for _, seed := range seeds {
			tasks = append(tasks, runner.Task{Name: fmt.Sprint(seed), Run: func() (string, map[string]float64) {
				if seed == 2 {
					defer close(abandoned)
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
		select {
		case <-abandoned:
		case <-time.After(10 * time.Second):
			t.Fatal("the abandoned run never returned once its twin was done")
		}
		if h := heldCores(); h != 0 {
			t.Errorf("%d cores still held after Close", h)
		}
	})
}
