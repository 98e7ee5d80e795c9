package exp

import (
	"fmt"
	"io"
	"runtime"
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

// orderSink is a Sink with the ordering hook: listed is the tags of the
// runs it handed out, put in figure order by Order.
type orderSink struct {
	mu     sync.Mutex
	tags   map[*obs.Recorder]string
	listed []string
}

func (s *orderSink) Recorder(tag string) *obs.Recorder {
	rec := obs.NewRecorder()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tags == nil {
		s.tags = map[*obs.Recorder]string{}
	}
	s.tags[rec] = tag
	return rec
}

func (s *orderSink) Order(cells [][]*obs.Recorder) {
	for _, recs := range cells {
		for _, rec := range recs {
			s.listed = append(s.listed, s.tags[rec])
		}
	}
}

// recorderSink hands out the recorders of an instrumented spec run.
type recorderSink func(tag string) *obs.Recorder

func (f recorderSink) Recorder(tag string) *obs.Recorder { return f(tag) }

// TestCellsOrderAndBudget: results come back in index order whoever ran
// them; with GOMAXPROCS 1 there is no helper, with 2 there is one unless the
// runs in progress hold both cores; a registered spec holds a core while it
// runs; and an instrumented run whose sink cannot reorder its runs calls its
// cells in order on the caller, never borrowing a helper.
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
			if b := helpers.Load(); b != 0 {
				t.Errorf("GOMAXPROCS 1: cell %d ran beside %d helpers, want a serial run", i, b)
			}
			return 0
		})
	})
	withProcs(2, func() {
		if !together() {
			t.Error("GOMAXPROCS 2: the two cells never ran at once")
		}
		running.Add(2) // two runs of a batch hold both cores
		cells(Options{}, 8, func(i int, _ Options) int {
			if b := helpers.Load(); b != 0 {
				t.Errorf("cell %d ran beside %d helpers while two runs held both cores", i, b)
			}
			return 0
		})
		running.Add(-2)
		spec, _ := Lookup("fig10b")
		held := false
		sink := recorderSink(func(string) *obs.Recorder {
			held = running.Load() == 1
			return nil
		})
		if err := spec.Run(spec.Defaults, sink, nil, io.Discard); err != nil || !held || running.Load() != 0 {
			t.Errorf("fig10b: err %v, held a core while running %v, %d runs counted after, want a core held and released", err, held, running.Load())
		}
		var order []int
		instrumented := Options{NewRecorder: func(string) *obs.Recorder { return nil }}
		cells(instrumented, 6, func(i int, _ Options) int {
			order = append(order, i) // unsynchronized on purpose: -race proves one goroutine
			if helpers.Load() != 0 {
				t.Errorf("instrumented cell %d ran beside a helper", i)
			}
			return 0
		})
		if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
			t.Errorf("instrumented cells ran in order %v, want 0..5", order)
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
// on, serial or fanned out; its siblings stop taking new cells; every budget slot comes back (a
// fan-out right after still gets its helper); and under runner.Run only
// that task fails.
func TestCellsPanic(t *testing.T) {
	withProcs(2, func() {
		const n = 1000
		instrumented := Options{NewRecorder: func(string) *obs.Recorder { return nil }}
		for _, o := range []Options{{}, instrumented, specOptions(RunParams{}, &orderSink{}, nil)} {
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
		if b := helpers.Load(); b != 0 {
			t.Errorf("%d helper slots still taken after the fan-out returned", b)
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
