package exp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prioplus/internal/sim"
)

// heldCores reads the executor's count of held cores.
func heldCores() int {
	exec.mu.Lock()
	defer exec.mu.Unlock()
	return exec.held
}

// inTable reports whether m's entry sk is queued, running or stored.
func inTable(m *Memo, sk string) bool {
	exec.mu.Lock()
	defer exec.mu.Unlock()
	_, stored := m.cells.Get(sk)
	return stored || exec.flights[flightKey{m, sk}] != nil
}

// readSeed gives a memoized cell an engine that reads the cell's seed, so
// the memo stores it per seed.
func readSeed(o Options) {
	eng := sim.NewEngine()
	o.cell.engs = append(o.cell.engs, eng)
	eng.Rand(o.Seed)
}

// TestExecSingleFlight: concurrent askers of one (key, seed) share one
// computation, which every later ask finds stored.
func TestExecSingleFlight(t *testing.T) {
	m := NewMemo(nil)
	var calls atomic.Int32
	release := make(chan struct{})
	ask := func() int {
		return memoize(Options{Seed: 1, memo: m}, func(o Options) int {
			calls.Add(1)
			readSeed(o)
			<-release
			return 42
		})
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := ask(); v != 42 {
				t.Errorf("got %d, want 42", v)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the askers queue behind the leader
	close(release)
	wg.Wait()
	if v := ask(); v != 42 || calls.Load() != 1 {
		t.Errorf("a later ask got %d; the cell ran %d times, want 42 and once", v, calls.Load())
	}
	if hits, misses := m.Stats(); hits != 8 || misses != 1 {
		t.Errorf("%d hits, %d misses; want 8, 1", hits, misses)
	}
}

// TestExecSeedFreeValueReachesWaiters: the entry of a cell that read no
// seed, which is not stored under its seed key, still goes to the asker
// that waited on its computation, and is stored for every seed.
func TestExecSeedFreeValueReachesWaiters(t *testing.T) {
	m := NewMemo(nil)
	o := Options{Seed: 1, memo: m}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		done <- memoize(o, func(Options) int { close(started); <-release; return 1 })
	}()
	<-started
	go func() { done <- memoize(o, func(Options) int { return 2 }) }()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if a, b := <-done, <-done; a != 1 || b != 1 {
		t.Errorf("leader and waiter got %d and %d, want 1 and 1", a, b)
	}
	key := memoKey(Options{})
	if _, ok := m.cells.Get(seedKey(key, 1)); ok {
		t.Error("a seed-free entry was stored under its seed key")
	}
	if got := memoize(Options{Seed: 7, memo: m}, func(Options) int { return 3 }); got != 1 {
		t.Errorf("seed 7 got %d, want the seed-free 1", got)
	}
}

// TestExecFailedLeader: a leader that panics, or exits its goroutine,
// stores nothing; its panic stays with it, and its waiters compute the
// cell themselves, once, instead of hanging.
func TestExecFailedLeader(t *testing.T) {
	for _, how := range []string{"panic", "goexit"} {
		m := NewMemo(nil)
		o := Options{Seed: 1, memo: m}
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan any)
		go func() {
			defer func() { leader <- recover() }()
			memoize(o, func(Options) int {
				close(started)
				<-release
				if how == "panic" {
					panic("leader failed")
				}
				runtime.Goexit()
				return 0
			})
		}()
		<-started
		var wg sync.WaitGroup
		var computed atomic.Int32
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := memoize(o, func(Options) int { computed.Add(1); return 7 })
				if v != 7 {
					t.Errorf("%s: waiter got %d, want 7", how, v)
				}
			}()
		}
		time.Sleep(10 * time.Millisecond)
		close(release)
		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: waiters hang on a failed leader", how)
		}
		if r := <-leader; (how == "panic") != (r != nil) {
			t.Errorf("%s: leader recovered %v", how, r)
		}
		if computed.Load() != 1 {
			t.Errorf("%s: %d waiters computed the cell, want one", how, computed.Load())
		}
	}
}

// TestExecTwinNeverWaits: a twin is queued only for a key neither running
// nor stored at its seed, so no twin waits on another computation; an
// asker that finds its key queued takes the twin over; and Close drops the
// twins still queued.
func TestExecTwinNeverWaits(t *testing.T) {
	withProcs(2, func() {
		m := NewMemo([]int64{1, 2, 3, 4, 5})
		key := memoKey(Options{})
		var computed [6]atomic.Int32
		cell := func(o Options) any {
			computed[o.Seed].Add(1)
			readSeed(o)
			return o.Seed
		}
		m.cells.Put(seedKey(key, 3), memoEntry{val: int64(3), seeded: true})
		started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			memoize(Options{Seed: 2, memo: m}, func(o Options) int64 {
				close(started)
				<-release
				return cell(o).(int64)
			})
		}()
		<-started
		exec.queueTwins(m, key, Options{Seed: 1, memo: m}, cell)
		queued := func() (seeds []int64) {
			exec.mu.Lock()
			defer exec.mu.Unlock()
			for _, f := range exec.twins {
				for seed := range int64(6) {
					if f.id == (flightKey{m, seedKey(key, seed)}) {
						seeds = append(seeds, seed)
					}
				}
			}
			return seeds
		}
		if got := queued(); !slices.Equal(got, []int64{4, 5}) {
			t.Errorf("twins queued at %v with seed 2 running and 3 stored, want [4 5]", got)
		}
		if got := memoize(Options{Seed: 4, memo: m}, func(o Options) int64 { return cell(o).(int64) }); got != 4 || computed[4].Load() != 1 {
			t.Errorf("the asker at seed 4 got %d, computed %d times, want 4 once", got, computed[4].Load())
		}
		if got := queued(); !slices.Equal(got, []int64{5}) {
			t.Errorf("twins queued at %v after the asker took seed 4's over, want [5]", got)
		}
		m.Close(false)
		if got := queued(); got != nil || inTable(m, seedKey(key, 5)) {
			t.Errorf("twins queued at %v after Close, want none", got)
		}
		close(release)
		<-done
		if computed[5].Load() != 0 || heldCores() != 0 {
			t.Errorf("a dropped twin ran %d times; %d cores held", computed[5].Load(), heldCores())
		}
	})
}

// raceCell is a memoized cell's config for TestExecRace.
type raceCell struct {
	Options
	Name string
}

// TestExecRace: goroutines run cells fan-outs whose cells are memoized
// askers contending on shared, per-goroutine and seed-free keys, with twins
// queued at the batch's later seeds, at GOMAXPROCS 2, while a direct asker
// of a cell that panics at one seed contends too. Every fan-out's results
// come back in index order; each (key, seed) is computed at most once but
// for the panicking one; and once the memo is closed no core is held and no
// goroutine of the executor is left.
func TestExecRace(t *testing.T) {
	withProcs(2, func() {
		before := runtime.NumGoroutine()
		seeds := []int64{1, 2, 3}
		m := NewMemo(seeds)
		var mu sync.Mutex
		computed := map[string]int{}
		run := func(c raceCell) string {
			eng := sim.NewEngine()
			c.cell.engs = append(c.cell.engs, eng)
			if c.Name != "free" {
				eng.Rand(c.Seed)
			}
			eng.After(1, func() {})
			eng.Run()
			mu.Lock()
			computed[fmt.Sprint(c.Name, "@", c.Seed)]++
			mu.Unlock()
			if c.Name == "boom" && c.Seed == 2 {
				panic("boom")
			}
			if c.Name == "free" {
				return c.Name
			}
			return fmt.Sprint(c.Name, "@", c.Seed)
		}
		name := func(g, i int) string {
			switch i % 3 {
			case 0:
				return fmt.Sprint("shared", i)
			case 1:
				return fmt.Sprint("g", g, "-", i)
			}
			return "free"
		}
		var wg sync.WaitGroup
		for g := range 6 {
			seed := seeds[g%len(seeds)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					o := Options{Seed: seed, memo: m}
					got := cells(o, 6, func(i int, o Options) string {
						return memoize(raceCell{o, name(g, i)}, run)
					}, 5, 3, 1, 0, 2, 4)
					for i, v := range got {
						want := fmt.Sprint(name(g, i), "@", seed)
						if name(g, i) == "free" {
							want = "free"
						}
						if v != want {
							t.Errorf("goroutine %d: cell %d = %q, want %q", g, i, v, want)
						}
					}
					func() {
						defer func() { recover() }()
						memoize(raceCell{o, "boom"}, run)
					}()
				}
			}()
		}
		wg.Wait()
		m.Close(true)
		for k, n := range computed {
			if n > 1 && k != "boom@2" {
				t.Errorf("%s computed %d times", k, n)
			}
		}
		if h := heldCores(); h != 0 {
			t.Errorf("%d cores held after the batch", h)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Errorf("%d goroutines before the batch, %d after", before, after)
		}
	})
}
