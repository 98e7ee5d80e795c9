package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"prioplus/internal/sim"
)

// executor hands the process's cores to its runs' independent work, the
// cells of fan-outs (cells) and the memo's twins (Memo), under one lock:
//   - held counts the cores in use, one per registered run (hold) and one
//     per helper goroutine. A helper is granted only while held is below
//     GOMAXPROCS, so GOMAXPROCS 1 is serial. A fan-out that finds no core
//     held (outside any run, as in a test) holds one for its caller.
//   - one queue: fan-outs with cells left, oldest first, each in its
//     driver's order; then twins, oldest first. So a run's cells come
//     before any twin.
//   - one table of the (key, seed) cells queued as twins or running; a
//     stored one is in its memo's cache. Askers of a running cell share it,
//     and no twin is queued for a key running or stored, so none waits.
type executor struct {
	mu      sync.Mutex
	held    int
	fans    []*fanOut
	twins   []*flight
	flights map[flightKey]*flight
}

var exec = executor{flights: map[flightKey]*flight{}}

// hold adds n to the held cores: a registered run holds one while it runs.
func (x *executor) hold(n int) {
	x.mu.Lock()
	x.held += n
	x.mu.Unlock()
}

// fanOut is one call of cells: n cells, handed out in start order (nil:
// index order) until they run out or one panics.
type fanOut struct {
	n, next int
	start   []int
	cell    func(i int)
	first   error // the panic of the lowest index, firstAt, under exec.mu
	firstAt int
	wg      sync.WaitGroup // cells handed out and not yet returned
}

// take hands out f's next cell, under exec.mu.
func (f *fanOut) take() (i int, ok bool) {
	if f.first != nil || f.next >= f.n {
		return 0, false
	}
	if i = f.next; f.start != nil {
		i = f.start[i]
	}
	f.next++
	f.wg.Add(1)
	return i, true
}

// run runs cell i, recording its panic: the value on the first line, so a
// one-line failure report still names it, and the cell's stack after.
func (f *fanOut) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("cell %d: %v\n%s", i, r, debug.Stack())
			exec.mu.Lock()
			if f.first == nil || i < f.firstAt {
				f.first, f.firstAt = err, i
			}
			exec.mu.Unlock()
		}
	}()
	f.cell(i)
}

// fanOut runs f's cells on the caller and on each helper a free core allows,
// each granted with its first cell, and returns once all have run. The
// caller's own core, if it holds one, goes back once no cell is left.
func (x *executor) fanOut(f *fanOut) {
	x.mu.Lock()
	self := 0 // the caller's core, held here only outside any run
	if x.held == 0 {
		self = 1
	}
	x.held += self
	x.fans = append(x.fans, f)
	i, ok := f.take() // the caller's first cell comes before any helper's
	for h := 1; h < f.n && x.held < runtime.GOMAXPROCS(0); h++ {
		if j, ok := f.take(); ok {
			x.held++
			go x.help(func() { f.run(j) }, f.wg.Done)
		}
	}
	for ; ok; i, ok = f.take() {
		x.mu.Unlock()
		f.run(i)
		f.wg.Done()
		x.mu.Lock()
	}
	x.fans = slices.DeleteFunc(x.fans, func(g *fanOut) bool { return g == f })
	x.held -= self
	x.mu.Unlock()
	f.wg.Wait()
}

// help runs work, then the queue's next, until none is left; then it
// gives its core back. Each work is marked done only after that choice, so
// whoever waited on it (a fan-out's caller, Memo.Close) finds no core held
// for it.
func (x *executor) help(run, done func()) {
	for run != nil {
		run()
		x.mu.Lock()
		next, nextDone := x.next()
		if next == nil {
			x.held--
		}
		x.mu.Unlock()
		done()
		run, done = next, nextDone
	}
}

// next takes the queue's next work, under x.mu: a cell of the oldest
// fan-out with one left, else the oldest twin.
func (x *executor) next() (run, done func()) {
	for len(x.fans) > 0 {
		f := x.fans[0]
		if i, ok := f.take(); ok {
			return func() { f.run(i) }, f.wg.Done
		}
		x.fans = x.fans[1:]
	}
	if t := x.nextTwin(); t != nil {
		return func() { x.compute(t) }, t.id.m.ahead.Done
	}
	return nil, nil
}

// nextTwin starts the oldest queued twin, under x.mu, or returns nil.
func (x *executor) nextTwin() *flight {
	if len(x.twins) == 0 {
		return nil
	}
	t := x.twins[0]
	x.twins = x.twins[1:]
	t.done = make(chan struct{})
	t.id.m.ahead.Add(1)
	return t
}

// flightKey names a memoized cell at one seed in one memo.
type flightKey struct {
	m  *Memo
	sk string // seedKey(key, seed)
}

// flight is an entry of the table: a queued twin (done nil), then a
// computation in flight until done closes.
type flight struct {
	id   flightKey
	done chan struct{}
	e    memoEntry
	ok   bool                         // the computation returned e
	twin func(run *cellRun) memoEntry // a twin's cell, at its seed
}

// ask returns the entry of cell key at o.Seed in m, and whether it was
// computed here. An asker whose key is running runs queued twins, then
// waits, and leads itself if that computation fails; one whose key is a
// queued twin takes it over.
func (x *executor) ask(m *Memo, key string, o Options, cell func(Options) any) (e memoEntry, computed bool) {
	id := flightKey{m, seedKey(key, o.Seed)}
	for {
		x.mu.Lock()
		e, ok := m.cells.Get(key)
		if !ok {
			e, ok = m.cells.Get(id.sk)
		}
		f := x.flights[id]
		switch {
		case ok:
			x.mu.Unlock()
			return e, false
		case f == nil || f.done == nil: // not in flight, or a queued twin to take over
			x.twins = slices.DeleteFunc(x.twins, func(t *flight) bool { return t == f })
			f = &flight{id: id, done: make(chan struct{})}
			x.flights[id] = f
			x.mu.Unlock()
			return x.lead(f, func() memoEntry { return m.measure(key, o, cell, &cellRun{}) }), true
		}
		t := x.nextTwin()
		x.mu.Unlock()
		if t != nil {
			x.compute(t)
			t.id.m.ahead.Done()
			continue
		}
		if <-f.done; f.ok {
			return f.e, false
		}
	}
}

// lead computes f's entry and ends its flight however that goes: a seeded
// entry is stored under its seed key (measure stores the others), and the
// waiters wake.
func (x *executor) lead(f *flight, compute func() memoEntry) memoEntry {
	defer func() {
		x.mu.Lock()
		if f.ok && f.e.seeded {
			f.id.m.cells.Put(f.id.sk, f.e)
		}
		delete(x.flights, f.id)
		x.mu.Unlock()
		close(f.done)
	}()
	f.e = compute()
	f.ok = true
	return f.e
}

// compute runs a started twin. Its events are taken back, to be counted
// when a run is served it. Its panic is dropped: nothing is stored, and
// the run that asks for the cell computes it, so only that run fails.
func (x *executor) compute(t *flight) {
	run := &cellRun{}
	defer func() {
		recover()
		events, _ := run.read()
		sim.CreditEvents(-int64(events))
	}()
	x.lead(t, func() memoEntry { return t.twin(run) })
}

// queueTwins queues cell's twins in m, at the batch's seeds after o.Seed
// where the key is not in the table or stored; none at GOMAXPROCS 1.
func (x *executor) queueTwins(m *Memo, key string, o Options, cell func(Options) any) {
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	i := slices.Index(m.seeds, o.Seed)
	if i < 0 {
		return
	}
	for _, seed := range m.seeds[i+1:] {
		id := flightKey{m, seedKey(key, seed)}
		if _, ok := m.cells.Get(id.sk); ok || x.flights[id] != nil {
			continue
		}
		c := o
		c.Seed = seed
		t := &flight{id: id, twin: func(run *cellRun) memoEntry { return m.measure(key, c, cell, run) }}
		x.flights[id] = t
		x.twins = append(x.twins, t)
	}
}

// close drops m's queued twins and queues no more for it (Memo.Close).
func (x *executor) close(m *Memo) {
	x.mu.Lock()
	defer x.mu.Unlock()
	m.seeds = nil
	for _, t := range x.twins {
		if t.id.m == m {
			delete(x.flights, t.id)
		}
	}
	x.twins = slices.DeleteFunc(x.twins, func(t *flight) bool { return t.id.m == m })
}
