package exp

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"prioplus/internal/cache"
	"prioplus/internal/sim"
)

// memoEntries bounds a Memo. An entry is one cell's printed summary, well
// under a kilobyte; the largest batch, `all` at one seed, has about 30
// distinct memoized cells, and each further seed adds the cells that read
// it.
const memoEntries = 256

// Memo simulates each hooks-off scenario cell once for everyone that
// shares it: the coflow runs (RunCoflow: fig12ab, fig15, fig17, fig18), the
// flow-scheduling cells of fig11 and fig16, and faultsweep's scheme cells.
// Its owner decides its scope — `all` keeps one per batch — and passes it
// to every run (Spec.Run); a run given none, or one with instruments on
// (every job-server job), simulates every cell itself, so fingerprints and
// artifacts never come from it.
//
// A cell is a function of its config, a struct of plain data that embeds
// Options, and is keyed on that config printed (memoKey). The seed is
// read only through the random streams its engine builds, which note the
// first read (sim.Engine.Seeded): a cell that ends without reading it is
// stored seed-free and serves every seed; the others are stored per seed.
// A hit hands back the cell's printed summary — never its flow records —
// and credits the logical events its run recorded (sim.CreditEvents), so
// a batch's event count does not depend on which cells hit.
//
// A seeded cell a run computes queues its twins: the same cell at each of
// the batch's later seeds (NewMemo), which those seeds' runs will ask for.
// Idle cores compute them ahead (drain), and so does a run while it waits
// for a cell another goroutine is computing. A twin is stored like any
// cell, its events taken back out of the count until a hit serves it; one
// that panics is dropped, and its run computes the cell itself. A run's own
// cells come before twins, so no run waits for twins it queued.
type Memo struct {
	cells        *cache.Cache[memoEntry]
	hits, misses atomic.Uint64
	// seeds is the batch's seeds in run order: a seeded cell computed at
	// one queues twins at the seeds after it.
	seeds []int64

	mu       sync.Mutex
	twins    []func()        // queued twins, oldest first
	queued   map[string]bool // every twin key ever queued, so none twice
	closed   bool            // the batch is over: queue and drain nothing more
	drainers sync.WaitGroup  // goroutines in work, counted under mu (enter)
}

// memoEntry is one cell's result, the logical events its run recorded, and
// whether it read its seed.
type memoEntry struct {
	val    any
	events uint64
	seeded bool
}

// NewMemo returns an empty memo for a batch that runs at seeds, in that
// order. With fewer than two seeds, or at GOMAXPROCS 1, no twin is queued.
func NewMemo(seeds []int64) *Memo {
	return &Memo{cells: cache.New[memoEntry](memoEntries), seeds: seeds, queued: map[string]bool{}}
}

// Stats returns how many cells the memo served (stored, or computed by a
// concurrent asker) and how many a run computed itself.
func (m *Memo) Stats() (hits, misses uint64) { return m.hits.Load(), m.misses.Load() }

// Close ends the batch: it drops the twins no goroutine has started, which
// no run will ask for now. With wait it also waits for the ones being
// computed; after that the batch's event count is exact and no goroutine
// of the memo runs. A batch that abandoned a run on timeout closes without
// waiting: a twin that run was waiting on can outlive the limit, and the
// abandoned run counts events on its own anyway.
func (m *Memo) Close(wait bool) {
	m.mu.Lock()
	m.closed, m.twins = true, nil
	m.mu.Unlock()
	if wait {
		m.drainers.Wait()
	}
}

// cellRun collects the engines one memoized cell builds (newNet), whose
// seed witnesses and event counts the memo reads when it returns.
type cellRun struct{ engs []*sim.Engine }

// cellConfig is a memoized cell's config C: plain data — no func,
// pointer, map, chan or interface outside its Options — that embeds
// Options, whose promoted options method reaches them.
type cellConfig[C any] interface {
	*C
	options() *Options
}

// memoKey is the one memo key: cfg printed with %#v — its type, every
// field by name, floats exactly — with its Options zeroed. Nothing in
// Options belongs in a key: the seed is read through the engine's streams
// (the seed witness), the recorder factory, the run order and the memo are
// the run's context, and a perturbed run skips the memo (memoize).
func memoKey[C any, P cellConfig[C]](cfg C) string {
	*P(&cfg).options() = Options{}
	return fmt.Sprintf("%#v", cfg)
}

// memoize returns cell(cfg) through the memo in cfg's Options, keyed by
// memoKey. Concurrent askers of one (key, seed) share one computation; a
// cell that returns without having read its seed is also stored under the
// bare key, where every seed finds it. Without a memo, with a recorder
// factory (an instrumented run) or with a perturbation, it just runs the
// cell.
//
// The memo may run cell again, at once on other goroutines, on a copy of
// cfg whose Options.Seed is a later seed of the batch (its twins). So cell
// reads the seed only from the config it is handed, and writes nothing
// shared.
func memoize[C any, P cellConfig[C], T any](cfg C, cell func(C) T) T {
	o := *P(&cfg).options()
	m := o.memo
	if m == nil || o.NewRecorder != nil || o.Perturb != 0 {
		return cell(cfg)
	}
	key := memoKey[C, P](cfg)
	run := func(o Options) any {
		c := cfg
		*P(&c).options() = o
		return cell(c)
	}
	sk := seedKey(key, o.Seed)
	for {
		if e, ok := m.cells.Get(key); ok {
			return m.hit(e).(T)
		}
		// Another goroutine is computing this cell: compute a queued twin
		// rather than wait idle.
		if !m.cells.Busy(sk) || !m.runTwin() {
			break
		}
	}
	e, computed := m.cells.Do(sk, func() (memoEntry, bool) {
		e := m.measure(key, o, run, &cellRun{})
		return e, e.seeded
	})
	if !computed {
		return m.hit(e).(T)
	}
	m.misses.Add(1)
	if e.seeded {
		m.queueTwins(key, o, run)
	}
	return e.val.(T)
}

// seedKey is the key a seeded cell is stored under.
func seedKey(key string, seed int64) string { return key + "|seed=" + strconv.FormatInt(seed, 10) }

// measure runs one cell on o, collecting its engines in run, and reads
// them: the events they recorded, and whether any read the seed. A cell
// that did not is stored under the bare key too.
func (m *Memo) measure(key string, o Options, cell func(Options) any, run *cellRun) memoEntry {
	o.cell = run
	e := memoEntry{val: cell(o)}
	e.events, e.seeded = run.read()
	if !e.seeded {
		m.cells.Put(key, e)
	}
	return e
}

// read sums the logical events the run's engines recorded, and says
// whether any of them read its seed.
func (r *cellRun) read() (events uint64, seeded bool) {
	for _, eng := range r.engs {
		events += eng.Events()
		seeded = seeded || eng.Seeded()
	}
	return events, seeded
}

// hit counts a served cell and credits its run's events.
func (m *Memo) hit(e memoEntry) any {
	m.hits.Add(1)
	sim.CreditEvents(int64(e.events))
	return e.val
}

// queueTwins queues cell's twins at the batch's seeds after o.Seed.
func (m *Memo) queueTwins(key string, o Options, cell func(Options) any) {
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	i := slices.Index(m.seeds, o.Seed)
	if i < 0 {
		return
	}
	m.mu.Lock()
	for _, seed := range m.seeds[i+1:] {
		sk := seedKey(key, seed)
		if m.closed || m.queued[sk] {
			continue
		}
		m.queued[sk] = true
		c := o
		c.Seed = seed
		m.twins = append(m.twins, func() {
			m.cells.TryDo(sk, func() (memoEntry, bool) {
				run := &cellRun{}
				// Dispatched now, counted when a run is served the twin;
				// a twin that panics is never served, and its run
				// computes and counts the cell itself.
				defer func() {
					events, _ := run.read()
					sim.CreditEvents(-int64(events))
				}()
				e := m.measure(key, c, cell, run)
				return e, e.seeded
			})
		})
	}
	m.mu.Unlock()
}

// runTwin computes the oldest queued twin, unless it is stored or being
// computed already, and reports whether there was one. A twin's panic is
// dropped here: nothing is stored, and the run that asks for the cell
// computes it itself, so the panic fails that run only.
func (m *Memo) runTwin() (ran bool) {
	m.mu.Lock()
	if len(m.twins) == 0 {
		m.mu.Unlock()
		return false
	}
	twin := m.twins[0]
	m.twins = m.twins[1:]
	m.mu.Unlock()
	defer func() { recover() }()
	ran = true
	twin()
	return ran
}

// drain computes queued twins on the helper slot its caller took, until
// none is left, then gives the slot back. done runs once the memo counts
// the goroutine, so a Close after done waits for the drain; with no twin
// queued, or no memo, the slot is given back first.
func (m *Memo) drain(done func()) {
	if m == nil || !m.enter() {
		helpers.Add(-1)
		done()
		return
	}
	done()
	defer m.drainers.Done()
	defer helpers.Add(-1)
	for m.runTwin() {
	}
}

// enter counts a draining goroutine, unless the memo is closed or no twin
// waits. Counting under mu orders every count before Close's Wait.
func (m *Memo) enter() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || len(m.twins) == 0 {
		return false
	}
	m.drainers.Add(1)
	return true
}
