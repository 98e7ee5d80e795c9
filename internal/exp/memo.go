package exp

import (
	"fmt"
	"strconv"
	"sync"

	"prioplus/internal/cache"
	"prioplus/internal/sim"
)

// memoEntries bounds a Memo. An entry is one cell's printed summary, well
// under a kilobyte; `all` at one seed asks for about 30 distinct cells,
// and each further seed adds the cells that read it.
const memoEntries = 256

// Memo simulates each hooks-off scenario cell once for everyone that
// shares it: the coflow runs (RunCoflow: fig12ab, fig15, fig17, fig18), the
// flow-scheduling cells of fig11 and fig16, and faultsweep's scheme cells.
// `all` keeps one per batch and passes it to every run (Spec.Run); a run
// given none, or with instruments on (every job-server job), simulates
// every cell itself, so fingerprints and artifacts never come from it.
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
// A seeded cell a run computes has twins, the same cell at each of the
// batch's later seeds (NewMemo), which the executor (exec) computes ahead.
type Memo struct {
	cells *cache.Cache[memoEntry]
	seeds []int64        // the batch's, in run order, under exec.mu; Close clears it
	ahead sync.WaitGroup // twins being computed, counted under exec.mu

	mu    sync.Mutex
	asked map[string]bool // the entries the batch asked for (misses)
	hits  uint64
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
	return &Memo{cells: cache.New[memoEntry](memoEntries), seeds: seeds, asked: map[string]bool{}}
}

// Stats returns the memo's misses, the distinct entries the batch asked
// for (a seed-free cell once, a seeded one once per seed), and its hits,
// every other ask: both depend on the batch, not on who computed what.
func (m *Memo) Stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, uint64(len(m.asked))
}

// Close ends the batch: it drops the twins not yet started, and with wait
// waits for the others, after which the event count is exact. A batch that
// abandoned a run on timeout does not wait: a twin that run waited on can
// outlive the limit, and the run counts events on its own anyway.
func (m *Memo) Close(wait bool) {
	exec.close(m)
	if wait {
		m.ahead.Wait()
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
// memoKey (exec.ask); a cell that did not read its seed is stored under
// the bare key, for every seed. Without a memo, with a recorder factory
// (an instrumented run) or a perturbation, it just runs the cell. The
// executor may run cell at once on other goroutines at the batch's later
// seeds (twins), so cell reads the seed only from its config and writes
// nothing shared.
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
	e, computed := exec.ask(m, key, o, run)
	m.count(key, o.Seed, e)
	if !computed {
		sim.CreditEvents(int64(e.events))
	} else if e.seeded {
		exec.queueTwins(m, key, o, run)
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

// count records one ask served e: a miss the first time the batch asks for
// e's entry, a hit after.
func (m *Memo) count(key string, seed int64, e memoEntry) {
	if e.seeded {
		key = seedKey(key, seed)
	}
	m.mu.Lock()
	if m.asked[key] {
		m.hits++
	}
	m.asked[key] = true
	m.mu.Unlock()
}
