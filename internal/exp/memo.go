package exp

import (
	"fmt"
	"strconv"
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
// A cell is keyed on a canonical encoding of everything it reads but the
// seed (the key methods below). The seed is read only through the random
// streams its engine builds, which note the first read (sim.Engine.Seeded):
// a cell that ends without reading it is stored seed-free and serves every
// seed; the others are stored per seed. A hit hands back the cell's printed
// summary — never its flow records — and credits the logical events its run
// recorded (sim.CreditEvents), so a batch's event count does not depend on
// which cells hit.
type Memo struct {
	cells        *cache.Cache[memoEntry]
	hits, misses atomic.Uint64
}

// memoEntry is one cell's result and the logical events its run recorded.
type memoEntry struct {
	val    any
	events uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{cells: cache.New[memoEntry](memoEntries)} }

// Stats returns how many cells the memo served (stored, or computed by a
// concurrent asker) and how many it computed.
func (m *Memo) Stats() (hits, misses uint64) { return m.hits.Load(), m.misses.Load() }

// cellRun collects the engines one memoized cell builds (newNet), whose
// seed witnesses and event counts the memo reads when it returns.
type cellRun struct{ engs []*sim.Engine }

// memoize returns cell(o) through o.memo under key. Concurrent askers of
// one (key, seed) share one computation; a cell that returns without
// having read its seed is also stored under the bare key, where every seed
// finds it. Without a memo, or with a recorder factory (an instrumented
// run), it just runs the cell.
func memoize[T any](o Options, key string, cell func(o Options) T) T {
	m := o.memo
	if m == nil || o.NewRecorder != nil {
		return cell(o)
	}
	if e, ok := m.cells.Get(key); ok {
		return m.hit(e).(T)
	}
	e, computed := m.cells.Do(key+"|seed="+strconv.FormatInt(o.Seed, 10), func() (memoEntry, bool) {
		run := &cellRun{}
		c := o
		c.cell = run
		e := memoEntry{val: cell(c)}
		seeded := false
		for _, eng := range run.engs {
			e.events += eng.Events()
			seeded = seeded || eng.Seeded()
		}
		if !seeded {
			m.cells.Put(key, e)
		}
		return e, seeded
	})
	if !computed {
		return m.hit(e).(T)
	}
	m.misses.Add(1)
	return e.val.(T)
}

// hit counts a served cell and credits its run's events.
func (m *Memo) hit(e memoEntry) any {
	m.hits.Add(1)
	sim.CreditEvents(e.events)
	return e.val
}

// The key methods encode a cell's inputs canonically: the config printed
// with %#v — every field by name, floats exactly — after the fields %#v
// cannot print stably are zeroed and encoded on their own. Those are the
// Scheme (its funcs), and the Options: the seed is left out, and a
// recorder factory never reaches a key (memoize).

// key encodes the scheme as a fabric of nprios virtual priorities sees it:
// its name, which names its controller, its flags, and what its queue
// functions return for nprios.
func (s Scheme) key(nprios int) string {
	q := s.queues(nprios)
	queueOf := make([]int, nprios)
	for p := range queueOf {
		queueOf[p] = s.queueFor(p, nprios, q)
	}
	flags := s
	flags.queues, flags.losslessPrios, flags.queueFor, flags.newAlgo = nil, nil, nil, nil
	return fmt.Sprintf("%#v queues=%d lossless=%d map=%v", flags, q, s.losslessPrios(nprios), queueOf)
}

// optionsKey encodes what a run reads of its Options besides the seed. It
// is not a method: a promoted key method would answer for a config that
// has no key of its own.
func optionsKey(o Options) string {
	return fmt.Sprintf("perturb=%d faults=%s", o.Perturb, o.Faults.Key())
}

func (c CoflowConfig) key() string {
	k := c
	k.Scheme, k.Options = Scheme{}, Options{}
	return fmt.Sprintf("coflow %#v %s %s", k, c.Scheme.key(c.nPrios), optionsKey(c.Options))
}

func (c flowSchedConfig) key() string {
	k := c
	k.scheme, k.Options = Scheme{}, Options{}
	return fmt.Sprintf("flowsched %#v %s %s", k, c.scheme.key(c.nPrios), optionsKey(c.Options))
}

// key encodes one scheme's cell of the sweep; the scheme list is not read
// by the cell.
func (c faultSweepConfig) key(s Scheme) string {
	k := c
	k.schemes, k.Options = nil, Options{}
	return fmt.Sprintf("faultsweep %#v %s %s", k, s.key(c.nPrios), optionsKey(c.Options))
}
