package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// This file implements the engine's event queue: a hierarchical timing
// wheel with a sorted "due" run in front of it and an overflow heap behind
// it. It replaced the single binary heap of PR 2 (kept as the reference
// scheduler in wheel_test.go) because most simulator events are
// short-horizon — serialization completions, propagation arrivals, pacing
// ticks — exactly the regime where O(1) slot insertion beats an O(log n)
// sift. See docs/ARCHITECTURE.md ("The timing-wheel event queue") for the
// design discussion and docs/PERFORMANCE.md for the measured effect.
//
// Layout
//
//	due run    events with slot tick <= cursor: everything inside (or
//	           behind) the current level-0 slot window, as a slice sorted
//	           by (time, seq) and consumed from the front: a pop advances
//	           an index. This is the only structure consulted per pop.
//	wheel      numLevels levels of 1<<levelBits slots. A slot is an
//	           unordered, intrusive singly linked list threaded through
//	           the pooled Events themselves (Event.next), so filing an
//	           event is two pointer stores and the wheel owns no memory
//	           beyond its slot heads. Per-level bitmaps mark occupied
//	           slots so advancing across empty time is a TrailingZeros
//	           scan, not a slot walk. Level 0 slots are slotWidth wide;
//	           each higher level is 1<<levelBits times coarser.
//	overflow   min-heap for events beyond the top level's horizon (~8.8 s
//	           of simulated time). Effectively never used by the
//	           experiments (the longest timers are millisecond RTOs), but
//	           it makes the engine total: any int64 timestamp schedules.
//
// Placement discipline (no-wrap): an event is filed at the lowest level l
// whose parent slot (level l+1) currently contains the cursor. This keeps
// every occupied slot index strictly ahead of the cursor index at its
// level, so level bitmaps never wrap and "next occupied slot" is a single
// masked scan. The cost is that an event can cascade through at most
// numLevels-1 re-files as the cursor approaches it — amortized O(1), and
// only paid by long-horizon events (RTO timers, samplers, far-future
// arrivals).
//
// Ordering guarantee: the wheel alone orders events only to slotWidth
// granularity, so a whole slot is decanted into the (empty) due run and
// sorted once, which restores the strict (time, seq) total order before
// anything fires; an event scheduled at or behind the cursor afterwards is
// inserted at its sorted position. Determinism is therefore identical to
// the old global heap: simultaneous events fire in scheduling order, and
// all figure outputs are byte-for-byte what they were
// (TestEngineHeapEquivalence and FuzzEngineVsHeap pin this against the
// retained reference heap).
//
// Allocation: none once warm. Events come from the engine's free list, slot
// chains live inside them, and the due run and overflow heap are slices
// that keep their high-water capacity.

const (
	// slotBits sets the level-0 slot width: 1<<13 ps = 8.192 ns. Measured
	// on the fat-tree workloads a level-0 slot holds 5.5 (faultsweep) to
	// 7.6 (fig16) entries when it drains, a handful the insertion sort
	// orders in a few compares. The due run restores exact (time, seq)
	// order at any slot width, so this constant is pure performance
	// tuning: wider slots mean longer sorts and more inserts behind the
	// cursor, narrower ones more cursor advances per event.
	slotBits = 13
	// slotWidth is the level-0 slot span in picoseconds.
	slotWidth = Time(1) << slotBits
	// levelBits gives 1024 slots per level; a level spans 1024× its slot
	// width: L0 ≈ 8.4 us, L1 ≈ 8.6 ms, L2 ≈ 8.8 s. A slot is one pointer,
	// so wide levels are cheap (24 KB of slot heads per engine), and a
	// level 0 that covers a fabric RTT lets µs-scale deliveries file where
	// they drain instead of cascading from level 1.
	levelBits = 10
	numSlots  = 1 << levelBits
	slotMask  = numSlots - 1
	numLevels = 3
	// bitmapWords is the per-level occupancy bitmap size.
	bitmapWords = numSlots / 64
	// sortCutover is the run length above which a freshly drained due run
	// is ordered by slices.SortFunc instead of insertion sort.
	sortCutover = 24
)

// wheelLevel is one ring of slot heads plus its occupancy bitmap.
type wheelLevel struct {
	slots  [numSlots]*Event
	bitmap [bitmapWords]uint64
}

// nextSlot returns the smallest occupied slot index strictly greater than
// after, or -1. The no-wrap placement discipline guarantees occupied
// slots never sit at or behind the cursor, so a forward scan is complete.
func (lv *wheelLevel) nextSlot(after int) int {
	i := after + 1
	if i >= numSlots {
		return -1
	}
	w := i >> 6
	b := lv.bitmap[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w++
		if w >= bitmapWords {
			return -1
		}
		b = lv.bitmap[w]
	}
}

// place files a newly scheduled event. The caller guarantees ev.at >= the
// engine clock; the wheel cursor may be ahead of the clock (it advances
// speculatively to the next occupied slot), in which case the event joins
// the due run at its sorted position.
func (e *Engine) place(ev *Event) {
	tick := uint64(ev.at) >> slotBits
	if tick <= e.wheelTick {
		e.insertDue(ev.entry())
		return
	}
	e.fileAhead(ev, tick)
}

// fileAhead links an event whose tick is strictly ahead of the cursor into
// its wheel slot, or pushes it on the overflow heap.
func (e *Engine) fileAhead(ev *Event, tick uint64) {
	for l := 0; l < numLevels; l++ {
		if tick>>uint((l+1)*levelBits) == e.wheelTick>>uint((l+1)*levelBits) {
			// Same parent slot as the cursor: file at level l. The index
			// is strictly ahead of the cursor's index at this level (see
			// the no-wrap note above).
			idx := int(tick>>uint(l*levelBits)) & slotMask
			lv := &e.levels[l]
			ev.next = lv.slots[idx]
			lv.slots[idx] = ev
			lv.bitmap[idx>>6] |= 1 << (uint(idx) & 63)
			e.nwheel++
			return
		}
	}
	e.overflow.push(ev.entry())
}

// insertDue inserts ent into the unconsumed part of the sorted due run,
// stepping back from the end over the entries that fire after it. The
// common inserts step over nothing or next to nothing: events scheduled in
// (time, seq) order behind a cursor that ran ahead of the clock, and
// same-instant or sub-slot re-schedules into a slot's handful of entries.
func (e *Engine) insertDue(ent entry) {
	e.due = append(e.due, ent)
	sink(e.due, e.dueHead, len(e.due)-1)
}

// sink moves d[i] down to its sorted position within d[lo:i], which must
// already be sorted: one step of an insertion sort.
func sink(d []entry, lo, i int) {
	x := d[i]
	for i > lo && x.less(d[i-1]) {
		d[i] = d[i-1]
		i--
	}
	d[i] = x
}

// refile moves an event taken out of a drained slot (or the overflow heap)
// one step toward dispatch: canceled events are reclaimed on the spot,
// events whose slot the cursor has reached are appended to the due run
// UNSORTED — the caller sorts once when the drain completes — and the rest
// re-file at a lower level (never the one they came from: the cursor now
// sits inside their former parent slot).
func (e *Engine) refile(ev *Event) {
	if ev.state == evCanceled {
		e.ncanceled--
		e.recycle(ev)
		return
	}
	tick := uint64(ev.at) >> slotBits
	if tick <= e.wheelTick {
		e.due = append(e.due, ev.entry())
		return
	}
	e.fileAhead(ev, tick)
}

// sortDue orders a freshly filled due run by (time, seq). Drains only ever
// fill an empty run (see refillDue), so this is one sort per slot:
// insertion sort for the usual handful, pdqsort for a dense slot.
func (e *Engine) sortDue() {
	d := e.due
	if len(d) > sortCutover {
		slices.SortFunc(d, func(a, b entry) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		return
	}
	for i := 1; i < len(d); i++ {
		sink(d, 0, i)
	}
}

// refillDue makes the due run nonempty if any event exists anywhere,
// advancing the wheel cursor (and draining the overflow heap) as needed.
// Reports whether there is a next event. Slots and the overflow heap are
// only ever drained into an empty run.
func (e *Engine) refillDue() bool {
	for {
		if e.dueHead < len(e.due) {
			return true
		}
		e.due, e.dueHead = e.due[:0], 0
		if e.nwheel > 0 {
			e.advanceWheel()
			continue
		}
		if len(e.overflow) > 0 {
			e.jumpToOverflow()
			continue
		}
		return false
	}
}

// advanceWheel moves the cursor forward to the next occupied slot and
// decants it. Events at level l always precede events at level l+1 (level
// l covers the cursor's current parent slot; level l+1 only holds events
// beyond it), so scanning levels lowest-first finds the earliest slot.
func (e *Engine) advanceWheel() {
	for l := 0; l < numLevels; l++ {
		cur := int(e.wheelTick>>uint(l*levelBits)) & slotMask
		j := e.levels[l].nextSlot(cur)
		if j < 0 {
			continue
		}
		// Enter slot j at level l: cursor indices below level l reset to
		// the slot's start.
		tickL := e.wheelTick >> uint(l*levelBits)
		e.wheelTick = ((tickL &^ slotMask) | uint64(j)) << uint(l*levelBits)
		e.drainSlot(l, j)
		return
	}
	panic("sim: wheel occupancy count does not match bitmaps")
}

// drainSlot empties slot j of level l by walking its chain: a level-0
// slot decants whole into the due run, a higher-level slot cascades — its
// first level-0 slot's worth goes to the due run, the rest re-file below.
func (e *Engine) drainSlot(l, j int) {
	lv := &e.levels[l]
	ev := lv.slots[j]
	lv.slots[j] = nil
	lv.bitmap[j>>6] &^= 1 << (uint(j) & 63)
	for ev != nil {
		next := ev.next // refile may relink ev into another slot
		e.nwheel--
		e.refile(ev)
		ev = next
	}
	// A chain is LIFO; reversed, the run is in scheduling order, which is
	// most of the way to time order (about 40% fewer moves in the sort).
	slices.Reverse(e.due)
	e.sortDue()
}

// jumpToOverflow teleports the cursor to the earliest overflow event and
// drains every overflow entry that now falls inside the top level's
// window back into the wheel. Only reached when the due run and all wheel
// levels are empty, so the jump is always forward.
func (e *Engine) jumpToOverflow() {
	const topShift = numLevels * levelBits
	e.wheelTick = uint64(e.overflow[0].at) >> slotBits
	for len(e.overflow) > 0 &&
		uint64(e.overflow[0].at)>>slotBits>>topShift == e.wheelTick>>topShift {
		e.refile(e.overflow.pop().ev)
	}
	e.sortDue()
}

// queuedEntries returns the number of entries resident in the queue
// structures, canceled ones included. It is the denominator of the
// compaction trigger.
func (e *Engine) queuedEntries() int {
	return len(e.due) - e.dueHead + e.nwheel + len(e.overflow)
}

// compact sweeps canceled entries out of every structure, recycling their
// events, so a pathological cancel/re-schedule loop cannot hold memory
// proportional to history. Triggered from Cancel when canceled entries
// dominate; amortized O(1) per Cancel. Filtering preserves relative
// order, so a partly consumed due run stays sorted (its consumed prefix is
// dropped on the way).
func (e *Engine) compact() {
	keep := func(s []entry, from int) []entry {
		kept := s[:0]
		for _, ent := range s[from:] {
			if ent.ev.state == evCanceled {
				e.recycle(ent.ev)
				continue
			}
			kept = append(kept, ent)
		}
		clear(s[len(kept):])
		return kept
	}
	e.due, e.dueHead = keep(e.due, e.dueHead), 0
	e.overflow = keep(e.overflow, 0)
	e.overflow.reinit()
	for l := range e.levels {
		lv := &e.levels[l]
		for w := range lv.bitmap {
			for bm := lv.bitmap[w]; bm != 0; bm &= bm - 1 {
				j := w<<6 + bits.TrailingZeros64(bm)
				for link := &lv.slots[j]; *link != nil; {
					ev := *link
					if ev.state != evCanceled {
						link = &ev.next
						continue
					}
					*link = ev.next
					e.nwheel--
					e.recycle(ev)
				}
				if lv.slots[j] == nil {
					lv.bitmap[j>>6] &^= 1 << (uint(j) & 63)
				}
			}
		}
	}
	// Every canceled entry lives in one of the three structures just swept.
	e.ncanceled = 0
}

// --- entryHeap: a hand-rolled binary min-heap over (time, seq) entries ---
//
// The overflow heap (far-future events, near-empty in practice). Value
// entries, no interface calls, no index bookkeeping.

type entryHeap []entry

func (h *entryHeap) push(ent entry) {
	*h = append(*h, ent)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ent.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ent
}

func (h *entryHeap) pop() entry {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = entry{}
	s = s[:n]
	*h = s
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown places ent at index i, restoring heap order below it.
func (h entryHeap) siftDown(i int, ent entry) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(ent) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ent
}

// reinit re-establishes the heap property after in-place filtering.
func (h entryHeap) reinit() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}
