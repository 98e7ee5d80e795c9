package sim

import "math/bits"

// digestPrime is the FNV-64a prime, reused for every mixing step of the
// digest chain. The chain is not cryptographic — it is a cheap, stable
// fold whose only job is to make two event streams that differ anywhere
// keep differing from the first divergent event onward.
const digestPrime = 1099511628211

// digestOffset is the FNV-64a offset basis, the chain's starting value.
const digestOffset = 14695981039346656037

// DigestCheckpointEvery is the initial checkpoint interval: a Ckpt record
// is cut every this many dispatched events. When the checkpoint buffer
// fills, Digest compacts it (keeps every second record, doubles the
// interval), so memory stays bounded and long runs self-coarsen.
const DigestCheckpointEvery = 1024

// digestCkptCap bounds the checkpoint buffer. The capacity is fixed at
// construction so the fold path never grows a slice (0 allocs per event).
const digestCkptCap = 2048

// DigestMaxRecs caps the full-event window recording (SetWindow). A window
// wider than this is truncated — Truncated reports it — so a careless
// window cannot balloon memory.
const DigestMaxRecs = 1 << 21

// Ckpt is one digest checkpoint: the chain value after exactly Count
// dispatched events, with the simulated clock at that moment. Two runs of
// the same experiment diverge strictly after the last checkpoint whose
// (Count, Chain) pair matches in both.
type Ckpt struct {
	Count uint64 // dispatched events folded so far
	Clock Time   // simulated time of the Count-th event
	Chain uint64 // chain hash after folding it
}

// EventRec is one fully recorded event from a digest window: everything
// the diff subcommand needs to name the first divergent event — dispatch
// position, clock, FIFO seq, kind tag, the payload digest folded by the
// instrumented device hooks, and the chain value after the fold.
type EventRec struct {
	Count uint64
	Clock Time
	Seq   uint64
	Kind  uint8
	Pay   uint64 // accumulated payload digest (0 if no hook fired)
	Chain uint64

	// Raw first payload triple of the event (see FoldPayload): PayTag
	// names the device, PayA/PayB carry packet identity in the encoding
	// documented at netsim's digest hooks. Valid when PayN > 0; PayN
	// counts how many payload folds the event made in total.
	PayTag, PayA, PayB uint64
	PayN               uint32
}

// Digest is a rolling execution fingerprint: each dispatched event folds
// (time, seq, kind) plus an optional payload digest into an FNV-style
// chain. Install it on an engine with SetDigest; instrumented devices
// (ports, hosts) call FoldPayload during their callbacks to mix packet
// identity in, and the engine folds the accumulated payload with the
// event frame when the callback returns.
//
// The chain is a pure observation: it depends only on the dispatched
// event stream, which is invariant across observability configurations
// (samplers consume no seq numbers and the lazy transmitter wake-up posts
// identical events either way), so the same binary, experiment, and seed
// produce the same chain whether or not any other instrument is on.
type Digest struct {
	Chain uint64 // rolling chain hash
	Count uint64 // events folded
	pay   uint64 // payload accumulator for the event in flight

	// Raw capture of the event's first payload triple, for EventRec
	// context (the chain itself only sees the hash).
	payTag, payA, payB uint64
	payN               uint32

	every uint64 // current checkpoint interval, always a power of two
	Ckpts []Ckpt // bounded checkpoint buffer (see compaction note above)

	// Full-event window recording for divergence pinpointing: events with
	// Count in [recLo, recHi) are recorded verbatim, up to DigestMaxRecs.
	recLo, recHi uint64
	Recs         []EventRec
	truncated    bool

	// Names maps payload tags (see FoldPayload) to human-readable device
	// names, so EventRecs can be rendered with device context. Filled by
	// the harness at install time; never touched on the fold path.
	Names map[uint64]string
}

// NewDigest returns a digest with checkpointing enabled at the default
// interval and no recording window.
func NewDigest() *Digest {
	return &Digest{
		Chain: digestOffset,
		every: DigestCheckpointEvery,
		Ckpts: make([]Ckpt, 0, digestCkptCap),
		recLo: ^uint64(0),
	}
}

// SetWindow arms full-event recording for dispatch counts in [lo, hi).
// Recording is capped at DigestMaxRecs events; Truncated reports whether
// the cap was hit. Call before the run starts.
func (d *Digest) SetWindow(lo, hi uint64) {
	if hi < lo {
		hi = lo
	}
	n := hi - lo
	if n > DigestMaxRecs {
		n = DigestMaxRecs
	}
	d.recLo, d.recHi = lo, hi
	d.Recs = make([]EventRec, 0, n)
	d.truncated = false
}

// Truncated reports whether the recording window overflowed DigestMaxRecs
// and later events in the window were dropped.
func (d *Digest) Truncated() bool { return d.truncated }

// FoldPayload mixes a payload triple into the accumulator for the event
// currently being dispatched: tag identifies the device (see Names), and
// a/b carry event-specific identity (packet id and flow, byte counts,
// pause codes). Multiple calls during one callback accumulate in call
// order; the engine folds the result with the event frame and resets the
// accumulator when the callback returns. Zero allocations.
func (d *Digest) FoldPayload(tag, a, b uint64) {
	h := d.pay
	h = (h ^ tag) * digestPrime
	h = (h ^ bits.RotateLeft64(a, 16)) * digestPrime
	h = (h ^ bits.RotateLeft64(b, 40)) * digestPrime
	d.pay = h
	if d.payN == 0 {
		d.payTag, d.payA, d.payB = tag, a, b
	}
	d.payN++
}

// fold advances the chain over one dispatched event. Called by the engine
// after the event's callback returns, so any FoldPayload calls the
// callback made are already accumulated in pay.
func (d *Digest) fold(at Time, seq uint64, kind uint8) {
	v := uint64(at) ^ bits.RotateLeft64(seq, 24) ^ uint64(kind)<<56 ^ d.pay
	pay := d.pay
	d.pay = 0
	d.Chain = (d.Chain ^ v) * digestPrime
	d.Count++
	if d.Count >= d.recLo && d.Count < d.recHi && !d.truncated {
		if len(d.Recs) < cap(d.Recs) {
			d.Recs = append(d.Recs, EventRec{
				Count: d.Count, Clock: at, Seq: seq, Kind: kind,
				Pay: pay, Chain: d.Chain,
				PayTag: d.payTag, PayA: d.payA, PayB: d.payB, PayN: d.payN,
			})
		} else {
			d.truncated = true
		}
	}
	d.payN = 0
	// every is a power of two (it starts as one and only ever doubles), so
	// the per-event checkpoint test is a mask, not a 64-bit divide.
	if d.Count&(d.every-1) == 0 {
		if len(d.Ckpts) == cap(d.Ckpts) {
			d.compactCkpts()
		}
		d.Ckpts = append(d.Ckpts, Ckpt{Count: d.Count, Clock: at, Chain: d.Chain})
	}
}

// compactCkpts halves the checkpoint buffer by keeping every second
// record and doubles the interval, preserving the invariant that kept
// records fall on multiples of the (new) interval. Amortized O(1) per
// checkpoint; never allocates (the buffer is reused in place).
func (d *Digest) compactCkpts() {
	n := 0
	for i := 1; i < len(d.Ckpts); i += 2 {
		d.Ckpts[n] = d.Ckpts[i]
		n++
	}
	d.Ckpts = d.Ckpts[:n]
	d.every *= 2
}

// SetDigest installs (or, with nil, removes) a per-event digest chain on
// the engine: after each dispatched event's callback returns, the engine
// folds (time, seq, kind) plus the accumulated payload digest into the
// chain. Sampler firings are not folded — they are clock-driven
// observations, not events, and folding them would make the chain depend
// on the observability configuration.
func (e *Engine) SetDigest(d *Digest) { e.hooked().dig = d }
