package netsim

import (
	"math"

	"prioplus/internal/sim"
)

// BufferConfig sizes a switch's shared packet buffer and its admission
// policies. The defaults mirror the paper's setup: dynamic-threshold shared
// buffer [Choudhury-Hahne], PFC with per-(port,priority) headroom for
// lossless priorities.
type BufferConfig struct {
	// TotalBytes is the physical buffer size. The paper sets this either
	// from a buffer/bandwidth ratio (Fig 11: 4.4 MB/Tbps, Tomahawk4) or
	// directly (32 MB for the coflow and ML scenarios).
	TotalBytes int

	// DTAlpha is the dynamic-threshold coefficient: a queue may accept a
	// packet while its length is below DTAlpha * (free shared buffer).
	DTAlpha float64

	// PFCEnabled turns on lossless operation for the first LosslessPrios
	// priorities.
	PFCEnabled bool

	// LosslessPrios is the number of lossless priority classes. Headroom
	// is reserved per port per lossless priority.
	LosslessPrios int

	// HeadroomBytes is the PFC headroom reserved per (port, lossless
	// priority): enough buffer to absorb in-flight data after a pause is
	// sent (2x link BDP plus two MTU-sized frames is typical).
	HeadroomBytes int

	// PFCAlpha is the dynamic XOFF coefficient: an ingress (port,prio)
	// class is paused when its occupancy exceeds PFCAlpha * (free shared
	// buffer). Resume happens at half the pause point.
	PFCAlpha float64

	// PerQueueMin is a per-egress-queue minimum guarantee admitted even
	// when the shared pool is exhausted, as in real shared-buffer chips.
	// Without it, headroom reservations for many lossless priorities can
	// consume the entire shared pool and starve the (lossy) ACK queue,
	// deadlocking the network instead of merely degrading it.
	PerQueueMin int

	// HeadroomFree models the paper's ideal physical priority (Physical*):
	// PFC headroom still absorbs in-flight data but is not reserved out of
	// the shared pool, as if the switch had unlimited extra buffer for it.
	HeadroomFree bool

	// ECNKMin/ECNKMax/ECNPMax configure RED-style ECN marking on egress
	// queues. With KMin == KMax the marking is a step at KMin (DCTCP).
	// KMin <= 0 disables marking.
	ECNKMin int
	ECNKMax int
	ECNPMax float64

	// ECNKByVPrio, when non-nil, gives each virtual priority its own step
	// marking threshold, indexed by Packet.VPrio (out-of-range uses
	// ECNKMin). This is the paper's Appendix B direction: priority-
	// dependent ECN marking lets ECN-based CCs approximate virtual
	// priority in one queue — at the cost of a switch change, which is
	// why the paper leaves it as future work.
	ECNKByVPrio []int
}

// DefaultBufferConfig returns a lossless 32 MB shared-buffer configuration
// with 8 lossless priorities, matching the paper's coflow/ML scenarios.
func DefaultBufferConfig() BufferConfig {
	return BufferConfig{
		TotalBytes:    32 << 20,
		DTAlpha:       1,
		PFCEnabled:    true,
		LosslessPrios: 8,
		HeadroomBytes: 100 << 10,
		PFCAlpha:      1.0 / 8,
		PerQueueMin:   16 << 10,
		ECNKMin:       0,
		ECNKMax:       0,
		ECNPMax:       1,
	}
}

// sharedBuffer tracks switch buffer occupancy. Lossless traffic is
// accounted per ingress (port, priority) class; each class may spill into
// its reserved headroom after its pause threshold is crossed.
//
// The per-class state lives in flat arenas indexed port*nprios+prio — one
// cache-dense array per quantity instead of a slice-of-slices — so an
// admit/release touches one line per quantity with no pointer chase.
type sharedBuffer struct {
	cfg     BufferConfig
	nprios  int // arena stride: prios per port
	shared  int // bytes available to the shared pool
	used    int // shared pool occupancy
	UsedHWM int // highest shared-pool occupancy seen
	hdrUsed int // total headroom occupancy across all ingress classes
	HdrHWM  int // highest headroom occupancy seen

	// Per ingress (port, prio) class state, indexed port*nprios+prio.
	ing    []int // shared-pool + headroom bytes held by the class
	hdr    []int // headroom bytes held by the class
	paused []bool

	// Exact integer replacements for the threshold float math, valid when
	// the corresponding alpha is a power of two (the defaults are:
	// PFCAlpha 1/8, DTAlpha 1). See xoff and dtExceeds for the exactness
	// argument; pow2Exponent for the detection.
	xoffShift int
	xoffExact bool
	dtShift   int
	dtExact   bool

	Drops      int64
	DropBytes  int64
	PausesSent int64
}

func newSharedBuffer(cfg BufferConfig, nports, nprios int) *sharedBuffer {
	b := &sharedBuffer{cfg: cfg, nprios: nprios}
	reserved := 0
	if cfg.PFCEnabled && !cfg.HeadroomFree {
		lossless := min(cfg.LosslessPrios, nprios)
		reserved = nports * lossless * cfg.HeadroomBytes
	}
	b.shared = cfg.TotalBytes - reserved
	if b.shared < 0 {
		b.shared = 0
	}
	b.ing = make([]int, nports*nprios)
	b.hdr = make([]int, nports*nprios)
	b.paused = make([]bool, nports*nprios)
	b.xoffShift, b.xoffExact = pow2Exponent(cfg.PFCAlpha)
	b.dtShift, b.dtExact = pow2Exponent(cfg.DTAlpha)
	return b
}

// pow2Exponent reports whether a == 2^e exactly for some e in [-30, 30],
// returning that e. The range bound keeps the shift arithmetic in xoff and
// dtExceeds overflow-free for any byte count below 2^32.
func pow2Exponent(a float64) (int, bool) {
	for e := -30; e <= 30; e++ {
		if a == math.Ldexp(1, e) {
			return e, true
		}
	}
	return 0, false
}

// Used returns the shared-pool occupancy in bytes.
func (b *sharedBuffer) Used() int { return b.used }

// HeadroomUsed returns the total PFC headroom occupancy in bytes. Under
// heavy incast most queued bytes live here, not in the shared pool: once
// an ingress class crosses xoff, everything it receives spills into its
// headroom reservation until the upstream pause takes effect.
func (b *sharedBuffer) HeadroomUsed() int { return b.hdrUsed }

func (b *sharedBuffer) lossless(prio int) bool {
	return b.cfg.PFCEnabled && prio < b.cfg.LosslessPrios
}

// xoff returns the dynamic pause threshold for an ingress class. When
// PFCAlpha is an exact power of two (the default 1/8 is), the float
// multiply is replaced by an integer shift that provably computes the same
// value: alpha*float64(free) is exact for any |free| < 2^53 (both factors
// are dyadic rationals and the product needs no rounding), and truncating
// an exact non-negative dyadic equals free >> k. Negative free (possible
// transiently via the PerQueueMin guarantee pushing used past shared)
// keeps the float path, where int()'s truncation toward zero differs from
// a shift's floor — though both land below the floor clamp regardless.
func (b *sharedBuffer) xoff() int {
	var t int
	if free := b.shared - b.used; b.xoffExact && free >= 0 {
		if e := b.xoffShift; e >= 0 {
			t = free << uint(e)
		} else {
			t = free >> uint(-e)
		}
	} else {
		t = int(b.cfg.PFCAlpha * float64(free))
	}
	const floor = 2 * (DefaultMTU + HeaderBytes)
	if t < floor {
		t = floor
	}
	return t
}

// charge adds size bytes to the shared-pool occupancy, tracking the
// high-water mark.
func (b *sharedBuffer) charge(size int) {
	b.used += size
	if b.used > b.UsedHWM {
		b.UsedHWM = b.used
	}
}

// admitLossless charges an arriving packet to ingress class (port, prio).
// It returns whether the packet is admitted and whether a PFC pause should
// be sent upstream.
func (b *sharedBuffer) admitLossless(port, prio, size int) (admitted, sendPause bool) {
	i := port*b.nprios + prio
	ing := b.ing[i] + size
	if b.ing[i] <= b.xoff() && b.used+size <= b.shared {
		b.charge(size)
	} else {
		// Over threshold (or shared pool exhausted): spill into headroom.
		if b.hdr[i]+size > b.cfg.HeadroomBytes {
			b.Drops++
			b.DropBytes += int64(size)
			return false, false
		}
		b.hdr[i] += size
		b.hdrUsed += size
		if b.hdrUsed > b.HdrHWM {
			b.HdrHWM = b.hdrUsed
		}
	}
	b.ing[i] = ing
	if !b.paused[i] && ing > b.xoff() {
		b.paused[i] = true
		b.PausesSent++
		return true, true
	}
	return true, false
}

// dtExceeds reports whether an egress queue of q bytes exceeds the dynamic
// threshold DTAlpha * (shared - used). With DTAlpha == 2^e (the default 1 is
// e == 0) the float comparison collapses to an exact integer one: both
// floats are exact (|values| < 2^53, the product only shifts the
// exponent), so `float64(q) > 2^e*float64(free)` is the rational
// comparison q > free*2^e, which cross-multiplies into shifts — exact for
// either sign of free, since q >= 0. Non-power-of-two alphas keep the
// original float math.
func (b *sharedBuffer) dtExceeds(q int) bool {
	free := b.shared - b.used
	if b.dtExact {
		if e := b.dtShift; e >= 0 {
			return int64(q) > int64(free)<<uint(e)
		} else {
			return int64(q)<<uint(-e) > int64(free)
		}
	}
	return float64(q) > b.cfg.DTAlpha*float64(free)
}

// admitLossy applies dynamic-threshold admission against the egress queue
// length, with a per-queue minimum guarantee below which packets are
// always admitted.
func (b *sharedBuffer) admitLossy(egressQLen, size int) bool {
	if egressQLen+size <= b.cfg.PerQueueMin {
		b.charge(size)
		return true
	}
	if b.used+size > b.shared || b.dtExceeds(egressQLen+size) {
		b.Drops++
		b.DropBytes += int64(size)
		return false
	}
	b.charge(size)
	return true
}

// release uncharges a departing packet and reports whether a PFC resume
// should be sent upstream for its ingress class.
func (b *sharedBuffer) release(port, prio, size int, lossless bool) (sendResume bool) {
	if !lossless {
		b.used -= size
		return false
	}
	i := port*b.nprios + prio
	b.ing[i] -= size
	// Headroom is drained first so the class re-enters the shared pool.
	if h := b.hdr[i]; h > 0 {
		if size <= h {
			b.hdr[i] -= size
			b.hdrUsed -= size
		} else {
			b.hdr[i] = 0
			b.hdrUsed -= h
			b.used -= size - h
		}
	} else {
		b.used -= size
	}
	if b.paused[i] && b.ing[i] <= b.xoff()/2 {
		b.paused[i] = false
		return true
	}
	return false
}

// ecnMark decides whether an ECT data packet should be CE-marked given the
// egress queue length after enqueue. rnd is a uniform [0,1) sample used for
// RED-style probabilistic marking.
func (cfg *BufferConfig) ecnMark(qlen int, vprio int16, rnd float64) bool {
	if cfg.ECNKByVPrio != nil && int(vprio) >= 0 && int(vprio) < len(cfg.ECNKByVPrio) {
		return qlen > cfg.ECNKByVPrio[vprio]
	}
	if cfg.ECNKMin <= 0 {
		return false
	}
	if qlen <= cfg.ECNKMin {
		return false
	}
	if qlen >= cfg.ECNKMax || cfg.ECNKMax <= cfg.ECNKMin {
		return true
	}
	p := cfg.ECNPMax * float64(qlen-cfg.ECNKMin) / float64(cfg.ECNKMax-cfg.ECNKMin)
	return rnd < p
}

// PauseDuration is unused by the simulator (pause/resume is explicit), but
// the quanta-based PFC watchdog interval is exposed for tests that verify
// pauses cannot deadlock silently.
const PauseDuration = 65535 * 512 * sim.Picosecond
