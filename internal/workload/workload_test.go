package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prioplus/internal/sim"
)

func TestWebSearchShape(t *testing.T) {
	d := WebSearch()
	mean := d.Mean()
	if mean < 1.0e6 || mean > 2.5e6 {
		t.Errorf("WebSearch mean = %.3g bytes, want ~1.6 MB", mean)
	}
	rng := rand.New(rand.NewSource(1))
	small := 0
	const n = 100_000
	var maxSize int64
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < 100_000 {
			small++
		}
		if s > maxSize {
			maxSize = s
		}
		if s < 6000 || s > 20_000_000 {
			t.Fatalf("sample %d outside [6 KB, 20 MB]", s)
		}
	}
	// ~58% of flows are under 100 KB in the web-search distribution.
	frac := float64(small) / n
	if frac < 0.45 || frac > 0.70 {
		t.Errorf("fraction under 100 KB = %.2f, want ~0.58", frac)
	}
}

func TestSampleMeanMatchesAnalyticMean(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	got := sum / n
	want := d.Mean()
	if got < want*0.95 || got > want*1.05 {
		t.Errorf("empirical mean %.4g vs analytic %.4g", got, want)
	}
}

func TestPoissonLoad(t *testing.T) {
	d := WebSearch()
	cfg := PoissonConfig{
		Hosts:    16,
		Load:     0.7,
		LinkBps:  100e9,
		Dist:     d,
		Duration: 50 * sim.Millisecond,
		Rng:      rand.New(rand.NewSource(3)),
	}
	evs := Poisson(cfg)
	var bytes float64
	for _, e := range evs {
		if e.Src == e.Dst {
			t.Fatal("flow with src == dst")
		}
		if e.At < 0 || e.At >= cfg.Duration {
			t.Fatalf("arrival %v outside duration", e.At)
		}
		bytes += float64(e.Size)
	}
	offered := bytes * 8 / cfg.Duration.Seconds() // bits/s across the fabric
	want := 0.7 * 100e9 * 16
	if offered < want*0.85 || offered > want*1.15 {
		t.Errorf("offered load %.3g b/s, want ~%.3g", offered, want)
	}
	// Arrivals must be time-sorted.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestIncast(t *testing.T) {
	evs := Incast(300, 64000, 5, sim.Millisecond)
	if len(evs) != 300 {
		t.Fatalf("got %d flows, want 300", len(evs))
	}
	seen := map[int]bool{}
	for _, e := range evs {
		if e.Dst != 5 || e.Src == 5 {
			t.Fatal("bad incast addressing")
		}
		if seen[e.Src] {
			t.Fatal("duplicate sender")
		}
		seen[e.Src] = true
		if e.At != sim.Millisecond {
			t.Fatal("incast must be synchronized")
		}
	}
}

func TestCoflowGeneratorShape(t *testing.T) {
	cfg := DefaultCoflowConfig(64, 0.7, 100e9, 20*sim.Millisecond, rand.New(rand.NewSource(4)))
	cfs := Coflows(cfg)
	if len(cfs) < 10 {
		t.Fatalf("only %d coflows generated", len(cfs))
	}
	var minTotal, maxTotal int64 = 1 << 62, 0
	fileReqs := 0
	for _, cf := range cfs {
		if len(cf.Flows) == 0 {
			t.Fatal("empty coflow")
		}
		var sum int64
		for _, f := range cf.Flows {
			if f.Src == f.Dst {
				t.Fatal("coflow flow with src == dst")
			}
			if f.Size <= 0 {
				t.Fatal("non-positive flow size")
			}
			sum += f.Size
		}
		if sum != cf.Total {
			t.Fatal("coflow Total mismatch")
		}
		if cf.Total < minTotal {
			minTotal = cf.Total
		}
		if cf.Total > maxTotal {
			maxTotal = cf.Total
		}
		if len(cf.Flows) == cfg.FileFanIn && cf.Flows[0].Size == cfg.FileSize/int64(cfg.FileFanIn) {
			fileReqs++
		}
	}
	if maxTotal < 20*minTotal {
		t.Errorf("coflow totals span %.1fx, want orders of magnitude (heavy tail)", float64(maxTotal)/float64(minTotal))
	}
	if fileReqs == 0 {
		t.Error("no file-request coflows generated")
	}
}

func TestRingAllReduce(t *testing.T) {
	m := ResNet("r0", []int{0, 1, 2, 3})
	steps := m.RingAllReduce()
	if len(steps) != 6 { // 2*(4-1)
		t.Fatalf("got %d steps, want 6", len(steps))
	}
	chunk := m.GradBytes / 4
	for _, st := range steps {
		if len(st.Flows) != 4 {
			t.Fatalf("step has %d flows, want 4", len(st.Flows))
		}
		for i, f := range st.Flows {
			if f.Size != chunk {
				t.Errorf("chunk size %d, want %d", f.Size, chunk)
			}
			if f.Dst != m.Hosts[(i+1)%4] {
				t.Error("ring successor wrong")
			}
		}
	}
	want := 2 * 3 * chunk
	if got := commBytes(m); got != want {
		t.Errorf("bytes per worker per iteration = %d, want %d", got, want)
	}
}

// commBytes returns the bytes the ring's first worker transmits in one
// all-reduce: 2*(n-1)/n * GradBytes.
func commBytes(m Model) int64 {
	var total int64
	for _, st := range m.RingAllReduce() {
		for _, f := range st.Flows {
			if f.Src == m.Hosts[0] {
				total += f.Size
			}
		}
	}
	return total
}

func TestVGGIsCommBound(t *testing.T) {
	// At 100 Gb/s, VGG's per-iteration communication exceeds its compute
	// time (communication-bound), while ResNet's does not. This asymmetry
	// is what makes priority interleaving profitable (§6.2).
	hosts := []int{0, 1, 2}
	vgg := VGG("v", hosts)
	res := ResNet("r", hosts)
	wire := func(m Model) sim.Time {
		return sim.FromSeconds(float64(commBytes(m)) / (100e9 / 8))
	}
	if wire(vgg) < vgg.Compute {
		t.Errorf("VGG comm %v < compute %v; should be communication-bound", wire(vgg), vgg.Compute)
	}
	if wire(res) > res.Compute {
		t.Errorf("ResNet comm %v > compute %v; should be compute-bound", wire(res), res.Compute)
	}
}

// Property: SizeDist.Sample always returns a size within the distribution
// support.
func TestSizeDistSupportProperty(t *testing.T) {
	d := WebSearch()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			s := d.Sample(rng)
			if s < 6000 || s > 20_000_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
