package obs_test

import (
	"bytes"
	"reflect"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// readSeries writes a recorder holding only ss as an artifact and reads it
// back: the production path to a series set's sampled columns.
func readSeries(t *testing.T, ss *obs.SeriesSet) *obs.Artifact {
	t.Helper()
	rec := obs.NewRecorder()
	rec.Series = ss
	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, "run", rec); err != nil {
		t.Fatal(err)
	}
	art, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// column returns the named series of an artifact; it fails the test when
// the series is missing.
func column(t *testing.T, art *obs.Artifact, name string) []float64 {
	t.Helper()
	for _, s := range art.Series {
		if s.Name == name {
			return s.V
		}
	}
	t.Fatalf("series %s missing", name)
	return nil
}

func TestSeriesSetSampling(t *testing.T) {
	ss := obs.NewSeriesSet(10 * sim.Microsecond)
	ss.Start = 5 * sim.Microsecond
	var a, b float64
	ss.Add("net/a", "bytes", func() float64 { return a })
	ss.Add("net/b", "packets", func() float64 { return b })

	a, b = 1, 10
	ss.Sample()
	a, b = 2.5, 20
	ss.Sample()

	// Sample i lands at Start + (i+1)*Interval.
	if got := ss.TimeAt(0); got != 15*sim.Microsecond {
		t.Errorf("TimeAt(0) = %v, want 15us", got)
	}
	if got := ss.TimeAt(1); got != 25*sim.Microsecond {
		t.Errorf("TimeAt(1) = %v, want 25us", got)
	}
	all := ss.All()
	if len(all) != 2 || all[0].Name != "net/a" || all[1].Name != "net/b" || all[1].Unit != "packets" {
		t.Error("All() does not preserve registration order")
	}
	art := readSeries(t, ss)
	if got := column(t, art, "net/a"); !reflect.DeepEqual(got, []float64{1, 2.5}) {
		t.Errorf("net/a read back as %v, want [1 2.5]", got)
	}
	if got := column(t, art, "net/b"); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Errorf("net/b read back as %v, want [10 20]", got)
	}
	if art.TimeAtUS(1) != 25 {
		t.Errorf("sample 1 read back at %vus, want 25", art.TimeAtUS(1))
	}
}

func TestSeriesSetBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSeriesSet(0) did not panic")
		}
	}()
	obs.NewSeriesSet(0)
}

// TestSeriesSetEmptyWritesNoSamples: a set never ticked declares its
// columns and writes no sample line.
func TestSeriesSetEmptyWritesNoSamples(t *testing.T) {
	ss := obs.NewSeriesSet(sim.Microsecond)
	ss.Add("x", "v", func() float64 { return 1 })
	if art := readSeries(t, ss); len(art.Series) != 1 || len(column(t, art, "x")) != 0 {
		t.Errorf("unticked set read back as %+v, want one empty column", art.Series)
	}
}

// TestSeriesSampleZeroAllocWarm pins the hot-path contract: Sample encodes
// its line into the open chunk without allocating; only a new chunk, one
// per encoderFlushAt bytes of lines, does.
func TestSeriesSampleZeroAllocWarm(t *testing.T) {
	ss := obs.NewSeriesSet(sim.Microsecond)
	for i := 0; i < 8; i++ {
		ss.Add("s", "v", func() float64 { return 1 })
	}
	for i := 0; i < 4200; i++ {
		ss.Sample()
	}
	if allocs := testing.AllocsPerRun(100, ss.Sample); allocs != 0 {
		t.Errorf("warm Sample allocates %v per op, want 0", allocs)
	}
}

// TestSeriesSetChunksKeepLineOrder: sampling across many chunks writes every
// line once, in tick order, with its own values.
func TestSeriesSetChunksKeepLineOrder(t *testing.T) {
	ss := obs.NewSeriesSet(sim.Microsecond)
	v := 0.0
	for j := 0; j < 40; j++ {
		j := j
		ss.Add("s", "v", func() float64 { return v*100 + float64(j) + 0.125 })
	}
	const ticks = 5000 // ~1.5 MB of lines: two dozen chunks
	for i := 0; i < ticks; i++ {
		v = float64(i)
		ss.Sample()
	}
	art := readSeries(t, ss)
	for j, s := range art.Series {
		if len(s.V) != ticks {
			t.Fatalf("column %d has %d samples, want %d", j, len(s.V), ticks)
		}
		for i, got := range s.V {
			if want := float64(i)*100 + float64(j) + 0.125; got != want {
				t.Fatalf("column %d tick %d = %v, want %v", j, i, got, want)
			}
		}
	}
}
