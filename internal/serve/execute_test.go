package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/obs"
)

func newTestSink(ins Instruments, exp string, seed int64) *sink {
	return &sink{ins: ins, exp: exp, seed: seed, seen: map[string]int{}}
}

// TestSinkArtifactNaming: one artifact per recorder, deduped stems, written
// where Dir points; and -trace-match alone sizes the tracer's flow cap.
func TestSinkArtifactNaming(t *testing.T) {
	dir := t.TempDir()
	s := newTestSink(Instruments{Series: true, Dir: dir, TraceMatch: []int64{1, 7}}, "fig99", 7)
	rec := s.Recorder("a/b")
	s.Recorder("a/b") // same tag twice: must not clobber
	if rec.FlowTrace == nil || rec.FlowTrace.MaxFlows != 2 {
		t.Errorf("FlowTrace cap = %+v, want MaxFlows 2", rec.FlowTrace)
	}
	var out bytes.Buffer
	if err := s.flush(&out); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"fig99__a-b__seed7", "fig99__a-b__seed7-2"} {
		if s.runs[i].Stem != want {
			t.Errorf("run %d stem = %q, want %q", i, s.runs[i].Stem, want)
		}
		if _, err := os.Stat(filepath.Join(dir, want+".jsonl")); err != nil {
			t.Errorf("artifact %s not written: %v", want, err)
		}
	}
}

// TestSinkOneFlightDumpPerRun: a run that both trips the watchdog and
// violates the audit (they share a sampler tick) used to dump the flight
// ring twice to the same path — the second os.Create truncating the first —
// and print two "last N trace events" lines. One dump, one line naming both
// reasons; a single reason keeps its line byte for byte.
func TestSinkOneFlightDumpPerRun(t *testing.T) {
	const detail = "pool: 1 live packets != 0 queued + 0 in propagation"
	cases := []struct {
		name          string
		trip, violate bool
		want          string // the line, up to the event count
	}{
		{"both", true, true, `# watchdog tripped (inflight_bytes) and AUDIT VIOLATION in run "r": ` + detail + " — engine stopped, last 3 trace events in "},
		{"watchdog", true, false, `# watchdog tripped (inflight_bytes) in run "r": engine stopped, last 3 trace events in `},
		{"audit", false, true, `# AUDIT VIOLATION in run "r": ` + detail + " — engine stopped, last 3 trace events in "},
	}
	for _, c := range cases {
		dir := t.TempDir()
		s := newTestSink(Instruments{Series: true, Dir: dir, MaxBytes: 1, Audit: true}, "figX", 1)
		rec := s.Recorder("r")
		em := rec.Emitter()
		for i := 0; i < 3; i++ {
			ev := em.Next()
			*ev = obs.Event{T: 1, Kind: obs.Enqueue, Dev: rec.Devs.ID("tor0"), Flow: int64(i + 1)}
			em.Emit(ev)
		}
		if c.trip {
			rec.Watchdog.Check(2, 0)
		}
		if c.violate {
			rec.Audit.Violate(detail)
		}
		var out bytes.Buffer
		if err := s.flush(&out); (err != nil) != c.violate {
			t.Errorf("%s: flush error = %v, want an error exactly when the audit violated", c.name, err)
		}
		path := filepath.Join(dir, "figX__r__seed1.flight.jsonl")
		if got := out.String(); got != c.want+path+"\n" {
			t.Errorf("%s: flush printed\n%swant\n%s%s", c.name, got, c.want, path)
		}
		dump, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := strings.Count(string(dump), "\n"); n != 3 || !strings.Contains(string(dump), `"dev":"tor0"`) {
			t.Errorf("%s: dump holds %d events, want the ring's 3 with device names:\n%s", c.name, n, dump)
		}
	}

	// A driver that arms its own watchdog (fig18's uncontrolled baseline)
	// does so on a recorder with no flight ring: the line is still printed,
	// over zero events, and no file is written.
	dir := t.TempDir()
	s := newTestSink(Instruments{Fingerprint: true, Dir: dir}, "figX", 1)
	rec := s.Recorder("r")
	rec.Watchdog = &obs.Watchdog{MaxInflightBytes: 1}
	rec.Watchdog.Check(2, 0)
	var out bytes.Buffer
	if err := s.flush(&out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "figX__r__seed1.flight.jsonl")
	if want := `# watchdog tripped (inflight_bytes) in run "r": engine stopped, last 0 trace events in ` + path + "\n"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("driver-armed watchdog: flush printed\n%swant prefix\n%s", out.String(), want)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("driver-armed watchdog: a flight dump was written without a flight ring")
	}
}

// TestSinkWritesRunWhenCollected: a run's artifact is final as soon as its
// metrics are collected — while later runs of the sweep are still to come —
// its bulky instruments are released then, and flush neither rewrites it nor
// loses the summaries. It holds for both destinations: the CLI's -series
// directory and the job server's in-result capture.
func TestSinkWritesRunWhenCollected(t *testing.T) {
	for _, dest := range []string{"dir", "captured"} {
		dir := ""
		if dest == "dir" {
			dir = t.TempDir()
		}
		s := newTestSink(Instruments{Series: true, Dir: dir, Hist: true, Fingerprint: true, TraceFlows: 1}, "figX", 1)
		// read returns what is stored for run i so far, "" if nothing.
		read := func(i int) string {
			if dir == "" {
				return s.runs[i].Lines
			}
			data, _ := os.ReadFile(filepath.Join(dir, s.runs[i].Stem+".jsonl"))
			return string(data)
		}
		first := s.Recorder("a")
		first.Series.Add("net/x", "bytes", func() float64 { return 1 })
		first.Series.Sample()
		first.Hist.FCT.Observe(1000)
		first.OnCollected() // what harness.Net.CollectMetrics does last
		second := s.Recorder("b")
		before := read(0)
		if !strings.Contains(before, `"net/x"`) {
			t.Fatalf("%s: artifact not written at collection: %q", dest, before)
		}
		if first.Series != nil || first.FlowTrace != nil {
			t.Errorf("%s: the first run still holds its series / span rings when the second asks for its recorder", dest)
		}
		if read(1) != "" {
			t.Errorf("%s: uncollected run already written", dest)
		}
		second.Series.Add("net/x", "bytes", func() float64 { return 2 })
		var out bytes.Buffer
		if err := s.flush(&out); err != nil {
			t.Fatal(err)
		}
		if read(0) != before {
			t.Errorf("%s: flush rewrote an artifact that was already final", dest)
		}
		if read(1) == "" {
			t.Errorf("%s: flush did not finish the uncollected run", dest)
		}
		for _, want := range []string{"# hist a transport/fct", "# fingerprint a chain=", "# fingerprint b chain="} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: flush output lacks %q:\n%s", dest, want, out.String())
			}
		}
	}
}

// TestCLIAndServerAgree: the CLI's `<id> -fingerprint -series DIR` and an
// `"artifact": true` job are the same Execute call apart from where the
// artifact bytes go, so output, stems and artifact bytes must be equal.
// fig10b is one run; faultsweep is a four-run sweep.
func TestCLIAndServerAgree(t *testing.T) {
	ids := []string{"fig10b", "faultsweep"}
	s := New(Config{Workers: 1})
	jobs := make([]JobSnapshot, len(ids))
	for i, id := range ids {
		var err error
		jobs[i], err = s.Submit(JobSpec{Experiment: id, Params: exp.RunParams{Seed: 1}, Artifact: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // waits for both jobs, however slow the race detector makes them
	for i, id := range ids {
		dir := t.TempDir()
		var cli bytes.Buffer
		runs, err := Execute(id, exp.RunParams{Seed: 1}, Instruments{Fingerprint: true, Series: true, Dir: dir}, &cli)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Result(jobs[i].ID)
		if err != nil || res.Status != JobDone {
			t.Fatalf("%s job: status %q, %v %s", id, res.Status, err, res.Err)
		}
		if res.Output != cli.String() {
			t.Errorf("%s: job output differs from the CLI's:\njob:\n%s\ncli:\n%s", id, res.Output, cli.String())
		}
		if len(res.Artifacts) != len(runs) {
			t.Fatalf("%s: job returned %d artifacts, the CLI ran %d runs", id, len(res.Artifacts), len(runs))
		}
		for k, a := range res.Artifacts {
			if a.Stem != runs[k].Stem {
				t.Errorf("%s: artifact %d stem %q, the CLI's is %q", id, k, a.Stem, runs[k].Stem)
			}
			disk, err := os.ReadFile(filepath.Join(dir, runs[k].Stem+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if a.Lines != string(disk) {
				t.Errorf("%s: artifact %s: job result holds %d bytes, the -series file %d, or they differ",
					id, a.Stem, len(a.Lines), len(disk))
			}
		}
	}
}
