package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/obs"
	"prioplus/internal/serve"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "1024": 1024,
		"4k": 4 << 10, "4K": 4 << 10,
		"128m": 128 << 20, "2G": 2 << 30,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "-4k", "1t", "k"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestSanitizeTag(t *testing.T) {
	cases := map[string]string{
		"incast":           "incast",
		"Physical* w/o CC": "Physical--w-o-CC",
		"baseline/Swift":   "baseline-Swift",
		"pp/np=8":          "pp-np-8",
		"a.b_c-D9":         "a.b_c-D9",
	}
	for in, want := range cases {
		if got := obs.SanitizeTag(in); got != want {
			t.Errorf("obs.SanitizeTag(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestObsSinkDisabled: with no obs flag set the CLI resolves to the zero
// instrument set, which runs an experiment hooks-off — no sink, no recorder.
func TestObsSinkDisabled(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	flags := addObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	ins, err := flags.resolve()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := serve.Execute("fig10b", exp.RunParams{Seed: 1}, ins, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Errorf("%d recorders handed out with no obs flags set", len(runs))
	}
}

// writeTestArtifact writes rec's artifact for run "tag" into a temp dir.
func writeTestArtifact(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "figX__tag__seed1.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteArtifact(f, "tag", rec); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportRoundTrip: an artifact renders through the report path without
// error and mentions its run, series, metrics and histograms.
func TestReportRoundTrip(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
	rec.Hist = obs.NewHistSet()
	rec.Series.Add("net/test_series", "bytes", func() float64 { return 42 })
	for i := 0; i < 5; i++ {
		rec.Series.Sample()
	}
	rec.Hist.FCT.Observe(1000)
	rec.Metrics.Counter("net/things").Add(3)

	var rep bytes.Buffer
	if err := reportFile(&rep, writeTestArtifact(t, rec), 40); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`run "tag"`, "net/test_series", "net/things", "transport/fct"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestExpandArtifactArgs pins the report/trace argument contract: missing
// paths and artifact-less directories are loud errors, never an empty
// report; directories expand to their artifacts in sorted order.
func TestExpandArtifactArgs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.jsonl", "a.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := expandArtifactArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("expanded %v, want %v", got, want)
	}

	if _, err := expandArtifactArgs([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("missing file accepted")
	}
	empty := t.TempDir()
	_, err = expandArtifactArgs([]string{empty})
	if err == nil || !strings.Contains(err.Error(), "no artifacts") {
		t.Errorf("empty dir error = %v, want a no-artifacts message", err)
	}
}

// TestReportAndTraceExitNonZeroOnBadDir drives the subcommands end to end:
// a missing directory and an empty directory both exit 1 with a message,
// instead of rendering an empty table.
func TestReportAndTraceExitNonZeroOnBadDir(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(empty, "nope")
	for _, args := range [][]string{{missing}, {empty}} {
		if code := runReport(args); code == 0 {
			t.Errorf("report %v exited 0", args)
		}
		if code := runTrace(args); code == 0 {
			t.Errorf("trace %v exited 0", args)
		}
	}
}

// TestTraceNoFlowsInArtifact: an artifact recorded without -trace-flows
// renders as an error pointing at the flag, not as an empty timeline.
func TestTraceNoFlowsInArtifact(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
	var out bytes.Buffer
	err := traceFile(&out, writeTestArtifact(t, rec), nil, 3)
	if err == nil || !strings.Contains(err.Error(), "-trace-flows") {
		t.Fatalf("err = %v, want a hint to record with -trace-flows", err)
	}
}

// TestTraceRendersFlowTimeline: an artifact with flow spans renders journeys
// and decisions, and selecting an untraced flow errors.
func TestTraceRendersFlowTimeline(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
	rec.FlowTrace = obs.NewFlowTracer(4)
	fl := rec.FlowTrace.Admit(3)
	fl.Add(obs.Span{T: 0, Kind: obs.SpanDecStart, A: 25.8, B: 28.2})
	fl.Add(obs.Span{T: 2_000_000, Kind: obs.SpanHop, Seq: 1500, Delay: 400_000, Dev: "star", A: 4096})
	fl.Add(obs.Span{T: 3_000_000, Kind: obs.SpanDeliver, Seq: 1500, Delay: 1_000_000})
	fl.Add(obs.Span{T: 4_000_000, Kind: obs.SpanAcked, Seq: 1500, Delay: 2_000_000, A: 9000, B: 4500})
	fl.Add(obs.Span{T: 5_000_000, Kind: obs.SpanDecYield, Delay: 28_500_000, A: 2.2, B: 2})
	fl.Add(obs.Span{T: 6_000_000, Kind: obs.SpanDecResume, Delay: 14_000_000, A: 1})
	path := writeTestArtifact(t, rec)
	var out bytes.Buffer
	if err := traceFile(&out, path, nil, -1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flow 3", "journey seq=1500", "hop star", "rtt=2.00us",
		"yield", "stop sending", "yielded 1 time(s)", "channel [25.8us, 28.2us]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trace output missing %q:\n%s", want, out.String())
		}
	}
	if err := traceFile(io.Discard, path, []int64{99}, 3); err == nil {
		t.Error("selecting an untraced flow did not error")
	}
}

// TestResolveTraceNeedsSeries: flow tracing without -series has nowhere to
// deliver spans, so resolve rejects it up front.
func TestResolveTraceNeedsSeries(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	flags := addObsFlags(fs)
	if err := fs.Parse([]string{"-trace-flows", "4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := flags.resolve(); err == nil || !strings.Contains(err.Error(), "-series") {
		t.Fatalf("resolve = %v, want a -series requirement error", err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	flags = addObsFlags(fs)
	dir := t.TempDir()
	if err := fs.Parse([]string{"-trace-match", "1, 7", "-series", dir}); err != nil {
		t.Fatal(err)
	}
	ins, err := flags.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !ins.Series || ins.Dir != dir {
		t.Errorf("-series %s resolved to Series=%v Dir=%q", dir, ins.Series, ins.Dir)
	}
	if len(ins.TraceMatch) != 2 || ins.TraceMatch[0] != 1 || ins.TraceMatch[1] != 7 {
		t.Errorf("TraceMatch = %v, want [1 7]", ins.TraceMatch)
	}
}
