package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

func TestFlowLogRingBound(t *testing.T) {
	ft := obs.NewFlowTracer(1)
	ft.MaxSpans = 4
	fl := ft.Admit(1)
	if fl == nil {
		t.Fatal("flow 1 not admitted")
	}
	for i := 0; i < 10; i++ {
		fl.Add(obs.Span{T: sim.Time(i), Kind: obs.SpanHop, Seq: int64(i)})
	}
	if fl.Len() != 4 {
		t.Fatalf("ring holds %d spans, want 4", fl.Len())
	}
	if fl.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", fl.Dropped)
	}
	var seqs []int64
	fl.Spans(func(sp obs.Span) { seqs = append(seqs, sp.Seq) })
	if want := []int64{6, 7, 8, 9}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("ring kept %v, want the newest %v", seqs, want)
	}
}

func TestFlowTracerAdmission(t *testing.T) {
	ft := obs.NewFlowTracer(2)
	if ft.Admit(10) == nil || ft.Admit(11) == nil {
		t.Fatal("first two flows not admitted")
	}
	if ft.Admit(12) != nil {
		t.Error("flow admitted past MaxFlows")
	}
	if ft.Admit(10) != ft.Log(10) {
		t.Error("re-admission returned a different log")
	}
	if ft.Log(12) != nil {
		t.Error("Log returned a log for an unadmitted flow")
	}
	logs := ft.Logs()
	if len(logs) != 2 || logs[0].Flow != 10 || logs[1].Flow != 11 {
		t.Errorf("Logs() not in admission order: %+v", logs)
	}
	// The zero cap admits nothing, and a nil tracer is inert.
	if obs.NewFlowTracer(0).Admit(1) != nil {
		t.Error("zero-cap tracer admitted a flow")
	}
	var nilFT *obs.FlowTracer
	if nilFT.Admit(1) != nil || nilFT.Log(1) != nil || nilFT.Logs() != nil {
		t.Error("nil tracer not inert")
	}
	if nilFT.JourneyStride() != 1 {
		t.Error("nil tracer journey stride != 1")
	}
}

func TestFlowTracerMatch(t *testing.T) {
	ft := obs.NewFlowTracer(8)
	ft.Match = []int64{3, 5}
	for id := int64(1); id <= 6; id++ {
		ft.Admit(id)
	}
	logs := ft.Logs()
	if len(logs) != 2 || logs[0].Flow != 3 || logs[1].Flow != 5 {
		t.Errorf("Match admitted %+v, want flows 3 and 5", logs)
	}
}

func TestFlowTracerEveryDeterministic(t *testing.T) {
	admit := func() []int64 {
		ft := obs.NewFlowTracer(1000)
		ft.Every = 4
		var got []int64
		for id := int64(0); id < 256; id++ {
			if ft.Admit(id) != nil {
				got = append(got, id)
			}
		}
		return got
	}
	a, b := admit(), admit()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Every-stride admission not deterministic")
	}
	if len(a) == 0 || len(a) > 256/2 {
		t.Errorf("Every=4 admitted %d of 256 flows, want a thinned sample", len(a))
	}
}

// recordingTracer captures forwarded events, standing in for the flight
// recorder / JSONL sink behind the flow tracer.
type recordingTracer struct{ evs []obs.Event }

func (r *recordingTracer) Trace(ev *obs.Event) { r.evs = append(r.evs, *ev) }

func TestFlowTracerTraceChaining(t *testing.T) {
	ft := obs.NewFlowTracer(1)
	fl := ft.Admit(7)
	inner := &recordingTracer{}
	ft.Inner = inner
	ft.Devs = &obs.DevTable{}
	tor0 := ft.Devs.ID("tor0")

	ft.Trace(&obs.Event{T: 10, Kind: obs.Drop, Dev: tor0, Flow: 7, Seq: 1500, Bytes: 1000})
	ft.Trace(&obs.Event{T: 20, Kind: obs.Mark, Dev: tor0, Flow: 7, Seq: 3000, QLen: 4096})
	ft.Trace(&obs.Event{T: 30, Kind: obs.Drop, Dev: tor0, Flow: 8, Seq: 0, Bytes: 500}) // unsampled
	ft.Trace(&obs.Event{T: 40, Kind: obs.Enqueue, Dev: tor0, Flow: 7})                  // not a journey kind

	var got []obs.Span
	fl.Spans(func(sp obs.Span) { got = append(got, sp) })
	want := []obs.Span{
		{T: 10, Kind: obs.SpanDrop, Seq: 1500, Dev: "tor0", A: 1000},
		{T: 20, Kind: obs.SpanMark, Seq: 3000, Dev: "tor0", A: 4096},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans = %+v, want %+v", got, want)
	}
	if len(inner.evs) != 4 {
		t.Errorf("inner tracer saw %d events, want all 4", len(inner.evs))
	}
}

func TestSpanKindNamesRoundTrip(t *testing.T) {
	kinds := []obs.SpanKind{
		obs.SpanHop, obs.SpanDeliver, obs.SpanAcked, obs.SpanProbeAcked,
		obs.SpanRetx, obs.SpanRTO, obs.SpanDrop, obs.SpanMark, obs.SpanDone,
		obs.SpanDecStart, obs.SpanDecYield, obs.SpanDecProbe, obs.SpanDecProbeAns,
		obs.SpanDecResume, obs.SpanDecCardEst, obs.SpanDecCardDecay,
		obs.SpanDecLinearStart, obs.SpanDecAdaptiveInc, obs.SpanDecAIRestore,
		obs.SpanDecCut, obs.SpanDecGrow,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "unknown" || seen[name] {
			t.Errorf("kind %d has bad or duplicate name %q", k, name)
		}
		seen[name] = true
		back, ok := obs.SpanKindByName(name)
		if !ok || back != k {
			t.Errorf("SpanKindByName(%q) = %v, %v; want %v", name, back, ok, k)
		}
		if wantDec := k >= obs.SpanDecStart; k.Decision() != wantDec {
			t.Errorf("kind %q Decision() = %v, want %v", name, k.Decision(), wantDec)
		}
	}
	if _, ok := obs.SpanKindByName("no-such-kind"); ok {
		t.Error("SpanKindByName accepted an unknown name")
	}
}

// TestArtifactFlowSpansRoundTrip: flow logs serialize into the artifact and
// read back span-for-span, including the ring's drop counter.
func TestArtifactFlowSpansRoundTrip(t *testing.T) {
	rec := obs.NewRecorder()
	ft := obs.NewFlowTracer(2)
	ft.MaxSpans = 2
	rec.FlowTrace = ft

	a := ft.Admit(1)
	a.Add(obs.Span{T: 1000, Kind: obs.SpanDecStart, A: 25.8, B: 28.2})
	a.Add(obs.Span{T: 2000, Kind: obs.SpanHop, Seq: 1500, Delay: 500, Dev: "star", A: 4096})
	a.Add(obs.Span{T: 3000, Kind: obs.SpanDecYield, Delay: 28500, A: 2.25, B: 2}) // overwrites T=1000
	b := ft.Admit(2)
	b.Add(obs.Span{T: 1500, Kind: obs.SpanAcked, Seq: 3000, Delay: 17140, A: 9027, B: 9000})

	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, "trace-test", rec); err != nil {
		t.Fatal(err)
	}
	art, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Flows) != 2 {
		t.Fatalf("artifact has %d flows, want 2", len(art.Flows))
	}
	f1 := art.Flows[0]
	if f1.ID != 1 || f1.Dropped != 1 || len(f1.Spans) != 2 {
		t.Fatalf("flow 1 = id %d dropped %d spans %d, want 1/1/2", f1.ID, f1.Dropped, len(f1.Spans))
	}
	hop := f1.Spans[0]
	if hop.Kind != "hop" || hop.Seq != 1500 || hop.Dev != "star" || hop.A != 4096 {
		t.Errorf("hop span mangled: %+v", hop)
	}
	if hop.TUS != sim.Time(2000).Micros() || hop.DelayUS != sim.Time(500).Micros() {
		t.Errorf("hop span times mangled: %+v", hop)
	}
	if f1.Spans[1].Kind != "yield" {
		t.Errorf("second surviving span = %q, want the yield", f1.Spans[1].Kind)
	}
	f2 := art.Flows[1]
	if f2.ID != 2 || len(f2.Spans) != 1 || f2.Spans[0].Kind != "acked" || f2.Spans[0].B != 9000 {
		t.Errorf("flow 2 mangled: %+v", f2)
	}
}

// TestArtifactSpanUndeclaredFlow: a span line without its flow declaration
// is a corrupt artifact, not a silent skip.
func TestArtifactSpanUndeclaredFlow(t *testing.T) {
	lines := `{"type":"meta","run":"x","interval_us":0}
{"type":"span","flow":9,"t_us":1,"kind":"hop"}
`
	_, err := obs.ReadArtifact(strings.NewReader(lines))
	if err == nil || !strings.Contains(err.Error(), "undeclared flow") {
		t.Fatalf("err = %v, want undeclared-flow error", err)
	}
}
