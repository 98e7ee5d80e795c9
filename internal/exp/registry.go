package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"prioplus/internal/obs"
)

// RunParams is the JSON-serializable part of a run request: the knobs a
// remote caller may set when submitting an experiment by id. It is the
// wire-facing sibling of Options — Options carries runtime wiring
// (recorders, fault plans) that cannot travel over HTTP, RunParams carries
// only data. Seed is the config-driven experiments' simulation seed; the
// micro experiments keep their published baked-in seeds regardless (the
// same contract the CLI's -seed flag has always had), which is what keeps
// the fingerprint manifest stable across callers.
type RunParams struct {
	// Seed seeds the config-driven experiments (fig11..fig18, faultsweep).
	Seed int64 `json:"seed"`
	// Full runs at the paper's full scale (slower).
	Full bool `json:"full,omitempty"`
	// Series also prints inline time-series data where available.
	Series bool `json:"series,omitempty"`
	// Perturb inflates the Nth delay-noise draw by 1us (micro experiments;
	// a controlled divergence for the diff tooling).
	Perturb uint64 `json:"perturb,omitempty"`
}

// Canonical returns the canonical JSON encoding of p: fixed field order,
// zero-valued optional fields omitted. Two RunParams that decode equal
// always canonicalize to the same bytes, whatever field order or explicit
// defaults the caller's JSON used — the property the serve layer's result
// cache keys depend on.
func (p RunParams) Canonical() string {
	b, err := json.Marshal(p)
	if err != nil {
		// RunParams holds only scalars; Marshal cannot fail.
		panic(err)
	}
	return string(b)
}

// DecodeParams strictly parses a JSON params object into a copy of base:
// absent fields keep base's (typically the spec's default) values, unknown
// fields are an error rather than silently ignored. An empty or null
// payload returns base unchanged.
func DecodeParams(data []byte, base RunParams) (RunParams, error) {
	p := base
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
		return p, nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return base, fmt.Errorf("bad params: %w", err)
	}
	return p, nil
}

// Sink hands out per-run observability recorders during one experiment
// invocation. serve.Execute, the one caller of Spec.Run outside tests,
// supplies the one implementation; drivers see only the factory. A nil
// Sink disables instrumentation entirely.
type Sink interface {
	// Recorder returns the recorder for the run identified by tag,
	// retaining it so the caller can flush artifacts and digests after the
	// experiment finishes. A tag names one run of the experiment.
	Recorder(tag string) *obs.Recorder
	// Order takes the recorders a fan-out's cells received: cells[i] are
	// cell i's, in its order. The sink lists their runs in that order,
	// however the cells' requests interleaved.
	Order(cells [][]*obs.Recorder)
}

// Spec is one registered experiment: everything a front end (CLI, batch
// runner, job server) needs to enumerate, describe, validate, and run it.
type Spec struct {
	// ID is the experiment id ("fig10b"); unique within the registry.
	ID string
	// Describe is a one-line human description for usage text and the
	// /experiments endpoint.
	Describe string
	// Defaults are the parameter values a run gets when the caller leaves
	// them unset.
	Defaults RunParams
	// Run executes the experiment with the given parameters, wiring any
	// network runs through sink (which may be nil), and writes the figure
	// output to w. memo, when non-nil, serves the scenario cells it already
	// holds; an instrumented run (a non-nil sink) simulates every cell.
	Run func(p RunParams, sink Sink, memo *Memo, w io.Writer) error
}

var (
	registry = map[string]Spec{}
	regOrder []string
)

// Register adds s to the package registry. It panics on a duplicate or
// empty id or a nil Run — registration happens in init, so a bad spec is a
// programming error, not a runtime condition.
func Register(s Spec) {
	if s.ID == "" || s.Run == nil {
		panic("exp.Register: spec needs an ID and a Run func")
	}
	if _, dup := registry[s.ID]; dup {
		panic("exp.Register: duplicate experiment id " + s.ID)
	}
	registry[s.ID] = s
	regOrder = append(regOrder, s.ID)
}

// Lookup returns the spec registered under id.
func Lookup(id string) (Spec, bool) {
	s, ok := registry[id]
	return s, ok
}

// IDs returns every registered experiment id in registration order — the
// order the suite runs and the manifest lists them.
func IDs() []string {
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// Specs returns every registered spec in registration order.
func Specs() []Spec {
	out := make([]Spec, 0, len(regOrder))
	for _, id := range regOrder {
		out = append(out, registry[id])
	}
	return out
}
