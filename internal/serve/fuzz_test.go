package serve

import (
	"testing"

	"prioplus/internal/exp"
)

// FuzzDecodeParams: no input bytes make exp.DecodeParams panic, and params
// it accepts re-encode (Canonical) and decode back to an equal value with
// an equal job cache key.
func FuzzDecodeParams(f *testing.F) {
	for _, s := range []string{
		``, `null`, ` {} `, `{"seed":1}`, `{"full":true,"seed":-3,"series":true,"perturb":10}`,
		`{"seed":1,"seed":2}`, `{"Seed":4}`, `{"seed":1,"extra":2}`, `{"seed":1e400}`, `{"seed":1.5}`,
		`{"seed":1}{"seed":2}`, `[1]`, `{"perturb":-1}`, `{"perturb":18446744073709551615}`, `{"full":null}`,
	} {
		f.Add([]byte(s))
	}
	base := exp.RunParams{Seed: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := exp.DecodeParams(data, base)
		if err != nil {
			return
		}
		q, err := exp.DecodeParams([]byte(p.Canonical()), exp.RunParams{})
		if err != nil {
			t.Fatalf("%q decoded to %+v, whose canonical form %s does not decode: %v", data, p, p.Canonical(), err)
		}
		if q != p {
			t.Fatalf("%q decoded to %+v; its canonical form %s decodes to %+v", data, p, p.Canonical(), q)
		}
		a := cacheKey(JobSpec{Experiment: "fig2", Params: p}, nil)
		if b := cacheKey(JobSpec{Experiment: "fig2", Params: q}, nil); a != b {
			t.Fatalf("%q: cache key %s, re-decoded %s", data, a, b)
		}
	})
}
