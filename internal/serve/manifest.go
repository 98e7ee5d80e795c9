package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"prioplus/internal/exp"
)

// Manifest is the committed fingerprint manifest (testdata/fingerprints.json):
// the expected %016x output fingerprint per "<experiment>/seed=<seed>" run of
// the quick suite. `all -fp-out` writes it, `all -fp-check` and the scheduler
// check finished runs against it, and the scheduler folds its identity into
// cache keys, so results cached against one manifest never satisfy a server
// running another.
type Manifest struct {
	// Note is the manifest's free-text provenance line.
	Note string `json:"note"`
	// Runs maps "<experiment>/seed=<seed>" to the expected fingerprint.
	Runs map[string]string `json:"runs"`

	hash string // fnv64a over the raw file bytes
}

const manifestNote = "FNV-64a over each run's captured output, which includes its '# fingerprint' digest-chain lines; " +
	"regenerate with: prioplus-sim all -fp-out testdata/fingerprints.json"

// ErrNotInManifest is what Check wraps for a run the manifest does not
// cover. The batch gate treats it as a failure (the manifest must be
// regenerated when experiments are added); the scheduler leaves such a run
// unchecked.
var ErrNotInManifest = errors.New("not in manifest (regenerate with -fp-out)")

// LoadManifest reads and parses a fingerprint manifest file.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("bad manifest %s: %w", path, err)
	}
	m.hash = OutputFingerprint(string(raw))
	return &m, nil
}

// WriteManifest stores runs (run name -> output fingerprint) at path in the
// committed file's format.
func WriteManifest(path string, runs map[string]string) error {
	data, err := json.MarshalIndent(Manifest{Note: manifestNote, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Check compares the output fingerprint of the finished run called name
// ("<experiment>/seed=<seed>") with the manifest. The manifest covers the
// runs it was generated from — quick scale, unperturbed, no inline series —
// so any other parameters, like a name it has no entry for, wrap
// ErrNotInManifest; a covered run that disagrees is a plain error naming
// both fingerprints.
func (m *Manifest) Check(name string, p exp.RunParams, fp string) error {
	want, ok := m.Runs[name]
	switch {
	case !ok || p.Full || p.Series || p.Perturb != 0:
		return fmt.Errorf("%s: %w", name, ErrNotInManifest)
	case want != fp:
		return fmt.Errorf("%s: got %s, manifest has %s", name, fp, want)
	}
	return nil
}

// Hash returns the manifest's identity: the fingerprint of its raw file
// bytes. Zero-value manifests (built in tests) hash their encoded runs.
func (m *Manifest) Hash() string {
	if m.hash == "" {
		enc, _ := json.Marshal(m.Runs)
		m.hash = OutputFingerprint(string(enc))
	}
	return m.hash
}

// OutputFingerprint is the repo-wide run fingerprint: FNV-64a over the
// output bytes, rendered %016x. The batch runner's fp= column, the
// manifest gate, and the job server all use this one function, so their
// values are directly comparable.
func OutputFingerprint(s string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}
