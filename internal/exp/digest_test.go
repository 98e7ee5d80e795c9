package exp

import (
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// always is the recorder factory of a test with one run to instrument.
func always(rec *obs.Recorder) func(string) *obs.Recorder {
	return func(string) *obs.Recorder { return rec }
}

// fig10bDigest runs a reduced Fig10b with the given extra instruments and
// returns the digest.
func fig10bDigest(t *testing.T, full bool, perturb uint64) (*sim.Digest, Fig10bResult) {
	t.Helper()
	rec := obs.NewRecorder()
	rec.Digest = sim.NewDigest()
	if full {
		rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
		rec.Hist = obs.NewHistSet()
		rec.Audit = &obs.Auditor{}
	}
	r := Fig10b(16, Options{NewRecorder: always(rec), Perturb: perturb})
	if rec.Digest.Count == 0 {
		t.Fatal("digest folded no events")
	}
	if full {
		if rec.Audit.Checks == 0 {
			t.Fatal("auditor never ran")
		}
		if v := rec.Audit.Violation(); v != "" {
			t.Fatalf("conservation violation: %s", v)
		}
	}
	return rec.Digest, r
}

// TestFingerprintInvariantAcrossObs is the determinism contract: the digest
// chain depends only on (binary, experiment, seed), not on which other
// instruments are installed — a digest-only run and a full-telemetry run
// (series + hist + auditor) fold the identical event stream.
func TestFingerprintInvariantAcrossObs(t *testing.T) {
	plain, rp := fig10bDigest(t, false, 0)
	full, rf := fig10bDigest(t, true, 0)
	if plain.Chain != full.Chain || plain.Count != full.Count {
		t.Fatalf("chain differs across obs configs: %016x/%d vs %016x/%d",
			plain.Chain, plain.Count, full.Chain, full.Count)
	}
	if rp.WithinFrac != rf.WithinFrac || rp.MeanDelay != rf.MeanDelay {
		t.Fatalf("figure output differs across obs configs: %+v vs %+v", rp, rf)
	}
}

// TestPerturbDivergesChain: a single 1µs inflation of one noise draw must
// change the chain, and the checkpoint ladder must localize where.
func TestPerturbDivergesChain(t *testing.T) {
	base, _ := fig10bDigest(t, false, 0)
	pert, _ := fig10bDigest(t, false, 10)
	if base.Chain == pert.Chain {
		t.Fatal("perturbed run produced the same chain")
	}
	// The checkpoint ladders must localize the divergence to one window:
	// every checkpoint before the first divergent one agrees, and at least
	// one checkpoint disagrees (the ladders can't be identical when the
	// final chains differ, unless the divergence is after the last
	// checkpoint — Fig10b's draws all land early, so it never is).
	n := min(len(base.Ckpts), len(pert.Ckpts))
	if n == 0 {
		t.Fatal("no checkpoints recorded; localization impossible")
	}
	first := -1
	for i := 0; i < n; i++ {
		if base.Ckpts[i].Chain != pert.Ckpts[i].Chain {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("all checkpoints match yet final chains differ: divergence after last checkpoint only")
	}
	for i := 0; i < first; i++ {
		if base.Ckpts[i].Count != pert.Ckpts[i].Count {
			t.Fatalf("pre-divergence checkpoint %d at different event counts: %d vs %d",
				i, base.Ckpts[i].Count, pert.Ckpts[i].Count)
		}
	}
	t.Logf("first divergent checkpoint: index %d, window ends at event %d",
		first, base.Ckpts[first].Count)
}

// TestAuditCleanUnderFaults: the conservation invariants must hold through
// link flaps and reroutes, where packets die on wires and queues drain
// abnormally.
func TestAuditCleanUnderFaults(t *testing.T) {
	cfg := DefaultFaultSweepConfig()
	recs := map[string]*obs.Recorder{}
	cfg.NewRecorder = func(tag string) *obs.Recorder {
		recs[tag] = obs.NewRecorder()
		recs[tag].Audit = &obs.Auditor{}
		return recs[tag]
	}
	if rows := FaultSweep(cfg); len(rows) == 0 || len(recs) != len(rows) {
		t.Fatalf("faultsweep produced %d rows and asked for %d recorders", len(rows), len(recs))
	}
	for tag, rec := range recs {
		if rec.Audit.Checks == 0 {
			t.Fatalf("%s: auditor never ran", tag)
		}
		if v := rec.Audit.Violation(); v != "" {
			t.Fatalf("%s: conservation violation under faults: %s", tag, v)
		}
	}
}
