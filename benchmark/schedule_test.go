package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// generate renders everything one seed feeds the program: the CLI units and
// the first requests of both clients.
func generate(t *testing.T, seed int64) []byte {
	t.Helper()
	var doc struct {
		Units   map[string][]cliStep
		Clients [][]request
	}
	doc.Units = map[string][]cliStep{}
	for _, w := range workloadNames[:4] {
		for pass := 0; pass < 2; pass++ {
			steps, err := cliUnit(w, seed, pass)
			if err != nil {
				t.Fatal(err)
			}
			doc.Units[w] = append(doc.Units[w], steps...)
		}
	}
	for c := 0; c < serveClients; c++ {
		s := newClientStream(seed, c)
		reqs := s.block(warmupRequests, warmupMisses)
		reqs = append(reqs, s.block(blockRequests, blockMisses)...)
		reqs = append(reqs, s.block(blockRequests, blockMisses)...)
		doc.Clients = append(doc.Clients, reqs)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := generate(t, 7), generate(t, 7); string(a) != string(b) {
		t.Fatal("two generations from one seed differ")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if a, b := generate(t, 1), generate(t, 2); string(a) == string(b) {
		t.Fatal("seeds 1 and 2 generate identical inputs")
	}
	for _, w := range []string{"star_micro", "fattree_faults"} {
		a, _ := cliUnit(w, 1, 0)
		b, _ := cliUnit(w, 2, 0)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed lists do not depend on the seed", w)
		}
	}
}

func TestServeMixedHasNoCLIUnit(t *testing.T) {
	if _, err := cliUnit("serve_mixed", 1, 0); err == nil {
		t.Fatal("serve_mixed has no CLI unit")
	}
}

// TestScheduleShape checks what the runner and the server's counters rely
// on: exact hit/miss/artifact counts per block, every miss a spec nobody
// submitted before, every hit a repeat of one of the same client's last
// hitWindow misses, and the manifest-covered unperturbed specs present.
func TestScheduleShape(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seen := map[string]bool{} // across both clients: the server has one cache
		unperturbed := map[string]bool{}
		for c := 0; c < serveClients; c++ {
			s := newClientStream(seed, c)
			var recent []string
			check := func(reqs []request, wantMiss int) {
				hits, misses, artifacts := scheduleCounts(reqs)
				if misses != wantMiss || hits != len(reqs)-wantMiss {
					t.Fatalf("seed %d client %d: %d hits / %d misses, want %d / %d",
						seed, c, hits, misses, len(reqs)-wantMiss, wantMiss)
				}
				if len(reqs) == blockRequests {
					// 8 artifact misses plus however many hits repeat them.
					missArtifacts := 0
					perID := map[string]int{}
					for _, r := range reqs {
						if !r.Hit {
							perID[r.Exp]++
							if r.Artifact {
								missArtifacts++
							}
						}
					}
					if missArtifacts != blockMisses/4 || artifacts < missArtifacts {
						t.Fatalf("seed %d: %d artifact misses, want %d", seed, missArtifacts, blockMisses/4)
					}
					for _, id := range serveIDs {
						if perID[id] != blockMisses/len(serveIDs) {
							t.Fatalf("seed %d: %s missed %d times in a block, want %d", seed, id, perID[id], blockMisses/len(serveIDs))
						}
					}
				}
				for i, r := range reqs {
					if r.Hit {
						ok := false
						for _, k := range recent {
							ok = ok || k == r.key()
						}
						if !ok {
							t.Fatalf("seed %d client %d request %d: hit on %s, not among the last %d misses", seed, c, i, r.key(), hitWindow)
						}
						continue
					}
					if seen[r.key()] {
						t.Fatalf("seed %d client %d request %d: miss on %s, already submitted", seed, c, i, r.key())
					}
					seen[r.key()] = true
					if r.Perturb == 0 {
						unperturbed[r.Exp] = true
					}
					recent = append(recent, r.key())
					if len(recent) > hitWindow {
						recent = recent[1:]
					}
				}
			}
			first := s.block(warmupRequests, warmupMisses)
			if first[0].Hit {
				t.Fatalf("seed %d client %d: first request is a hit with nothing to repeat", seed, c)
			}
			check(first, warmupMisses)
			for b := 0; b < 3; b++ {
				check(s.block(blockRequests, blockMisses), blockMisses)
			}
		}
		for _, id := range serveIDs {
			if !unperturbed[id] {
				t.Errorf("seed %d: %s never submitted unperturbed, so never manifest-checked", seed, id)
			}
		}
	}
}
