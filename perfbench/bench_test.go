package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"cache8t/internal/report"
	"cache8t/internal/server"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// shortRun runs one workload in short mode.
func shortRun(t *testing.T, def workloadDef, seed uint64, traced bool) (result, *outcome) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, _, out, err := runWorkload(ctx, def, repoRoot(t), seed, time.Second, traced, true)
	if err != nil {
		t.Fatalf("%s (seed %d, traced %v): %v", def.name, seed, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d operations failed", def.name, res.Correct, res.Failed, res.Attempted)
	}
	return res, out
}

// checkNames requires the printed metrics to be exactly the names and units
// BENCHMARK.json declares.
func checkNames(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	wantUnits := map[string]string{}
	for _, m := range want {
		wantUnits[m.Name] = m.Unit
	}
	gotUnits := map[string]string{}
	for name, m := range got {
		gotUnits[name] = m.Unit
	}
	if !reflect.DeepEqual(gotUnits, wantUnits) {
		t.Errorf("printed metrics %v\nBENCHMARK.json declares %v", sortedKeys(gotUnits), sortedKeys(wantUnits))
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defs []string
	for _, w := range workloads() {
		defs = append(defs, w.name)
	}
	sort.Strings(names)
	sort.Strings(defs)
	if !reflect.DeepEqual(names, defs) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, defs)
	}
}

// TestShortRuns runs every workload in short mode: untraced twice at one
// seed and once at another, and traced once. The printed metric names must
// match BENCHMARK.json exactly, and the simulated counts must repeat exactly
// at one seed and change at the other.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and simulates")
	}
	spec := readBenchmarkSpec(t)
	for _, def := range workloads() {
		t.Run(def.name, func(t *testing.T) {
			resA, outA := shortRun(t, def, 5, false)
			checkNames(t, resA.Metrics, spec.EndToEnd)
			_, outA2 := shortRun(t, def, 5, false)
			_, outB := shortRun(t, def, 6, false)
			if len(outA.counts) == 0 || outA.counts["simulated_accesses"] == 0 {
				t.Fatalf("no simulated counts recorded: %v", outA.counts)
			}
			if !reflect.DeepEqual(outA.counts, outA2.counts) {
				t.Errorf("counts differ between two runs at one seed:\n%v\n%v", outA.counts, outA2.counts)
			}
			if reflect.DeepEqual(outA.counts, outB.counts) {
				t.Errorf("counts identical at seeds 5 and 6: %v", outA.counts)
			}
			resT, outT := shortRun(t, def, 5, true)
			checkNames(t, resT.Metrics, spec.PerLayer)
			if !reflect.DeepEqual(outA.counts, outT.counts) {
				t.Errorf("traced run counts differ from the untraced run's:\n%v\n%v", outA.counts, outT.counts)
			}
		})
	}
}

func isGate(err error) bool {
	var ge *gateError
	return errors.As(err, &ge)
}

// tamper returns a copy of an artifact with one metric changed, re-encoded
// so it still decodes: a plausible wrong result, not a corrupt file.
func tamper(t *testing.T, b []byte) []byte {
	t.Helper()
	a, err := report.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(a.Metrics) {
		a.Metrics[name] += 1e-9
		break
	}
	out, err := report.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGateTripsOnTamperedGolden runs the matrix at the pinned seed and N
// against the checked-in goldens (which must pass) and against a copy with
// one metric of one golden nudged (which must trip the gate).
func TestGateTripsOnTamperedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size matrix")
	}
	ctx := context.Background()
	root := repoRoot(t)
	rc := &runConfig{root: root, work: t.TempDir(), seed: pinnedSeed, procs: 2}
	dir := filepath.Join(rc.work, "pass")
	if _, err := matrixPass(ctx, rc, dir, true, rc.procs); err != nil {
		t.Fatal(err)
	}
	got, err := readArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := matrixReference(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameArtifactSet(got, ref); err != nil {
		t.Fatalf("untampered goldens: %v", err)
	}

	fake := t.TempDir()
	if err := os.MkdirAll(filepath.Join(fake, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	for id, b := range ref {
		if id == "fig9" {
			b = tamper(t, b)
		}
		if err := os.WriteFile(filepath.Join(fake, "golden", id+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rc.root = fake
	tampered, err := matrixReference(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameArtifactSet(got, tampered); !isGate(err) {
		t.Fatalf("tampered golden: got %v, want a gate failure", err)
	}
}

// TestGateTripsOnTamperedArtifact feeds each workload's gate one output
// with a changed metric.
func TestGateTripsOnTamperedArtifact(t *testing.T) {
	ctx := context.Background()
	rc := &runConfig{root: repoRoot(t), work: t.TempDir(), seed: 9, short: true, procs: 2}

	t.Run("paper-matrix", func(t *testing.T) {
		ref, err := matrixReference(ctx, rc)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]byte{}
		for id, b := range ref {
			got[id] = b
		}
		got["rmw"] = tamper(t, got["rmw"])
		if err := sameArtifactSet(got, ref); !isGate(err) {
			t.Fatalf("got %v, want a gate failure", err)
		}
	})

	t.Run("trace-replay", func(t *testing.T) {
		traces, err := encodeTraces(rc)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := replaySpecs(rc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayPass(ctx, traces, specs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := replayReference(ctx, traces, specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReplay(got, ref, traces, specs); err != nil {
			t.Fatalf("untampered: %v", err)
		}
		got[3] = tamper(t, got[3])
		if err := checkReplay(got, ref, traces, specs); !isGate(err) {
			t.Fatalf("got %v, want a gate failure", err)
		}
	})

	t.Run("serve-mixed", func(t *testing.T) {
		sched := newServeSchedule(1, 2_000, 2)
		hitArts := map[string][]byte{}
		var samples []jobSample
		for i := 0; i < hitEvery; i++ {
			spec, hit := sched.entry(i)
			art, err := server.Execute(ctx, spec, spec.Workload, nil)
			if err != nil {
				t.Fatal(err)
			}
			key, err := spec.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				hitArts[string(key)] = art
			}
			samples = append(samples, jobSample{idx: i, spec: spec, hit: hit, artifact: art,
				status: server.JobStatus{Cached: hit}})
		}
		for _, h := range sched.hits {
			key, _ := h.Canonical()
			if _, ok := hitArts[string(key)]; !ok {
				art, err := server.Execute(ctx, h, h.Workload, nil)
				if err != nil {
					t.Fatal(err)
				}
				hitArts[string(key)] = art
			}
		}
		if err := checkServe(ctx, 2, samples, hitArts); err != nil {
			t.Fatalf("untampered: %v", err)
		}
		for _, i := range []int{0, hitEvery - 1} {
			bad := append([]jobSample(nil), samples...)
			bad[i].artifact = tamper(t, bad[i].artifact)
			if err := checkServe(ctx, 2, bad, hitArts); !isGate(err) {
				t.Fatalf("tampered job %d (hit %v): got %v, want a gate failure", i, bad[i].hit, err)
			}
		}
	})

	t.Run("sweep-fleet", func(t *testing.T) {
		spec, err := fleetSpec(3, 1_000)
		if err != nil {
			t.Fatal(err)
		}
		serial, _, err := checkFleet(ctx, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), serial...)
		bad[len(bad)/2] ^= 1
		if _, _, err := checkFleet(ctx, spec, []sweepSample{{ledger: serial}, {ledger: bad}}); !isGate(err) {
			t.Fatalf("got %v, want a gate failure", err)
		}
	})
}
