package regress

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/workload"
)

// testOptions keeps the end-to-end tests fast: a tiny stream into a temp
// golden dir, output captured instead of hitting stdout.
func testOptions(t *testing.T, out *bytes.Buffer) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.GoldenDir = t.TempDir()
	opts.N = 2000
	opts.Workers = 2
	opts.Out = out
	return opts
}

// TestUpdateThenRunPasses is the harness's own golden round trip: -update
// writes baselines, an immediate re-run must pass every metric exactly
// (same binary, same seed — determinism is the whole premise).
func TestUpdateThenRunPasses(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)

	opts.Update = true
	sum, err := Run(opts, "fig8", "rmw")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Updated) != 2 {
		t.Fatalf("updated %v, want fig8 and rmw", sum.Updated)
	}
	for _, id := range []string{"fig8", "rmw"} {
		if _, err := os.Stat(filepath.Join(opts.GoldenDir, id+".json")); err != nil {
			t.Fatalf("golden for %s not written: %v", id, err)
		}
	}

	opts.Update = false
	out.Reset()
	sum, err = Run(opts, "fig8", "rmw")
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK() {
		t.Fatalf("fresh run drifted against its own goldens: failed=%v\n%s", sum.Failed, out.String())
	}
	if len(sum.Passed) != 2 {
		t.Fatalf("passed %v, want both checks", sum.Passed)
	}
}

// TestTamperedGoldenFails edits one golden metric past its tolerance and
// checks Run reports drift (not an error) with a readable diff table.
func TestTamperedGoldenFails(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)

	opts.Update = true
	if _, err := Run(opts, "rmw"); err != nil {
		t.Fatal(err)
	}

	// Re-encode the golden with a shifted mean: the tamper has to go through
	// report.Encode so the config hash stays valid and only the metric drifts.
	path := filepath.Join(opts.GoldenDir, "rmw.json")
	art, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art.Metrics["mean.inflation"] += 0.5 // far outside the 0.0025 abs band
	if err := report.WriteFile(path, art); err != nil {
		t.Fatal(err)
	}

	opts.Update = false
	sum, err := Run(opts, "rmw")
	if err != nil {
		t.Fatalf("drift must not be a harness error: %v", err)
	}
	if sum.OK() {
		t.Fatal("tampered golden passed")
	}
	if len(sum.Failed) != 1 || sum.Failed[0] != "rmw" {
		t.Fatalf("failed = %v, want [rmw]", sum.Failed)
	}
	rendered := out.String()
	if !strings.Contains(rendered, "mean.inflation") || !strings.Contains(rendered, "DRIFT") {
		t.Fatalf("diff table should name the drifted metric:\n%s", rendered)
	}
}

// TestMissingGoldenIsHarnessError distinguishes "no baseline yet" (error,
// with a hint) from drift.
func TestMissingGoldenIsHarnessError(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	_, err := Run(opts, "fig8")
	if err == nil {
		t.Fatal("run against empty golden dir succeeded")
	}
	if !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing-golden error should hint at -update, got: %v", err)
	}
}

func TestUnknownCheckID(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	if _, err := Run(opts, "fig99"); err == nil {
		t.Fatal("unknown check id accepted")
	}
}

// TestConfigMismatchReported pins that goldens recorded at one N fail the
// comparability check — not the tolerance bands — when re-run at another N.
func TestConfigMismatchReported(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	opts.Update = true
	if _, err := Run(opts, "fig8"); err != nil {
		t.Fatal(err)
	}
	opts.Update = false
	opts.N = 3000
	sum, err := Run(opts, "fig8")
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK() {
		t.Fatal("run at different N passed against pinned goldens")
	}
	if !strings.Contains(out.String(), "config:") {
		t.Fatalf("diff should flag the config mismatch:\n%s", out.String())
	}
}

func TestChecksHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if c.ID == "" || c.Title == "" || c.Build == nil {
			t.Fatalf("check %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate check id %q", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d checks registered, want the fig8/rmw/fig9/fig10/fig11 matrix", len(seen))
	}
}

// TestAppendBench checks the bench ledger file is created, appended, and
// stays a valid canonical JSON array.
func TestAppendBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	e1 := BenchEntry{Schema: report.SchemaVersion, GitSHA: "abc", N: 10, SerialWallMS: 1}
	e2 := BenchEntry{Schema: report.SchemaVersion, GitSHA: "def", N: 10, SerialWallMS: 2}
	if err := AppendBench(path, e1); err != nil {
		t.Fatal(err)
	}
	if err := AppendBench(path, e2); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []BenchEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatalf("bench file not a JSON array: %v\n%s", err, b)
	}
	if len(entries) != 2 || entries[0].GitSHA != "abc" || entries[1].GitSHA != "def" {
		t.Fatalf("entries = %+v, want the two appended in order", entries)
	}
}

// normalized is an artifact's canonical bytes, as written to disk and read
// back, with the metadata artifacts carry by design (git SHA, wall time,
// engine snapshot) cleared.
func normalized(t *testing.T, a *report.Artifact) []byte {
	t.Helper()
	enc, err := report.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if a, err = report.Decode(enc); err != nil {
		t.Fatal(err)
	}
	a.GitSHA = ""
	a.WallMS = 0
	a.Engine = nil
	b, err := report.Canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlannedArtifactsMatchPerCheckBuilds runs the lane checks through Run,
// which simulates all their lanes in one shared pass, and requires every
// artifact to equal the check's own Build byte for byte, in streamed,
// materialized and sharded modes. The streamed, unsharded pass must open
// each profile's trace exactly once.
func TestPlannedArtifactsMatchPerCheckBuilds(t *testing.T) {
	ids := []string{"rmw", "fig9", "fig10", "fig11"}
	for _, mode := range []struct {
		name   string
		stream bool
		shards int
	}{{"streamed", true, 0}, {"materialized", false, 0}, {"sharded", false, 4}} {
		t.Run(mode.name, func(t *testing.T) {
			var out bytes.Buffer
			opts := testOptions(t, &out)
			opts.N = 1000
			opts.Stream = mode.stream
			opts.Shards = mode.shards
			opts.Update = true
			if _, err := Run(opts, ids...); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				c, err := CheckByID(id)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := report.ReadFile(filepath.Join(opts.GoldenDir, id+".json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(normalized(t, got), normalized(t, want)) {
					t.Fatalf("%s: planned artifact differs from its own build", id)
				}
			}
			if !strings.Contains(out.String(), "shared lane pass: 13 lanes × 25 profiles") {
				t.Fatalf("want one shared pass over 13 lanes:\n%s", out.String())
			}
		})
	}

	t.Run("opens", func(t *testing.T) {
		var out bytes.Buffer
		opts := testOptions(t, &out)
		opts.N = 1000
		opts.Stream = true
		checks := make([]Check, len(ids))
		for i, id := range ids {
			var err error
			if checks[i], err = CheckByID(id); err != nil {
				t.Fatal(err)
			}
		}
		p, err := runPlan(opts, checks)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.matrix.Opens, int64(len(workload.Profiles())); got != want {
			t.Fatalf("streamed pass opened %d traces, want %d (one per profile)", got, want)
		}
	})
}

// TestCachedCheckContributesNoLanes pins that a check the result cache
// serves is not simulated: a warm cache leaves nothing for the shared pass.
func TestCachedCheckContributesNoLanes(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	opts.N = 1000
	rc, err := rescache.Open(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	opts.Update = true
	if _, err := Run(opts, "rmw", "fig9"); err != nil {
		t.Fatal(err)
	}
	opts.Update = false
	opts.Cache = rc
	if sum, err := Run(opts, "rmw", "fig9"); err != nil || !sum.OK() {
		t.Fatalf("cold cached run: %v, failed %v\n%s", err, sum.Failed, out.String())
	}
	out.Reset()
	sum, err := Run(opts, "rmw", "fig9")
	if err != nil || !sum.OK() {
		t.Fatalf("warm cached run: %v, failed %v\n%s", err, sum.Failed, out.String())
	}
	if strings.Contains(out.String(), "shared lane pass") || strings.Count(out.String(), "(cached)") != 2 {
		t.Fatalf("warm run simulated, or did not serve both checks from the cache:\n%s", out.String())
	}
}
