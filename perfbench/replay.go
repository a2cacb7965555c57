package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/hier"
	"cache8t/internal/report"
	"cache8t/internal/server"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// replayProfiles are the traces trace-replay encodes: bwaves (write-heavy,
// mostly silent writes), mcf (read-dominated pointer chase) and bzip2.
var replayProfiles = []string{"bwaves", "mcf", "bzip2"}

func replayN(rc *runConfig) int {
	if rc.short {
		return 6_000
	}
	return 150_000
}

// replayTrace is one encoded trace and the upload source name sramd would
// give it.
type replayTrace struct {
	profile string
	seed    uint64
	n       int
	enc     []byte
	source  string
}

func (t replayTrace) open() (trace.Stream, error) {
	return trace.NewAnyReader(bytes.NewReader(t.enc))
}

// encodeTraces generates and encodes every replay trace from the run seed.
func encodeTraces(rc *runConfig) ([]replayTrace, error) {
	out := make([]replayTrace, len(replayProfiles))
	for i, name := range replayProfiles {
		seed := subSeed(rc.seed, "replay/"+name, 0)
		g, err := workload.Stream(name, seed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := trace.WriteAll(&buf, g, replayN(rc)); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		out[i] = replayTrace{profile: name, seed: seed, n: replayN(rc), enc: buf.Bytes(),
			source: "trace:sha256:" + hex.EncodeToString(sum[:])}
	}
	return out, nil
}

// replaySpecs are the five trace-upload jobs each trace runs as: rmw, wg,
// wgrb, rmw set-sharded over nproc, and a WG L1 over the default RMW L2.
func replaySpecs(rc *runConfig) ([]server.JobSpec, error) {
	specs := []server.JobSpec{
		{Controller: "rmw"},
		{Controller: "wg"},
		{Controller: "wgrb"},
		{Controller: "rmw", Shards: rc.procs},
		{Controller: "wg", Hierarchy: true, L2: &server.L2Spec{Controller: "rmw"}},
	}
	for i := range specs {
		specs[i].Seed = rc.seed
		specs[i].Normalize()
		if err := specs[i].Validate(true); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// replayPass runs every (trace, spec) point through server.Execute, each
// decoding its trace from the encoded bytes as sramd does for an upload.
func replayPass(ctx context.Context, traces []replayTrace, specs []server.JobSpec) ([][]byte, error) {
	var arts [][]byte
	for _, t := range traces {
		for _, spec := range specs {
			b, err := server.Execute(ctx, spec, t.source, t.open)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", t.profile, spec.Controller, err)
			}
			arts = append(arts, b)
		}
	}
	return arts, nil
}

// replayReference runs every point over the materialized slice of its
// trace, generated afresh rather than decoded.
func replayReference(ctx context.Context, traces []replayTrace, specs []server.JobSpec) ([][]byte, error) {
	var arts [][]byte
	for _, t := range traces {
		prof, err := workload.ProfileByName(t.profile)
		if err != nil {
			return nil, err
		}
		accs, err := workload.Take(prof, t.seed, t.n)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			spec.Shards = 0
			b, err := server.Execute(ctx, spec, t.source, func() (trace.Stream, error) { return trace.FromSlice(accs), nil })
			if err != nil {
				return nil, err
			}
			arts = append(arts, b)
		}
	}
	return arts, nil
}

func checkReplay(got, ref [][]byte, traces []replayTrace, specs []server.JobSpec) error {
	if len(got) != len(ref) {
		return gatef("replay produced %d artifacts, want %d", len(got), len(ref))
	}
	for i := range got {
		if !bytes.Equal(got[i], ref[i]) {
			t, s := traces[i/len(specs)], specs[i%len(specs)]
			return gatef("trace-replay %s/%s (shards %d, hierarchy %v) artifact differs from the materialized run",
				t.profile, s.Controller, s.Shards, s.Hierarchy)
		}
	}
	return nil
}

// replayAccesses is how many L1 accesses one pass simulates.
func replayAccesses(traces []replayTrace, specs []server.JobSpec) uint64 {
	var n uint64
	for _, t := range traces {
		n += uint64(t.n) * uint64(len(specs))
	}
	return n
}

func runReplay(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	specs, err := replaySpecs(rc)
	if err != nil {
		return nil, err
	}
	// Set-up is generating and encoding the traces, repeated and reported
	// as the median.
	var setups []float64
	var traces []replayTrace
	for i := 0; i < 5; i++ {
		start := time.Now()
		if traces, err = encodeTraces(rc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	// One untimed pass lets lazy initialisation finish before timing.
	if _, err := replayPass(ctx, traces, specs); err != nil {
		return nil, err
	}
	var walls, rates []float64
	var passes [][][]byte
	accesses := replayAccesses(traces, specs)
	start := time.Now()
	for len(walls) == 0 || (!rc.short && time.Since(start) < rc.window) {
		out.attempted += int64(len(traces) * len(specs))
		t0 := time.Now()
		arts, err := replayPass(ctx, traces, specs)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		walls = append(walls, ms(wall))
		rates = append(rates, float64(accesses)/1e6/wall.Seconds())
		passes = append(passes, arts)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}

	ref, err := replayReference(ctx, traces, specs)
	if err != nil {
		return nil, err
	}
	for _, arts := range passes {
		if err := checkReplay(arts, ref, traces, specs); err != nil {
			return nil, err
		}
	}
	replayCounts(out.counts, ref, traces, specs)

	out.repeats = len(walls)
	out.metrics["op_p50_ms"] = median(walls)
	out.metrics["macc_per_s"] = median(rates)
	out.metrics["peak_rss_mb"] = rss
	out.detail["pass_ms"] = walls
	return out, nil
}

// tracedReplay redoes the pass by calling the layers in sequence: decode a
// batch with Reader.ReadBatch into one reused buffer, feed it to the
// point's Driver, finish, then build and encode the artifact (the sharded
// and hierarchy points call RunShardedContext and hier.RunContext, which
// decode internally). Passes without and with spans alternate; every traced
// pass's artifacts are checked against the materialized reference. The
// remaining layers are then probed on the bwaves trace.
func tracedReplay(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	specs, err := replaySpecs(rc)
	if err != nil {
		return nil, err
	}
	traces, err := encodeTraces(rc)
	if err != nil {
		return nil, err
	}
	// Untraced and traced passes alternate, so host drift hits both alike;
	// the overhead compares their medians.
	pairs := 3
	if rc.short {
		pairs = 1
	}
	tr := newTracer()
	fed := map[string]uint64{}
	var plainMS, tracedMS []float64
	var tracedArts [][][]byte
	var tracedBusy time.Duration
	var gc goStats
	for i := 0; i < pairs; i++ {
		start := time.Now()
		if _, _, err := replayLayered(ctx, traces, specs, nil); err != nil {
			return nil, err
		}
		plainMS = append(plainMS, ms(time.Since(start)))

		before := readGoStats()
		start = time.Now()
		arts, passFed, err := replayLayered(ctx, traces, specs, tr)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		after := readGoStats()
		gc.allocBytes += after.allocBytes - before.allocBytes
		gc.gcCycles += after.gcCycles - before.gcCycles
		tracedBusy += wall
		tracedMS = append(tracedMS, ms(wall))
		tracedArts = append(tracedArts, arts)
		for k, v := range passFed {
			fed[k] += v
		}
	}
	out.attempted = int64(2 * pairs * len(traces) * len(specs))
	out.repeats = pairs

	ref, err := replayReference(ctx, traces, specs)
	if err != nil {
		return nil, err
	}
	for _, arts := range tracedArts {
		if err := checkReplay(arts, ref, traces, specs); err != nil {
			return nil, err
		}
	}
	replayCounts(out.counts, ref, traces, specs)

	if err := runProbes(ctx, rc, env, probeInput{profile: traces[0].profile, n: traces[0].n, seed: traces[0].seed}, out, true, true); err != nil {
		return nil, err
	}
	layerRates(out.metrics, tr, fed)
	goWindow(out.metrics, goStats{}, gc, uint64(pairs)*replayAccesses(traces, specs))
	overheadMetrics(out.metrics, msDuration(median(plainMS)), msDuration(median(tracedMS)), tracedBusy, tr)
	out.spans = tr
	out.detail["traced_ms"] = tracedMS
	out.detail["untraced_ms"] = plainMS
	return out, nil
}

// replayLayered builds every replay artifact through direct layer calls.
func replayLayered(ctx context.Context, traces []replayTrace, specs []server.JobSpec, tr *tracer) ([][]byte, map[string]uint64, error) {
	l := &layered{ctx: ctx, tr: tr, fed: map[string]uint64{}}
	var arts [][]byte
	for _, t := range traces {
		for _, spec := range specs {
			l.cell++
			var a *report.Artifact
			switch {
			case spec.Hierarchy:
				cfg, err := spec.HierConfig()
				if err != nil {
					return nil, nil, err
				}
				s := tr.begin(spanHier, l.cell, -1)
				res, err := hier.RunContext(ctx, cfg, trace.NewReader(bytes.NewReader(t.enc)), 0, 0)
				tr.end(s)
				if err != nil {
					return nil, nil, err
				}
				l.fed[spanHier] += uint64(t.n)
				s = tr.begin(spanArt, l.cell, -1)
				a = server.HierArtifact(spec, t.source, res)
				tr.end(s)
			case spec.Shards > 1:
				kind, cfg, err := specKind(spec)
				if err != nil {
					return nil, nil, err
				}
				s := tr.begin(spanSharded, l.cell, -1)
				res, err := core.RunShardedContext(ctx, kind, cfg, spec.CoreOptions(), trace.NewReader(bytes.NewReader(t.enc)), 0, 0, spec.Shards)
				tr.end(s)
				if err != nil {
					return nil, nil, err
				}
				l.fed[spanSharded] += uint64(t.n)
				s = tr.begin(spanArt, l.cell, -1)
				a = server.Artifact(spec, t.source, res)
				tr.end(s)
			default:
				kind, cfg, err := specKind(spec)
				if err != nil {
					return nil, nil, err
				}
				r := trace.NewReader(bytes.NewReader(t.enc))
				res, err := l.feed([]core.Kind{kind}, cfg, spanDecode, func(buf []trace.Access) []trace.Access {
					return buf[:r.ReadBatch(buf)]
				})
				if err != nil {
					return nil, nil, err
				}
				if err := r.Err(); err != nil {
					return nil, nil, err
				}
				s := tr.begin(spanArt, l.cell, -1)
				a = server.Artifact(spec, t.source, res[0])
				tr.end(s)
			}
			b, err := l.encode(a)
			if err != nil {
				return nil, nil, err
			}
			arts = append(arts, b)
		}
	}
	return arts, l.fed, nil
}

func specKind(spec server.JobSpec) (core.Kind, cache.Config, error) {
	kind, err := core.ParseKind(spec.Controller)
	if err != nil {
		return 0, cache.Config{}, err
	}
	cfg, err := spec.CacheConfig()
	return kind, cfg, err
}

// replayCounts records the simulated counts of one pass: array reads and
// writes per point, the hierarchy points' L2-visible events and the
// accesses simulated.
func replayCounts(counts map[string]uint64, ref [][]byte, traces []replayTrace, specs []server.JobSpec) {
	for i, b := range ref {
		t, s := traces[i/len(specs)], specs[i%len(specs)]
		a, err := report.Decode(b)
		if err != nil {
			continue
		}
		key := fmt.Sprintf("%s.%s", t.profile, s.Controller)
		if s.Shards > 1 {
			key += ".sharded"
		}
		if s.Hierarchy {
			key += ".hier"
			counts[key+".l2_visible"] = uint64(a.Metrics["l2_visible"])
		}
		for _, c := range a.Controllers {
			counts[key+"."+c.Controller+".array_reads"] = c.Counters["array_reads"]
			counts[key+"."+c.Controller+".array_writes"] = c.Counters["array_writes"]
		}
	}
	counts["simulated_accesses"] = replayAccesses(traces, specs)
}
