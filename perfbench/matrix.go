package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/experiments"
	"cache8t/internal/mem"
	"cache8t/internal/regress"
	"cache8t/internal/report"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// matrixChecks is the golden regression matrix the paper-matrix workload
// runs: what `go run ./cmd/regress -stream` checks, minus the hierarchy
// check, which trace-replay covers.
var matrixChecks = []string{"fig8", "rmw", "fig9", "fig10", "fig11"}

// pinnedSeed is the seed the goldens are pinned at (with regress's default
// N); at any other seed or N the reference is a materialized serial run.
const pinnedSeed = 1

func matrixN(rc *runConfig) int {
	if rc.short {
		return 4_000
	}
	return regress.DefaultOptions().N
}

// matrixSetups is how many warm-up passes paper-matrix times for setup_s.
func matrixSetups(rc *runConfig) int {
	if rc.short {
		return 1
	}
	return 3
}

// matrixAccesses is how many accesses one matrix pass simulates: the Fig 8
// stream through four controllers, then every profile through conventional
// and RMW (rmw), RMW/WG/WG+RB (fig9, fig10) and RMW/WG/WG+RB at two sizes
// (fig11).
func matrixAccesses(n int) uint64 {
	g := cache.MustGeometry(64*1024, 4, 32)
	fig8 := uint64(len(experiments.Fig8Stream(g))) * 4
	return fig8 + uint64(len(workload.Profiles()))*uint64(n)*(2+3+3+6)
}

// matrixPass runs the matrix once through regress.Run, streamed, with one
// engine worker per CPU, writing the artifacts to dir.
func matrixPass(ctx context.Context, rc *runConfig, dir string, stream bool, workers int) (time.Duration, error) {
	opts := regress.DefaultOptions()
	opts.GoldenDir = dir
	opts.N = matrixN(rc)
	opts.Seed = rc.seed
	opts.Workers = workers
	opts.Stream = stream
	opts.Update = true
	opts.Context = ctx
	opts.Out = io.Discard
	start := time.Now()
	sum, err := regress.Run(opts, matrixChecks...)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if len(sum.Updated) != len(matrixChecks) {
		return 0, fmt.Errorf("regress wrote %d of %d artifacts", len(sum.Updated), len(matrixChecks))
	}
	return wall, nil
}

func runMatrix(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	n := matrixN(rc)

	// The matrix has no inputs to prepare; its set-up is a warm-up pass
	// that pages in code and sizes the heap, outside the window. It is
	// repeated and reported as the median.
	var setups []float64
	for i := 0; i < matrixSetups(rc); i++ {
		wall, err := matrixPass(ctx, rc, filepath.Join(rc.work, fmt.Sprintf("warmup-%d", i)), true, rc.procs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, wall.Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	var walls, rates []float64
	var dirs []string
	start := time.Now()
	for len(walls) == 0 || (!rc.short && time.Since(start) < rc.window) {
		dir := filepath.Join(rc.work, fmt.Sprintf("pass-%d", len(walls)))
		out.attempted++
		wall, err := matrixPass(ctx, rc, dir, true, rc.procs)
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(wall))
		rates = append(rates, float64(matrixAccesses(n))/1e6/wall.Seconds())
		dirs = append(dirs, dir)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}

	ref, err := matrixReference(ctx, rc)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		got, err := readArtifacts(dir)
		if err != nil {
			return nil, err
		}
		if err := sameArtifactSet(got, ref); err != nil {
			return nil, err
		}
	}
	matrixCounts(out.counts, ref, n)

	out.repeats = len(walls)
	out.metrics["op_p50_ms"] = median(walls)
	out.metrics["macc_per_s"] = median(rates)
	out.metrics["peak_rss_mb"] = rss
	out.detail["pass_ms"] = walls
	return out, nil
}

// tracedMatrix redoes the matrix by calling the layers in sequence —
// generate a batch, feed it to each controller's Driver, finish, assemble
// and encode the artifact — once without spans and once with, checks the
// traced artifacts against the reference, and then probes the remaining
// layers at the matrix's input size.
func tracedMatrix(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	n := matrixN(rc)

	plainStart := time.Now()
	if _, _, err := matrixLayered(ctx, rc.seed, n, nil); err != nil {
		return nil, err
	}
	plain := time.Since(plainStart)

	tr := newTracer()
	g0 := readGoStats()
	tracedStart := time.Now()
	arts, fed, err := matrixLayered(ctx, rc.seed, n, tr)
	if err != nil {
		return nil, err
	}
	traced := time.Since(tracedStart)
	g1 := readGoStats()
	out.attempted = 2
	out.repeats = 1

	ref, err := matrixReference(ctx, rc)
	if err != nil {
		return nil, err
	}
	if err := sameArtifactSet(arts, ref); err != nil {
		return nil, err
	}
	matrixCounts(out.counts, ref, n)

	if err := runProbes(ctx, rc, env, probeInput{profile: "bzip2", n: n}, out, true, true); err != nil {
		return nil, err
	}
	layerRates(out.metrics, tr, fed)
	goWindow(out.metrics, g0, g1, matrixAccesses(n))
	overheadMetrics(out.metrics, plain, traced, traced, tr)
	out.spans = tr
	out.detail["traced_ms"] = ms(traced)
	out.detail["untraced_ms"] = ms(plain)
	return out, nil
}

// matrixReference returns the artifacts every pass must reproduce: the
// goldens at the pinned seed and N, otherwise a materialized serial run.
func matrixReference(ctx context.Context, rc *runConfig) (map[string][]byte, error) {
	if rc.seed == pinnedSeed && matrixN(rc) == regress.DefaultOptions().N {
		return readArtifacts(filepath.Join(rc.root, "golden"))
	}
	dir := filepath.Join(rc.work, "reference")
	if _, err := matrixPass(ctx, rc, dir, false, 1); err != nil {
		return nil, err
	}
	return readArtifacts(dir)
}

// readArtifacts loads the matrix artifacts from dir, keyed by check.
func readArtifacts(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, id := range matrixChecks {
		b, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			return nil, err
		}
		out[id] = b
	}
	return out, nil
}

// sameArtifactSet requires every check's artifact to equal the reference
// exactly, ignoring only the metadata artifacts carry by design (git SHA,
// wall time, engine snapshot).
func sameArtifactSet(got, want map[string][]byte) error {
	for _, id := range matrixChecks {
		g, err := normalizedArtifact(got[id])
		if err != nil {
			return gatef("%s: %v", id, err)
		}
		w, err := normalizedArtifact(want[id])
		if err != nil {
			return gatef("%s reference: %v", id, err)
		}
		if !bytes.Equal(g, w) {
			return gatef("%s artifact differs from its reference", id)
		}
	}
	return nil
}

func normalizedArtifact(b []byte) ([]byte, error) {
	a, err := report.Decode(b)
	if err != nil {
		return nil, err
	}
	a.GitSHA = ""
	a.WallMS = 0
	a.Engine = nil
	return report.Canonical(a)
}

// matrixCounts records the simulated counts of one matrix pass: the Fig 8
// ledger per controller, the RMW-inflation array totals, the accesses
// simulated and a digest of every artifact.
func matrixCounts(counts map[string]uint64, ref map[string][]byte, n int) {
	h := sha256.New()
	for _, id := range matrixChecks {
		a, err := report.Decode(ref[id])
		if err != nil {
			continue
		}
		switch id {
		case "fig8":
			for _, c := range a.Controllers {
				counts["fig8."+c.Controller+".array_reads"] = c.Counters["array_reads"]
				counts["fig8."+c.Controller+".array_writes"] = c.Counters["array_writes"]
			}
		case "rmw":
			for name, v := range a.Metrics {
				switch {
				case strings.HasPrefix(name, "conventional_accesses."):
					counts["rmw.conventional_array_accesses"] += uint64(v)
				case strings.HasPrefix(name, "rmw_accesses."):
					counts["rmw.rmw_array_accesses"] += uint64(v)
				}
			}
		}
		if b, err := normalizedArtifact(ref[id]); err == nil {
			h.Write(b)
		}
	}
	counts["simulated_accesses"] = matrixAccesses(n)
	counts["artifact_digest64"] = binary.BigEndian.Uint64(h.Sum(nil))
}

// kindName is the metric suffix for a controller kind.
var kindName = map[core.Kind]string{
	core.Conventional: "conventional",
	core.RMW:          "rmw",
	core.WG:           "wg",
	core.WGRB:         "wgrb",
}

func feedSpan(k core.Kind) string { return "core.Driver.Feed/" + kindName[k] }

// Span names of the layer calls the layered runs make.
const (
	spanGen     = "workload.Generator.Next"
	spanSlice   = "trace.SliceStream"
	spanDecode  = "trace.Reader.ReadBatch"
	spanFinish  = "core.Driver.Finish"
	spanCI      = "stats.BootstrapMeanCI"
	spanEncode  = "report.Encode"
	spanSharded = "core.RunShardedContext"
	spanHier    = "hier.RunContext"
	spanArt     = "server.Artifact"
)

// layerRates turns the self times of a layered run into per-access
// metrics, replacing the probe's figures for the layers the workload's own
// traced run called; fed counts the accesses each span name processed.
func layerRates(m map[string]float64, tr *tracer, fed map[string]uint64) {
	self := tr.selfTimes()
	perAccess := map[string]string{
		spanGen:     "workload.gen_ns_per_access",
		spanDecode:  "trace.decode_ns_per_access",
		spanSharded: "core.sharded_ns_per_access",
		spanHier:    "hier.ns_per_access",
	}
	for k, name := range kindName {
		perAccess[feedSpan(k)] = "core.feed_ns_per_access." + name
	}
	for span, metric := range perAccess {
		if lt, ok := self[span]; ok && fed[span] > 0 {
			m[metric] = float64(lt.self.Nanoseconds()) / float64(fed[span])
		}
	}
}

// layered feeds access batches through controllers one layer call at a
// time, recording a span around each call when tr is non-nil.
type layered struct {
	ctx  context.Context
	tr   *tracer
	cell int64
	fed  map[string]uint64
}

func newDriver(kind core.Kind, shape cache.Config) (*core.Driver, error) {
	c, err := cache.New(shape, mem.New())
	if err != nil {
		return nil, err
	}
	ctrl, err := core.New(kind, c, core.Options{})
	if err != nil {
		return nil, err
	}
	return core.NewDriver(ctrl), nil
}

// feed runs every batch next returns (named srcSpan) through one fresh
// driver per kind and returns the finished results in kind order.
func (l *layered) feed(kinds []core.Kind, shape cache.Config, srcSpan string, next func([]trace.Access) []trace.Access) ([]core.Result, error) {
	drivers := make([]*core.Driver, len(kinds))
	for i, k := range kinds {
		d, err := newDriver(k, shape)
		if err != nil {
			return nil, err
		}
		drivers[i] = d
	}
	buf := make([]trace.Access, trace.DefaultBatchSize)
	for {
		if err := l.ctx.Err(); err != nil {
			return nil, err
		}
		s := l.tr.begin(srcSpan, l.cell, -1)
		b := next(buf)
		l.tr.end(s)
		if len(b) == 0 {
			break
		}
		l.fed[srcSpan] += uint64(len(b))
		for i, d := range drivers {
			name := feedSpan(kinds[i])
			s := l.tr.begin(name, l.cell, -1)
			d.Feed(b)
			l.tr.end(s)
			l.fed[name] += uint64(len(b))
		}
	}
	out := make([]core.Result, len(kinds))
	for i, d := range drivers {
		s := l.tr.begin(spanFinish, l.cell, -1)
		out[i] = d.Finish()
		l.tr.end(s)
	}
	return out, nil
}

func (l *layered) encode(a *report.Artifact) ([]byte, error) {
	s := l.tr.begin(spanEncode, l.cell, -1)
	defer l.tr.end(s)
	return report.Encode(a)
}

// generated returns a batch source drawing n accesses from prof's
// generator.
func generated(prof workload.Profile, seed uint64, n int) (func([]trace.Access) []trace.Access, error) {
	g, err := workload.NewGenerator(prof, seed)
	if err != nil {
		return nil, err
	}
	left := n
	return func(buf []trace.Access) []trace.Access {
		b := buf[:min(left, len(buf))]
		for i := range b {
			b[i], _ = g.Next()
		}
		left -= len(b)
		return b
	}, nil
}

// matrixLayered rebuilds every matrix artifact through direct layer calls.
// It returns the encoded artifacts and the accesses each span name
// processed.
func matrixLayered(ctx context.Context, seed uint64, n int, tr *tracer) (map[string][]byte, map[string]uint64, error) {
	l := &layered{ctx: ctx, tr: tr, fed: map[string]uint64{}}
	arts := map[string][]byte{}
	base := cache.DefaultConfig()
	fig10 := base
	fig10.SizeBytes = 32 * 1024
	fig10.BlockBytes = 64
	small, large := base, base
	small.SizeBytes = 32 * 1024
	large.SizeBytes = 128 * 1024

	// fig8: the worked example through the four schemes.
	a := matrixArtifact(seed, n, "fig8", base)
	stream := experiments.Fig8Stream(cache.MustGeometry(base.SizeBytes, base.Ways, base.BlockBytes))
	a.SetConfig("stream_len", len(stream))
	l.cell++
	rest := stream
	res, err := l.feed([]core.Kind{core.Conventional, core.RMW, core.WG, core.WGRB}, base, spanSlice,
		func(buf []trace.Access) []trace.Access {
			k := copy(buf, rest)
			rest = rest[k:]
			return buf[:k]
		})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range res {
		a.AddController(r)
		a.SetMetric(r.Controller.String()+".array_accesses", float64(r.ArrayAccesses()))
	}
	if arts["fig8"], err = l.encode(a); err != nil {
		return nil, nil, err
	}

	// rmw: conventional vs RMW array traffic per profile.
	a = matrixArtifact(seed, n, "rmw", base)
	var incs []float64
	for _, prof := range workload.Profiles() {
		l.cell++
		next, err := generated(prof, seed, n)
		if err != nil {
			return nil, nil, err
		}
		res, err := l.feed([]core.Kind{core.Conventional, core.RMW}, base, spanGen, next)
		if err != nil {
			return nil, nil, err
		}
		conv, rmw := res[0].ArrayAccesses(), res[1].ArrayAccesses()
		inc := float64(rmw)/float64(conv) - 1
		a.SetMetric("conventional_accesses."+prof.Name, float64(conv))
		a.SetMetric("rmw_accesses."+prof.Name, float64(rmw))
		a.SetMetric("inflation."+prof.Name, inc)
		incs = append(incs, inc)
	}
	a.SetMetric("mean.inflation", stats.Mean(incs))
	a.SetMetric("max.inflation", stats.Max(incs))
	if arts["rmw"], err = l.encode(a); err != nil {
		return nil, nil, err
	}

	// fig9, fig10, fig11: WG and WG+RB reductions against RMW.
	for _, c := range []struct {
		id     string
		config cache.Config
		shapes map[string]cache.Config
	}{
		{"fig9", base, map[string]cache.Config{"": base}},
		{"fig10", fig10, map[string]cache.Config{"": fig10}},
		{"fig11", base, map[string]cache.Config{"32k.": small, "128k.": large}},
	} {
		a := matrixArtifact(seed, n, c.id, c.config)
		for _, prefix := range sortedKeys(c.shapes) {
			if err := l.reductions(a, prefix, c.shapes[prefix], seed, n); err != nil {
				return nil, nil, err
			}
		}
		if arts[c.id], err = l.encode(a); err != nil {
			return nil, nil, err
		}
	}
	return arts, l.fed, nil
}

// reductions adds one shape's per-profile WG and WG+RB reductions, their
// means and bootstrap CIs under prefix.
func (l *layered) reductions(a *report.Artifact, prefix string, shape cache.Config, seed uint64, n int) error {
	var wgs, rbs []float64
	for _, prof := range workload.Profiles() {
		l.cell++
		next, err := generated(prof, seed, n)
		if err != nil {
			return err
		}
		res, err := l.feed([]core.Kind{core.RMW, core.WG, core.WGRB}, shape, spanGen, next)
		if err != nil {
			return err
		}
		base := res[0].ArrayAccesses()
		wg := stats.Reduction(res[1].ArrayAccesses(), base)
		rb := stats.Reduction(res[2].ArrayAccesses(), base)
		a.SetMetric(prefix+"wg."+prof.Name, wg)
		a.SetMetric(prefix+"wgrb."+prof.Name, rb)
		wgs = append(wgs, wg)
		rbs = append(rbs, rb)
	}
	a.SetMetric(prefix+"mean.wg", stats.Mean(wgs))
	a.SetMetric(prefix+"mean.wgrb", stats.Mean(rbs))
	for _, name := range []string{"wg", "wgrb"} {
		xs := wgs
		if name == "wgrb" {
			xs = rbs
		}
		s := l.tr.begin(spanCI, l.cell, -1)
		ci, err := stats.BootstrapMeanCI(xs, 0.95, 2000, seed)
		l.tr.end(s)
		if err != nil {
			continue
		}
		a.SetMetric(prefix+"ci95."+name+".low", ci.Low)
		a.SetMetric(prefix+"ci95."+name+".high", ci.High)
	}
	return nil
}

// matrixArtifact starts an artifact with the configuration regress stamps
// on every matrix check.
func matrixArtifact(seed uint64, n int, check string, shape cache.Config) *report.Artifact {
	a := report.New("regress", seed)
	a.SetConfig("check", check)
	a.SetConfig("n", n)
	a.SetConfig("seed", seed)
	a.SetConfig("cache_size_bytes", shape.SizeBytes)
	a.SetConfig("cache_ways", shape.Ways)
	a.SetConfig("cache_block_bytes", shape.BlockBytes)
	a.SetConfig("cache_policy", shape.Policy)
	return a
}
