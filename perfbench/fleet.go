package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/report"
	"cache8t/internal/server"
)

// fleetN is the accesses per sweep point. A point simulates for several of
// the coordinator's 25 ms status polls, and the coordinator keeps four
// points in flight over the workers, so sweep time is simulation and
// dispatch time rather than a count of poll ticks.
func fleetN(rc *runConfig) int {
	if rc.short {
		return 3_000
	}
	return 200_000
}

// rssSweeps is the number of timed sweeps after which sweep-fleet reads the
// workers' peak RSS. Workers keep every job, so a reading at the end of the
// window would grow with the number of sweeps the window got through.
const rssSweeps = 3

// fleetSpec is sweep-fleet's matrix: RMW, WG and WG+RB over trace-replay's
// three profiles at 32, 64 and 128 KB — the capacity axis of Figure 11 —
// with the access streams drawn from seed. The profiles are fixed rather
// than drawn from the seed: simulation cost differs between profiles, and
// the sweep time follows simulation time.
func fleetSpec(seed uint64, n int) (coord.SweepSpec, error) {
	spec := coord.SweepSpec{
		Controllers: []string{"rmw", "wg", "wgrb"},
		Workloads:   append([]string(nil), replayProfiles...),
		Seeds:       []uint64{subSeed(seed, "fleet/seed", 0)},
		N:           n,
		SizesKB:     []int{32, 64, 128},
	}
	spec.Normalize()
	return spec, spec.Validate()
}

// fleet is a coordinator over nproc single-worker, uncached sramd workers.
type fleet struct {
	coord   *daemon
	workers []*daemon
	c       *apiClient
}

// fleetSetup builds sramd, starts the workers and the coordinator (no
// result cache anywhere, so every sweep dispatches every point) and waits
// for each /readyz.
func fleetSetup(ctx context.Context, rc *runConfig, env *runEnv, dir string) (*fleet, error) {
	bin, err := env.buildSramd(ctx)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	var peers []string
	for i := 0; i < rc.procs; i++ {
		w, err := env.startDaemon(ctx, bin, fmt.Sprintf("%s-worker-%d.log", dir, i), "-workers", "1", "-no-cache")
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		peers = append(peers, w.base)
	}
	cd, err := env.startDaemon(ctx, bin, dir+"-coordinator.log", "-coordinator", "-no-cache", "-peers", strings.Join(peers, ","))
	if err != nil {
		return nil, err
	}
	f.coord = cd
	f.c = newAPIClient(cd.base, 1)
	return f, nil
}

func (f *fleet) stop(env *runEnv) error {
	f.c.close()
	return env.stopDaemons(append([]*daemon{f.coord}, f.workers...)...)
}

// peakRSSMB is the largest peak resident set of the simulating workers.
func (f *fleet) peakRSSMB() (float64, error) {
	peak := 0.0
	for _, w := range f.workers {
		v, err := w.peakRSSMB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// sweepSample is one coordinated sweep as the client saw it.
type sweepSample struct {
	status coord.SweepStatus
	ledger []byte
	wall   time.Duration
}

// runSweep submits spec, polls its status until terminal and fetches the
// merged ledger.
func (c *apiClient) runSweep(ctx context.Context, spec coord.SweepSpec, tr *tracer, id int64) (sweepSample, error) {
	var s sweepSample
	body, err := spec.Canonical()
	if err != nil {
		return s, err
	}
	start := time.Now()
	root := tr.begin("coord.sweep", id, -1)
	defer tr.end(root)
	sp := tr.begin("coord.POST /v1/sweeps", id, root)
	resp, code, err := c.do(ctx, http.MethodPost, "/v1/sweeps", body)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	if code != http.StatusAccepted {
		return s, fmt.Errorf("submit sweep: status %d: %s", code, strings.TrimSpace(string(resp)))
	}
	if err := json.Unmarshal(resp, &s.status); err != nil {
		return s, err
	}
	sp = tr.begin("coord.GET /v1/sweeps/{id}", id, root)
	for !s.status.State.Terminal() {
		select {
		case <-ctx.Done():
			tr.end(sp)
			return s, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		resp, code, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+s.status.ID, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			tr.end(sp)
			return s, fmt.Errorf("poll sweep %s: %w", s.status.ID, err)
		}
		if err := json.Unmarshal(resp, &s.status); err != nil {
			tr.end(sp)
			return s, err
		}
	}
	tr.end(sp)
	if s.status.State != server.StateSucceeded {
		return s, fmt.Errorf("sweep %s ended %s: %s", s.status.ID, s.status.State, s.status.Error)
	}
	sp = tr.begin("coord.GET /v1/sweeps/{id}/result", id, root)
	s.ledger, code, err = c.do(ctx, http.MethodGet, "/v1/sweeps/"+s.status.ID+"/result", nil)
	tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return s, fmt.Errorf("fetch sweep %s: %w", s.status.ID, err)
	}
	s.wall = time.Since(start)
	return s, nil
}

// fleetRun is a sequence of sweeps of one spec.
type fleetRun struct {
	samples   []sweepSample
	attempted int64 // points dispatched, one operation each
	failed    int64 // point retries and points of failed sweeps
	wall      time.Duration
}

// sweepLoop runs spec back to back until the window has passed (window > 0)
// or count sweeps finished. onDone, when non-nil, is called with the number
// of succeeded sweeps after each one succeeds.
func sweepLoop(ctx context.Context, f *fleet, spec coord.SweepSpec, count int, window time.Duration, tr *tracer, onDone func(done int)) (fleetRun, error) {
	var run fleetRun
	points := int64(spec.Points())
	start := time.Now()
	for i := 0; ; i++ {
		if (window > 0 && time.Since(start) >= window) || (window <= 0 && i >= count) {
			break
		}
		run.attempted += points
		s, err := f.c.runSweep(ctx, spec, tr, int64(i))
		if ctx.Err() != nil {
			return run, ctx.Err()
		}
		run.failed += int64(s.status.Retries)
		if err != nil {
			run.failed += points
			continue
		}
		run.samples = append(run.samples, s)
		if onDone != nil {
			onDone(len(run.samples))
		}
	}
	run.wall = time.Since(start)
	return run, nil
}

// checkFleet is sweep-fleet's correctness gate: every merged ledger equals
// coord.ExecuteSerial of the same spec. It returns the serial run's wall
// time.
func checkFleet(ctx context.Context, spec coord.SweepSpec, samples []sweepSample) ([]byte, time.Duration, error) {
	start := time.Now()
	serial, err := coord.ExecuteSerial(ctx, spec)
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(start)
	for i, s := range samples {
		if !bytes.Equal(s.ledger, serial) {
			return nil, 0, gatef("sweep %d: merged ledger differs from coord.ExecuteSerial", i)
		}
	}
	return serial, wall, nil
}

// fleetCounts records the simulated counts of one sweep: array reads and
// writes per controller and the accesses simulated.
func fleetCounts(counts map[string]uint64, ledger []byte, spec coord.SweepSpec) error {
	l, err := coord.DecodeLedger(ledger)
	if err != nil {
		return err
	}
	for _, raw := range l.Artifacts {
		a, err := report.Decode(raw)
		if err != nil {
			return err
		}
		for _, c := range a.Controllers {
			counts[c.Controller+".array_reads"] += c.Counters["array_reads"]
			counts[c.Controller+".array_writes"] += c.Counters["array_writes"]
		}
	}
	counts["points"] = uint64(l.Points)
	counts["simulated_accesses"] = uint64(l.Points) * uint64(spec.N)
	return nil
}

func sweepWalls(samples []sweepSample) []float64 {
	var xs []float64
	for _, s := range samples {
		xs = append(xs, ms(s.wall))
	}
	return xs
}

func runFleet(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	spec, err := fleetSpec(subSeed(rc.seed, "fleet", 0), fleetN(rc))
	if err != nil {
		return nil, err
	}
	// Set-up — start the fleet, wait for every /readyz, run one sweep — is
	// repeated and reported as the median; the last fleet is measured.
	// sramd is built once, before the timed set-ups.
	if _, err := env.buildSramd(ctx); err != nil {
		return nil, err
	}
	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.stop(env); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if f, err = fleetSetup(ctx, rc, env, filepath.Join(rc.work, fmt.Sprintf("fleet-%d", i))); err != nil {
			return nil, err
		}
		// A first sweep lets lazy initialisation finish before the window.
		warm, err := sweepLoop(ctx, f, spec, 1, 0, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(warm.samples) != 1 {
			return nil, fmt.Errorf("set-up sweep failed")
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	count, window, rssAt := 0, rc.window, rssSweeps
	if rc.short {
		count, window, rssAt = 2, 0, 2
	}
	var rss float64
	var rssErr error
	run, err := sweepLoop(ctx, f, spec, count, window, nil, func(done int) {
		if done == rssAt {
			rss, rssErr = f.peakRSSMB()
		}
	})
	if err != nil {
		return nil, err
	}
	if err := f.stop(env); err != nil {
		return nil, err
	}
	out.attempted, out.failed = run.attempted, run.failed
	if len(run.samples) < rssAt {
		return nil, fmt.Errorf("only %d sweeps succeeded in the window; at least %d are needed", len(run.samples), rssAt)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	serial, _, err := checkFleet(ctx, spec, run.samples)
	if err != nil {
		return nil, err
	}
	if err := fleetCounts(out.counts, serial, spec); err != nil {
		return nil, err
	}

	walls := sweepWalls(run.samples)
	var rates []float64
	for _, s := range run.samples {
		rates = append(rates, float64(spec.Points())*float64(spec.N)/1e6/s.wall.Seconds())
	}
	out.repeats = len(walls)
	out.metrics["op_p50_ms"] = median(walls)
	out.metrics["macc_per_s"] = median(rates)
	out.metrics["peak_rss_mb"] = rss
	out.detail["sweep_ms"] = walls
	return out, nil
}

// fleetLayerMetrics times coord.MergeLedger on the sweep's point artifacts,
// compares the serial in-process run with the fleet, and reads the
// coordinator's redispatch counter.
func fleetLayerMetrics(ctx context.Context, f *fleet, m map[string]float64, serial []byte, serialWall time.Duration, walls []float64) error {
	l, err := coord.DecodeLedger(serial)
	if err != nil {
		return err
	}
	arts := make([][]byte, len(l.Artifacts))
	for i, raw := range l.Artifacts {
		arts[i] = raw
	}
	merge, err := timeMedian(5, func() error {
		_, err := coord.MergeLedger(l.SweepHash, arts)
		return err
	})
	if err != nil {
		return err
	}
	body, code, err := f.c.do(ctx, http.MethodGet, "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return fmt.Errorf("coordinator /metrics: %w", err)
	}
	redispatches, err := promValue(body, "coord_redispatches_total")
	if err != nil {
		return err
	}
	m["coord.merge_ms"] = ms(merge)
	m["coord.redispatches"] = redispatches
	m["coord.sweep_wall_ms"] = median(walls)
	m["coord.fleet_speedup"] = ms(serialWall) / median(walls)
	return nil
}

// promValue reads an unlabelled sample from a Prometheus exposition.
func promValue(body []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// tracedFleet runs half the window untraced and half with client spans on
// one fleet, gates every ledger, and reports the coordinator layers plus
// the in-process and serve probes at the point size.
func tracedFleet(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	spec, err := fleetSpec(subSeed(rc.seed, "fleet", 0), fleetN(rc))
	if err != nil {
		return nil, err
	}
	f, err := fleetSetup(ctx, rc, env, filepath.Join(rc.work, "fleet"))
	if err != nil {
		return nil, err
	}
	count, half := 0, rc.window/2
	if rc.short {
		count, half = 2, 0
	}
	runA, err := sweepLoop(ctx, f, spec, count, half, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	g0 := readGoStats()
	runB, err := sweepLoop(ctx, f, spec, count, half, tr, nil)
	if err != nil {
		return nil, err
	}
	g1 := readGoStats()
	out.attempted = runA.attempted + runB.attempted
	out.failed = runA.failed + runB.failed
	out.repeats = len(runB.samples)
	if len(runA.samples) == 0 || len(runB.samples) == 0 {
		return nil, fmt.Errorf("no sweep succeeded")
	}
	serial, serialWall, err := checkFleet(ctx, spec, append(append([]sweepSample(nil), runA.samples...), runB.samples...))
	if err != nil {
		return nil, err
	}
	if err := fleetCounts(out.counts, serial, spec); err != nil {
		return nil, err
	}
	if err := fleetLayerMetrics(ctx, f, out.metrics, serial, serialWall, sweepWalls(runB.samples)); err != nil {
		return nil, err
	}
	if err := f.stop(env); err != nil {
		return nil, err
	}

	if err := runProbes(ctx, rc, env, probeInput{profile: spec.Workloads[0], n: spec.N, seed: spec.Seeds[0]}, out, true, false); err != nil {
		return nil, err
	}
	goWindow(out.metrics, g0, g1, uint64(len(runB.samples)*spec.Points()*spec.N))
	busy := runB.wall
	overheadMetrics(out.metrics, time.Duration(median(sweepWalls(runA.samples))*1e6), time.Duration(median(sweepWalls(runB.samples))*1e6), busy, tr)
	out.spans = tr
	return out, nil
}

// fleetProbe measures the coordinator layers for a workload that does not
// run a fleet itself: a fresh fleet runs a few sweeps of points of the
// workload's size, gated against coord.ExecuteSerial.
func fleetProbe(ctx context.Context, rc *runConfig, env *runEnv, n int, m map[string]float64) error {
	spec, err := fleetSpec(subSeed(rc.seed, "fleet-probe", 0), n)
	if err != nil {
		return err
	}
	f, err := fleetSetup(ctx, rc, env, filepath.Join(rc.work, "fleet-probe"))
	if err != nil {
		return err
	}
	run, err := sweepLoop(ctx, f, spec, 3, 0, nil, nil)
	if err != nil {
		return err
	}
	if run.failed > 0 || len(run.samples) == 0 {
		return fmt.Errorf("fleet probe: %d point failures", run.failed)
	}
	serial, serialWall, err := checkFleet(ctx, spec, run.samples)
	if err != nil {
		return err
	}
	if err := fleetLayerMetrics(ctx, f, m, serial, serialWall, sweepWalls(run.samples)); err != nil {
		return err
	}
	return f.stop(env)
}
