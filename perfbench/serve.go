package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cache8t/internal/report"
	"cache8t/internal/server"
	"cache8t/internal/workload"
)

// apiClient talks to one sramd over at most conns connections.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string, conns int) *apiClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 30 * time.Second}
	return &apiClient{base: base, hc: &http.Client{Transport: tr}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// errRefused marks a submit the daemon refused with 429.
var errRefused = errors.New("submit refused: 429")

// do performs one request and returns the whole response body.
func (c *apiClient) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// jobSample is one job as the client saw it. The durations are client-side
// spans: the POST, the SSE wait and the artifact GET.
type jobSample struct {
	idx      int
	spec     server.JobSpec
	hit      bool // the schedule repeats a spec finished during set-up
	status   server.JobStatus
	artifact []byte
	total    time.Duration
	submit   time.Duration
	wait     time.Duration
	fetch    time.Duration
}

// runJob submits spec, waits on the job's SSE stream unless the submit
// response is already terminal (a cache hit), and fetches the artifact.
func (c *apiClient) runJob(ctx context.Context, spec server.JobSpec, tr *tracer, id int64) (jobSample, error) {
	s := jobSample{spec: spec}
	body, err := spec.Canonical()
	if err != nil {
		return s, err
	}
	start := time.Now()
	root := tr.begin("sramd.job", id, -1)
	defer tr.end(root)

	sp := tr.begin("sramd.POST /v1/jobs", id, root)
	resp, code, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	tr.end(sp)
	s.submit = time.Since(start)
	switch {
	case err != nil:
		return s, fmt.Errorf("submit: %w", err)
	case code == http.StatusTooManyRequests:
		return s, errRefused
	case code != http.StatusAccepted:
		return s, fmt.Errorf("submit: status %d: %s", code, strings.TrimSpace(string(resp)))
	}
	if err := json.Unmarshal(resp, &s.status); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}

	if !s.status.State.Terminal() {
		t0 := time.Now()
		sp := tr.begin("sramd.GET /v1/jobs/{id}/events", id, root)
		s.status, err = c.waitJob(ctx, s.status.ID)
		tr.end(sp)
		s.wait = time.Since(t0)
		if err != nil {
			return s, err
		}
	}
	if s.status.State != server.StateSucceeded {
		return s, fmt.Errorf("job %s ended %s: %s", s.status.ID, s.status.State, s.status.Error)
	}

	t0 := time.Now()
	sp = tr.begin("sramd.GET /v1/jobs/{id}/result", id, root)
	s.artifact, code, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+s.status.ID+"/result", nil)
	tr.end(sp)
	s.fetch = time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return s, fmt.Errorf("fetch %s: %w", s.status.ID, err)
	}
	s.total = time.Since(start)
	return s, nil
}

// waitJob follows the job's SSE stream until a status frame (or the
// recovered frame a restarted daemon sends first) reports a terminal state.
func (c *apiClient) waitJob(ctx context.Context, id string) (server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, fmt.Errorf("events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && (event == "status" || event == "recovered"):
			var st server.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, fmt.Errorf("events %s: %w", id, err)
			}
			if st.State.Terminal() {
				// The server closes the stream after the terminal frame;
				// reading to EOF keeps the connection reusable.
				io.Copy(io.Discard, resp.Body)
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, fmt.Errorf("events %s: %w", id, err)
	}
	return server.JobStatus{}, fmt.Errorf("events %s: stream ended before a terminal state", id)
}

// serveSchedule is the seeded job sequence of serve-mixed: every hitEvery-th
// job repeats one of the specs finished during set-up (a cache hit), every
// other job is a fresh spec (a miss).
type serveSchedule struct {
	seed     uint64
	n        int
	profiles []string
	hits     []server.JobSpec
}

// hitEvery sets the repeat share to 1 in 4. No measured mix of callers
// exists; the share lies between sramload's load mode (no repeats) and
// `sramload -repeat 16` (15 in 16). A hit costs two journal fsyncs and
// little else, so at a higher share the job latency follows the host's
// fsync latency rather than the program.
const hitEvery = 4

var serveControllers = []string{"rmw", "wg", "wgrb"}

func newServeSchedule(seed uint64, n, hits int) serveSchedule {
	s := serveSchedule{seed: seed, n: n, profiles: workload.Names()}
	for i := 0; i < hits; i++ {
		s.hits = append(s.hits, s.spec("hit", i))
	}
	return s
}

func (s serveSchedule) spec(label string, i int) server.JobSpec {
	h := subSeed(s.seed, label, i)
	spec := server.JobSpec{
		Controller: serveControllers[h%uint64(len(serveControllers))],
		Workload:   s.profiles[(h/8)%uint64(len(s.profiles))],
		N:          s.n,
		Seed:       subSeed(s.seed, label+"/seed", i),
	}
	spec.Normalize()
	return spec
}

// entry returns the i-th scheduled spec and whether it repeats a set-up
// spec.
func (s serveSchedule) entry(i int) (server.JobSpec, bool) {
	if i%hitEvery == hitEvery-1 {
		return s.hits[subSeed(s.seed, "pick", i)%uint64(len(s.hits))], true
	}
	return s.spec("fresh", i), false
}

// serveN is the accesses per serve-mixed job: small, so the service layers
// are a large share of each job, but not so small that the job rate makes
// the journal's fsyncs set the latency. In runs interleaved on the
// reference host, the misses' submit time (which includes an fsync) grew
// 4.5x over four minutes at 20,000 accesses a job and stayed flat at
// 40,000.
func serveN(rc *runConfig) int {
	if rc.short {
		return 4_000
	}
	return 40_000
}

// serveRun is what one closed-loop run of the schedule produced. next is the
// first schedule entry the run did not take.
type serveRun struct {
	samples []jobSample
	failed  int64
	wall    time.Duration
	next    int
}

// serveLoop runs the schedule closed-loop from entry first with `clients`
// goroutines — each submits, waits, fetches, then takes the next entry —
// until the window has passed (window > 0) or count entries were taken.
// Refused submits, failed jobs and stream errors are counted, not sampled.
// onDone, when non-nil, is called with the number of completed jobs after
// each one completes.
func serveLoop(ctx context.Context, c *apiClient, sched serveSchedule, clients, first, count int, window time.Duration, tr *tracer, onDone func(done int)) (serveRun, error) {
	var (
		next    atomic.Int64
		nfail   atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		samples []jobSample
	)
	next.Store(int64(first))
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if (window > 0 && time.Since(start) >= window) || (window <= 0 && i >= first+count) {
					return
				}
				spec, hit := sched.entry(i)
				s, err := c.runJob(ctx, spec, tr, int64(i))
				if err != nil {
					nfail.Add(1)
					continue
				}
				s.idx, s.hit = i, hit
				mu.Lock()
				samples = append(samples, s)
				if onDone != nil {
					onDone(len(samples))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return serveRun{}, err
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return serveRun{samples: samples, failed: nfail.Load(), wall: wall, next: int(next.Load())}, nil
}

// serveDaemon is a journaled, disk-cached sramd with the schedule's hit
// specs already finished.
type serveDaemon struct {
	d       *daemon
	c       *apiClient
	hitArts map[string][]byte
}

// serveSetup builds sramd, starts it on a fresh cache and journal dir, waits
// for /readyz and runs every hit spec once so later repeats hit.
func serveSetup(ctx context.Context, rc *runConfig, env *runEnv, sched serveSchedule, dir string) (*serveDaemon, error) {
	bin, err := env.buildSramd(ctx)
	if err != nil {
		return nil, err
	}
	d, err := env.startDaemon(ctx, bin, dir+".log",
		"-cache-dir", filepath.Join(dir, "cas"),
		"-journal-dir", filepath.Join(dir, "journal"),
		"-spool", filepath.Join(dir, "spool"))
	if err != nil {
		return nil, err
	}
	sd := &serveDaemon{d: d, c: newAPIClient(d.base, rc.procs), hitArts: map[string][]byte{}}
	for i, spec := range sched.hits {
		s, err := sd.c.runJob(ctx, spec, nil, int64(-1-i))
		if err != nil {
			return nil, fmt.Errorf("set-up job: %w", err)
		}
		if s.status.Cached {
			return nil, gatef("set-up job %d was served from the cache", i)
		}
		key, err := spec.Canonical()
		if err != nil {
			return nil, err
		}
		sd.hitArts[string(key)] = s.artifact
	}
	return sd, nil
}

func (sd *serveDaemon) stop(env *runEnv) error {
	sd.c.close()
	return env.stopDaemons(sd.d)
}

// checkServe is serve-mixed's correctness gate: every miss artifact equals
// server.Execute of its spec, every hit was served from the cache and equals
// the artifact its spec produced as a miss during set-up, and those set-up
// artifacts equal server.Execute too.
func checkServe(ctx context.Context, procs int, samples []jobSample, hitArts map[string][]byte) error {
	type want struct {
		spec server.JobSpec
		got  []byte
		what string
	}
	var misses []want
	for key, art := range hitArts {
		spec, err := server.DecodeSpec([]byte(key))
		if err != nil {
			return err
		}
		misses = append(misses, want{spec, art, "set-up job"})
	}
	for _, s := range samples {
		switch {
		case s.hit && !s.status.Cached:
			return gatef("job %d repeats a finished spec but was not served from the cache", s.idx)
		case !s.hit && s.status.Cached:
			return gatef("job %d is a fresh spec but was served from the cache", s.idx)
		case s.hit:
			key, err := s.spec.Canonical()
			if err != nil {
				return err
			}
			if !bytes.Equal(s.artifact, hitArts[string(key)]) {
				return gatef("job %d: cache hit differs from its miss", s.idx)
			}
		default:
			misses = append(misses, want{s.spec, s.artifact, fmt.Sprintf("job %d", s.idx)})
		}
	}
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(misses); i += procs {
				m := misses[i]
				ref, err := server.Execute(ctx, m.spec, m.spec.Workload, nil)
				if err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(ref, m.got) {
					errs[w] = gatef("%s: artifact differs from server.Execute of its spec", m.what)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveCounts records the simulated counts of the schedule's first limit
// entries: array reads and writes per controller, accesses simulated, and
// the hit/miss split.
func serveCounts(counts map[string]uint64, samples []jobSample, limit int) {
	for _, s := range samples {
		if s.idx >= limit {
			continue
		}
		if s.hit {
			counts["schedule.hits"]++
		} else {
			counts["schedule.misses"]++
			counts["simulated_accesses"] += uint64(s.spec.N)
		}
		if a, err := report.Decode(s.artifact); err == nil {
			for _, c := range a.Controllers {
				counts[c.Controller+".array_reads"] += c.Counters["array_reads"]
				counts[c.Controller+".array_writes"] += c.Counters["array_writes"]
			}
		}
	}
}

// serveLayerMetrics derives the per-layer serve metrics from the client
// spans and the server-reported queue and run times.
func serveLayerMetrics(m map[string]float64, samples []jobSample, wall time.Duration) {
	var all, hitTotal, missTotal, hitSubmit, missSubmit, hitFetch, missFetch, wait, queue, run []float64
	cached := 0
	for _, s := range samples {
		all = append(all, ms(s.total))
		if s.status.Cached {
			cached++
		}
		if s.hit {
			hitTotal = append(hitTotal, ms(s.total))
			hitSubmit = append(hitSubmit, ms(s.submit))
			hitFetch = append(hitFetch, ms(s.fetch))
			continue
		}
		missTotal = append(missTotal, ms(s.total))
		missSubmit = append(missSubmit, ms(s.submit))
		missFetch = append(missFetch, ms(s.fetch))
		wait = append(wait, ms(s.wait))
		queue = append(queue, s.status.QueueMS)
		run = append(run, s.status.RunMS)
	}
	m["server.submit_ms.hit"] = median(hitSubmit)
	m["server.submit_ms.miss"] = median(missSubmit)
	m["server.queue_ms.miss"] = median(queue)
	m["server.run_ms.miss"] = median(run)
	m["server.wait_ms.miss"] = median(wait)
	m["server.fetch_ms.hit"] = median(hitFetch)
	m["server.fetch_ms.miss"] = median(missFetch)
	m["serve.jobs_per_s"] = float64(len(samples)) / wall.Seconds()
	m["serve.miss_p50_ms"] = median(missTotal)
	m["serve.hit_p50_ms"] = median(hitTotal)
	m["serve.p90_ms"] = quantile(all, 0.9)
	if len(samples) > 0 {
		m["rescache.hit_ratio"] = float64(cached) / float64(len(samples))
	}
}

// minServeJobs is how many jobs a full serve-mixed window must complete, so
// the 90th percentile has ten samples beyond it.
const minServeJobs = 100

// rssServeJobs is the completed-job count at which serve-mixed reads sramd's
// peak RSS. sramd keeps every job, so a reading at the end of the window
// would grow with the number of jobs the window got through.
const rssServeJobs = 500

func runServe(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	sched := newServeSchedule(subSeed(rc.seed, "serve", 0), serveN(rc), 16)

	// Set-up — start sramd, wait for /readyz, finish the specs that later
	// hit — is repeated on fresh directories and reported as the median; the
	// last daemon serves the measured window. sramd is built once, before
	// the timed set-ups.
	if _, err := env.buildSramd(ctx); err != nil {
		return nil, err
	}
	var setups []float64
	var sd *serveDaemon
	for i := 0; i < setupRepeats; i++ {
		if sd != nil {
			if err := sd.stop(env); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if sd, err = serveSetup(ctx, rc, env, sched, filepath.Join(rc.work, fmt.Sprintf("serve-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	count, window, rssAt := 0, rc.window, rssServeJobs
	if rc.short {
		count, window, rssAt = 24, 0, 24
	}
	var rss float64
	var rssErr error
	run, err := serveLoop(ctx, sd.c, sched, rc.procs, 0, count, window, nil, func(done int) {
		if done == rssAt {
			rss, rssErr = sd.d.peakRSSMB()
		}
	})
	if err != nil {
		return nil, err
	}
	samples, failed, wall := run.samples, run.failed, run.wall
	if err := sd.stop(env); err != nil {
		return nil, err
	}
	out.attempted = int64(len(samples)) + failed
	out.failed = failed
	// rssServeJobs exceeds minServeJobs, so this also leaves the 90th
	// percentile enough samples.
	if len(samples) < rssAt {
		return nil, fmt.Errorf("only %d jobs completed in the window; at least %d are needed", len(samples), rssAt)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if err := checkServe(ctx, rc.procs, samples, sd.hitArts); err != nil {
		return nil, err
	}
	limit := minServeJobs
	if rc.short {
		limit = count
	}
	serveCounts(out.counts, samples, limit)

	var lat []float64
	var accesses uint64
	for _, s := range samples {
		lat = append(lat, ms(s.total))
		if !s.hit {
			accesses += uint64(s.spec.N)
		}
	}
	out.repeats = len(samples)
	out.metrics["op_p50_ms"] = median(lat)
	out.metrics["macc_per_s"] = float64(accesses) / 1e6 / wall.Seconds()
	out.metrics["peak_rss_mb"] = rss
	layers := map[string]float64{}
	serveLayerMetrics(layers, samples, wall)
	out.detail["jobs"] = len(samples)
	out.detail["serve"] = layers
	return out, nil
}

// tracedServe runs half the window untraced and half with client spans on
// the same daemon, gates both halves, and reports the serve layers from the
// traced half plus the in-process and fleet probes at the job size.
func tracedServe(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error) {
	out := newOutcome()
	sched := newServeSchedule(subSeed(rc.seed, "serve", 0), serveN(rc), 16)
	sd, err := serveSetup(ctx, rc, env, sched, filepath.Join(rc.work, "serve"))
	if err != nil {
		return nil, err
	}
	count, half := 0, rc.window/2
	if rc.short {
		count, half = 24, 0
	}
	runA, err := serveLoop(ctx, sd.c, sched, rc.procs, 0, count, half, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	g0 := readGoStats()
	runB, err := serveLoop(ctx, sd.c, sched, rc.procs, runA.next, count, half, tr, nil)
	if err != nil {
		return nil, err
	}
	g1 := readGoStats()
	plain, traced, wall := runA.samples, runB.samples, runB.wall
	failedA, failedB := runA.failed, runB.failed
	if err := sd.stop(env); err != nil {
		return nil, err
	}
	out.attempted = int64(len(plain)+len(traced)) + failedA + failedB
	out.failed = failedA + failedB
	out.repeats = len(traced)
	all := append(append([]jobSample(nil), plain...), traced...)
	if err := checkServe(ctx, rc.procs, all, sd.hitArts); err != nil {
		return nil, err
	}
	limit := minServeJobs
	if rc.short {
		limit = count
	}
	serveCounts(out.counts, plain, limit)

	spec, _ := sched.entry(0)
	if err := runProbes(ctx, rc, env, probeInput{profile: spec.Workload, n: spec.N, seed: spec.Seed}, out, false, true); err != nil {
		return nil, err
	}
	serveLayerMetrics(out.metrics, traced, wall)
	var accesses uint64
	for _, s := range traced {
		if !s.hit {
			accesses += uint64(s.spec.N)
		}
	}
	goWindow(out.metrics, g0, g1, accesses)
	busy := wall * time.Duration(rc.procs)
	overheadMetrics(out.metrics, time.Duration(p50Total(plain)), time.Duration(p50Total(traced)), busy, tr)
	out.spans = tr
	return out, nil
}

func p50Total(samples []jobSample) float64 {
	var xs []float64
	for _, s := range samples {
		xs = append(xs, float64(s.total))
	}
	return median(xs)
}

// serveProbe measures the serve layers for a workload that does not run
// sramd itself: a fresh journaled daemon serves a fixed number of jobs of
// the workload's size closed-loop, gated like serve-mixed.
func serveProbe(ctx context.Context, rc *runConfig, env *runEnv, n int, m map[string]float64) error {
	sched := newServeSchedule(subSeed(rc.seed, "serve-probe", 0), n, 8)
	sd, err := serveSetup(ctx, rc, env, sched, filepath.Join(rc.work, "serve-probe"))
	if err != nil {
		return err
	}
	count := 120
	if rc.short {
		count = 16
	}
	run, err := serveLoop(ctx, sd.c, sched, rc.procs, 0, count, 0, nil, nil)
	if err != nil {
		return err
	}
	if err := sd.stop(env); err != nil {
		return err
	}
	if run.failed > 0 {
		return fmt.Errorf("serve probe: %d jobs failed", run.failed)
	}
	if err := checkServe(ctx, rc.procs, run.samples, sd.hitArts); err != nil {
		return err
	}
	serveLayerMetrics(m, run.samples, run.wall)
	return nil
}
