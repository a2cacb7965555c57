// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed host-time window, checks every output it produced
// against an independent reference, and prints a JSON result line whose
// metrics are either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) named in BENCHMARK.json.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve-mixed --seed 7 --seconds 10 --trace 1
//
// run.sh builds this program and sramd from source under .bench_build/.
// Results (with an environment stamp and the run's simulated counts) and the
// traced run's spans are written under perfbench/results/. See README.md for
// the workloads, the metrics and what each one should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"cache8t/internal/report"
)

// runConfig is everything one run is parameterised by.
type runConfig struct {
	// root is the checkout root: goldens, cmd/sramd and the results
	// directory are resolved against it.
	root string
	// work is this run's scratch directory under .bench_build; removed at
	// the end of the run.
	work string
	seed uint64
	// window is the measured host-time window.
	window time.Duration
	// short shrinks every input and replaces time windows with fixed
	// operation counts; the self-tests use it.
	short bool
	// procs is the client-goroutine and engine-worker budget (nproc).
	procs int
}

// outcome is what a workload reports back: operation accounting, the
// metric values by name, the simulated counts that must repeat exactly at
// one seed, and per-run detail for the results file.
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	counts    map[string]uint64
	repeats   int
	detail    map[string]any
	spans     *tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counts: map[string]uint64{}, detail: map[string]any{}}
}

// workloadDef binds a workload name to its untraced and traced runs.
type workloadDef struct {
	name   string
	run    func(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error)
	traced func(ctx context.Context, rc *runConfig, env *runEnv) (*outcome, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "paper-matrix", run: runMatrix, traced: tracedMatrix},
		{name: "trace-replay", run: runReplay, traced: tracedReplay},
		{name: "serve-mixed", run: runServe, traced: tracedServe},
		{name: "sweep-fleet", run: runFleet, traced: tracedFleet},
	}
}

// metricUnits lists every metric the benchmark prints with its unit. The
// end-to-end set is printed by untraced runs and the per-layer set by traced
// runs; the self-tests hold both equal to BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"op_p50_ms":   "ms",
	"macc_per_s":  "Macc/s",
	"peak_rss_mb": "MB",
}

var perLayerUnits = map[string]string{
	"workload.gen_ns_per_access":           "ns",
	"trace.encode_ns_per_access":           "ns",
	"trace.bytes_per_access":               "B",
	"trace.decode_ns_per_access":           "ns",
	"core.feed_ns_per_access.conventional": "ns",
	"core.feed_ns_per_access.rmw":          "ns",
	"core.feed_ns_per_access.wg":           "ns",
	"core.feed_ns_per_access.wgrb":         "ns",
	"core.each_speedup":                    "x",
	"core.shard_speedup":                   "x",
	"core.sharded_ns_per_access":           "ns",
	"core.snapshot_ms":                     "ms",
	"core.snapshot_bytes":                  "B",
	"hier.ns_per_access":                   "ns",
	"report.encode_ms":                     "ms",
	"report.artifact_bytes":                "B",
	"rescache.mem_get_us":                  "us",
	"rescache.disk_get_us":                 "us",
	"rescache.disk_put_us":                 "us",
	"rescache.hit_ratio":                   "ratio",
	"server.journal_append_us":             "us",
	"server.submit_ms.hit":                 "ms",
	"server.submit_ms.miss":                "ms",
	"server.queue_ms.miss":                 "ms",
	"server.run_ms.miss":                   "ms",
	"server.wait_ms.miss":                  "ms",
	"server.fetch_ms.hit":                  "ms",
	"server.fetch_ms.miss":                 "ms",
	"serve.jobs_per_s":                     "1/s",
	"serve.miss_p50_ms":                    "ms",
	"serve.hit_p50_ms":                     "ms",
	"serve.p90_ms":                         "ms",
	"coord.fleet_speedup":                  "x",
	"coord.merge_ms":                       "ms",
	"coord.redispatches":                   "count",
	"coord.sweep_wall_ms":                  "ms",
	"go.alloc_bytes_per_access":            "B",
	"go.gc_cycles":                         "count",
	"bench.trace_overhead":                 "ratio",
	"bench.unattributed_frac":              "ratio",
}

// setupRepeats is how many times the service workloads set up (on fresh
// directories) to report the median set-up time.
const setupRepeats = 5

// gateError is a correctness-gate failure: the run produced an output that
// differs from its reference, so it reports no numbers.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gatef(format string, args ...any) error {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

// result is the JSON line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the environment a result was measured in.
type stamp struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Traced     bool    `json:"traced"`
	Repeats    int     `json:"repeats"`
	UnixMS     int64   `json:"unix_ms"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		wl      = flag.String("workload", "", "workload to run (paper-matrix|trace-replay|serve-mixed|sweep-fleet)")
		seed    = flag.Uint64("seed", 1, "input seed; every workload input is generated from it")
		seconds = flag.Int("seconds", 10, "measured host-time window in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		root    = flag.String("root", ".", "checkout root")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	var def *workloadDef
	for _, w := range workloads() {
		if w.name == *wl {
			def = &w
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, st, out, err := runWorkload(ctx, *def, absRoot, *seed, time.Duration(*seconds)*time.Second, *traced == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		var ge *gateError
		if errors.As(err, &ge) {
			// A gate failure is reported, but with no numbers.
			printJSON(os.Stdout, result{Correct: false, Metrics: map[string]metric{}})
		}
		return 1
	}
	if err := writeResults(filepath.Join(absRoot, "perfbench", "results"), st, res, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printJSON(os.Stdout, st)
	printJSON(os.Stdout, res)
	return 0
}

// runWorkload runs one workload in a fresh scratch directory and assembles
// the printed result; short shrinks the inputs (self-tests only). It stops
// every process it started before returning.
func runWorkload(ctx context.Context, def workloadDef, root string, seed uint64, window time.Duration, traced, short bool) (result, stamp, *outcome, error) {
	work := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", def.name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, stamp{}, nil, err
	}
	defer os.RemoveAll(work)
	rc := &runConfig{root: root, work: work, seed: seed, window: window, short: short,
		procs: runtime.GOMAXPROCS(0)}
	env := newRunEnv(rc)
	defer env.close()

	fn := def.run
	units := endToEndUnits
	if traced {
		fn = def.traced
		units = perLayerUnits
	}
	out, err := fn(ctx, rc, env)
	if err != nil {
		return result{}, stamp{}, nil, err
	}
	if err := env.close(); err != nil {
		return result{}, stamp{}, nil, fmt.Errorf("stopping daemons: %w", err)
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok {
			return result{}, stamp{}, nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if res.Attempted < 1 {
		return result{}, stamp{}, nil, fmt.Errorf("no operation was attempted")
	}
	st := stamp{
		GitSHA:     report.GitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload:   def.name,
		Seed:       seed,
		Seconds:    window.Seconds(),
		Traced:     traced,
		Repeats:    out.repeats,
		UnixMS:     time.Now().UnixMilli(),
	}
	return res, st, out, nil
}

// writeResults stores the run's record (stamp, result, simulated counts and
// detail) and, for traced runs, its spans under dir.
func writeResults(dir string, st stamp, res result, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if st.Traced {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%d", st.Workload, st.Seed, mode, st.UnixMS))
	rec := map[string]any{
		"stamp":      st,
		"result":     res,
		"error_rate": errorRate(res.Attempted, res.Failed),
		"counts":     out.counts,
		"detail":     out.detail,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if out.spans != nil {
		return out.spans.writeFile(base + ".spans.json")
	}
	return nil
}

func errorRate(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are printed
	}
	fmt.Fprintln(w, string(b))
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// subSeed derives an independent input seed from the run seed and a label,
// so every generated input is a function of --seed alone.
func subSeed(seed uint64, label string, i int) uint64 {
	h := splitmix(seed ^ 0x9e3779b97f4a7c15)
	for _, c := range []byte(label + "/" + strconv.Itoa(i)) {
		h = splitmix(h ^ uint64(c))
	}
	if h == 0 {
		h = 1
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
