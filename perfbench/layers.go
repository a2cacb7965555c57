package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/hier"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/server"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// probeInput sizes the layer probes to a workload: one trace of the
// workload's profile, length and seed.
type probeInput struct {
	profile string
	n       int
	seed    uint64
}

// runProbes times each layer's public functions directly on the workload's
// input, filling every per-layer metric the workload's own traced run does
// not measure. serve and fleet add the sramd and coordinator probes for
// workloads that run neither.
func runProbes(ctx context.Context, rc *runConfig, env *runEnv, in probeInput, out *outcome, serve, fleet bool) error {
	m := out.metrics
	if in.seed == 0 {
		in.seed = subSeed(rc.seed, "probe", 0)
	}
	reps, keys := 5, 32
	if rc.short {
		reps, keys = 2, 4
	}
	prof, err := workload.ProfileByName(in.profile)
	if err != nil {
		return err
	}
	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(in.n) }

	// Generation: workload.Generator.Next.
	accs := make([]trace.Access, in.n)
	d, err := timeMedian(reps, func() error {
		g, err := workload.NewGenerator(prof, in.seed)
		if err != nil {
			return err
		}
		for i := range accs {
			accs[i], _ = g.Next()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["workload.gen_ns_per_access"] = perAccess(d)

	// Encoding: trace.WriteAll.
	var enc bytes.Buffer
	if d, err = timeMedian(reps, func() error {
		enc.Reset()
		_, err := trace.WriteAll(&enc, trace.FromSlice(accs), 0)
		return err
	}); err != nil {
		return err
	}
	m["trace.encode_ns_per_access"] = perAccess(d)
	m["trace.bytes_per_access"] = float64(enc.Len()) / float64(in.n)
	encoded := enc.Bytes()
	open := func() (trace.Stream, error) { return trace.NewReader(bytes.NewReader(encoded)), nil }

	// Decoding: trace.Reader.ReadBatch into one reused buffer.
	buf := make([]trace.Access, trace.DefaultBatchSize)
	if d, err = timeMedian(reps, func() error {
		r := trace.NewReader(bytes.NewReader(encoded))
		total := 0
		for {
			k := r.ReadBatch(buf)
			if k == 0 {
				break
			}
			total += k
		}
		if total != in.n {
			return fmt.Errorf("decoded %d of %d accesses", total, in.n)
		}
		return r.Err()
	}); err != nil {
		return err
	}
	m["trace.decode_ns_per_access"] = perAccess(d)

	// Controllers: core.Driver.Feed over pre-decoded batches, plus Finish.
	shape := cache.DefaultConfig()
	results := map[core.Kind]core.Result{}
	for _, kind := range []core.Kind{core.Conventional, core.RMW, core.WG, core.WGRB} {
		if d, err = timeMedian(reps, func() error {
			drv, err := newDriver(kind, shape)
			if err != nil {
				return err
			}
			for i := 0; i < len(accs); i += trace.DefaultBatchSize {
				drv.Feed(accs[i:min(i+trace.DefaultBatchSize, len(accs))])
			}
			results[kind] = drv.Finish()
			return nil
		}); err != nil {
			return err
		}
		m["core.feed_ns_per_access."+kindName[kind]] = perAccess(d)
	}

	// Multi-kind broadcast vs one kind at a time over the same trace.
	kinds := []core.Kind{core.RMW, core.WG, core.WGRB}
	var serialRes, eachRes []core.Result
	serial, err := timeMedian(reps, func() error {
		serialRes, err = core.RunEachStreamSerial(ctx, kinds, shape, core.Options{}, open, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	each, err := timeMedian(reps, func() error {
		eachRes, err = core.RunEachStream(ctx, kinds, shape, core.Options{}, open, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(serialRes, eachRes) {
		return gatef("core.RunEachStream results differ from RunEachStreamSerial")
	}
	m["core.each_speedup"] = float64(serial) / float64(each)

	// Set-sharded RMW over nproc shards vs the serial streaming driver.
	var streamRes, shardRes core.Result
	stream, err := timeMedian(reps, func() error {
		s, _ := open()
		streamRes, err = core.RunStreamContext(ctx, core.RMW, shape, core.Options{}, s, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	sharded, err := timeMedian(reps, func() error {
		s, _ := open()
		shardRes, err = core.RunShardedContext(ctx, core.RMW, shape, core.Options{}, s, 0, 0, rc.procs)
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(streamRes, shardRes) {
		return gatef("core.RunShardedContext result differs from RunStreamContext")
	}
	m["core.shard_speedup"] = float64(stream) / float64(sharded)
	m["core.sharded_ns_per_access"] = perAccess(sharded)

	// Checkpoint: Driver.Snapshot of a WG run halfway through the trace.
	drv, err := newDriver(core.WG, shape)
	if err != nil {
		return err
	}
	drv.Feed(accs[:in.n/2])
	var snap []byte
	if d, err = timeMedian(reps, func() error {
		snap, err = drv.Snapshot(shape)
		return err
	}); err != nil {
		return err
	}
	m["core.snapshot_ms"] = ms(d)
	m["core.snapshot_bytes"] = float64(len(snap))

	// Two-level hierarchy: a WG L1 over the default RMW L2.
	hspec := server.JobSpec{Controller: "wg", Hierarchy: true, L2: &server.L2Spec{Controller: "rmw"}, Seed: in.seed}
	hspec.Normalize()
	hcfg, err := hspec.HierConfig()
	if err != nil {
		return err
	}
	if d, err = timeMedian(reps, func() error {
		_, err := hier.RunContext(ctx, hcfg, trace.FromSlice(accs), 0, 0)
		return err
	}); err != nil {
		return err
	}
	m["hier.ns_per_access"] = perAccess(d)

	// Artifact assembly and encoding for one job.
	spec := server.JobSpec{Controller: "rmw", Workload: in.profile, N: in.n, Seed: in.seed}
	spec.Normalize()
	var art []byte
	if d, err = timeMedian(reps, func() error {
		art, err = report.Encode(server.Artifact(spec, in.profile, results[core.RMW]))
		return err
	}); err != nil {
		return err
	}
	m["report.encode_ms"] = ms(d)
	m["report.artifact_bytes"] = float64(len(art))

	if err := probeStorage(rc, art, keys, m); err != nil {
		return err
	}
	if serve {
		if err := serveProbe(ctx, rc, env, in.n, m); err != nil {
			return err
		}
	}
	if fleet {
		if err := fleetProbe(ctx, rc, env, in.n, m); err != nil {
			return err
		}
	}
	return nil
}

// probeStorage times the result cache's memory and disk tiers and the
// fsynced job journal on artifact-sized blobs, in fresh directories.
func probeStorage(rc *runConfig, art []byte, keys int, m map[string]float64) error {
	blobs := make([][]byte, keys)
	names := make([]string, keys)
	for i := range blobs {
		// Distinct contents, so every put writes a new CAS blob.
		blobs[i] = append(append([]byte(nil), art...), fmt.Sprintf("\n%d", i)...)
		names[i] = fmt.Sprintf("%064x", i+1)
	}
	timeEach := func(fn func(i int) error) (float64, error) {
		var us []float64
		for i := range blobs {
			start := time.Now()
			if err := fn(i); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		return median(us), nil
	}

	memCache, err := rescache.Open(rescache.Config{})
	if err != nil {
		return err
	}
	defer memCache.Close()
	for i := range blobs {
		memCache.Put(names[i], blobs[i])
	}
	if m["rescache.mem_get_us"], err = timeEach(func(i int) error {
		if _, _, ok := memCache.Get(names[i]); !ok {
			return fmt.Errorf("memory tier lost key %d", i)
		}
		return nil
	}); err != nil {
		return err
	}

	disk, err := rescache.OpenDisk(filepath.Join(rc.work, "probe-cas"), 1<<30, rescache.ArtifactFormat())
	if err != nil {
		return err
	}
	defer disk.Close()
	if m["rescache.disk_put_us"], err = timeEach(func(i int) error { return disk.Put(names[i], blobs[i]) }); err != nil {
		return err
	}
	if m["rescache.disk_get_us"], err = timeEach(func(i int) error {
		b, ok := disk.Get(names[i])
		if !ok || !bytes.Equal(b, blobs[i]) {
			return fmt.Errorf("disk tier lost key %d", i)
		}
		return nil
	}); err != nil {
		return err
	}

	j, _, err := server.OpenJournal(filepath.Join(rc.work, "probe-journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	m["server.journal_append_us"], err = timeEach(func(i int) error {
		return j.AppendRecord(server.Record{Job: fmt.Sprintf("j-%06d", i+1), State: server.StateQueued,
			SpecKey: names[i], UnixMS: time.Now().UnixMilli()})
	})
	return err
}
