package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runEnv owns the processes one run starts. close stops every daemon and
// waits for it to exit; it is safe to call more than once.
type runEnv struct {
	rc *runConfig

	mu      sync.Mutex
	daemons []*daemon
	// sramd is the binary buildSramd produced, once per run.
	sramd string
}

func newRunEnv(rc *runConfig) *runEnv { return &runEnv{rc: rc} }

// buildSramd builds cmd/sramd from the checkout's source into .bench_build
// and returns the binary's path. It builds once per run, so the go tool's
// staleness check is not part of any timed set-up.
func (e *runEnv) buildSramd(ctx context.Context) (string, error) {
	if e.sramd != "" {
		return e.sramd, nil
	}
	bin := filepath.Join(e.rc.root, ".bench_build", "bin", "sramd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/sramd")
	cmd.Dir = e.rc.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/sramd: %v\n%s", err, out)
	}
	e.sramd = bin
	return bin, nil
}

// daemon is one sramd child process serving on an ephemeral port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
	stopped bool
}

// startDaemon starts sramd with args (plus an ephemeral listen address),
// scrapes its address and waits until /readyz answers 200. Its stderr goes
// to logPath.
func (e *runEnv) startDaemon(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	tmp := filepath.Join(e.rc.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Dir = e.rc.root
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	// Should this process die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()

	sc := bufio.NewScanner(stdout)
	const prefix = "sramd listening on "
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, prefix) {
			d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
			break
		}
	}
	go func() {
		defer close(d.drained)
		io.Copy(io.Discard, stdout)
	}()
	if d.base == "" {
		d.stop()
		return nil, fmt.Errorf("%s %v exited before printing its address (log: %s)", bin, args, logPath)
	}
	if err := waitReady(ctx, d.base); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", base)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for a clean exit (SIGKILL after 20s) and reaps
// the process.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.cmd.Process.Kill()
	}
	exited := make(chan error, 1)
	go func() {
		<-d.drained
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		// A daemon stopped before it installed its signal handler dies of
		// the SIGTERM itself; that is still the stop asked for.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", d.base, err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("%s did not exit within 20s of SIGTERM", d.base)
	}
}

// peakRSSMB reads the daemon's peak resident set size.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stopDaemons stops the given daemons and forgets them.
func (e *runEnv) stopDaemons(ds ...*daemon) error {
	var first error
	for _, d := range ds {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops every daemon the run started.
func (e *runEnv) close() error {
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	return e.stopDaemons(ds...)
}

// vmHWM returns a process's peak resident set size in MiB, from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// goStats is a runtime/metrics reading of the benchmark process.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
}

func readGoStats() goStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// goWindow records the benchmark process's allocation and GC activity
// between two readings, per simulated access.
func goWindow(m map[string]float64, before, after goStats, accesses uint64) {
	if accesses == 0 {
		accesses = 1
	}
	m["go.alloc_bytes_per_access"] = float64(after.allocBytes-before.allocBytes) / float64(accesses)
	m["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msDuration(v float64) time.Duration { return time.Duration(v * 1e6) }

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}
