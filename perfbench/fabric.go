package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	securadio "securadio"
	"securadio/internal/fleet"
)

// fabricWorker is the worker half of the sweep-fabric workload: the
// coordinator starts this binary with the fabric-worker argument and
// leases cells over its stdin and stdout.
func fabricWorker() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := securadio.ServeSweepWorker(ctx, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench fabric-worker:", err)
		return 1
	}
	return 0
}

// fabricSweep is the i-th sweep of a run: a 96-cell f-AME grid with 8
// runs a cell, small enough that lease encoding, pipe I/O and dispatch
// show next to the simulations. The adversaries stay inside the paper's
// model (no omniscient jammer), where runs do not fail.
func fabricSweep(seed int64, i int, tiny bool) securadio.Sweep {
	s := securadio.Sweep{
		Name: "fabric-grid", Base: fameScenario(),
		N: []int{20, 24, 28, 32}, C: []int{3, 4}, Pairs: []int{4, 6, 8},
		Adversary: []string{"none", "jam", "burst", "combo"},
		Runs:      8, Seed: seedFor(seed, i),
	}
	if tiny {
		s.N, s.Pairs, s.Adversary, s.Runs = []int{20}, []int{4}, []string{"none", "jam"}, 1
	}
	return s
}

// tap sits on one worker's stdio and timestamps the wire protocol's
// lines: the coordinator writes one lease line and reads back one answer
// line, so a lease written and the next line read are one cell's round
// trip. The first line a worker writes is its hello.
type tap struct {
	mu    sync.Mutex
	sent  []int64 // write times of leases awaiting an answer
	lines int     // lines read from the worker
	rtts  []float64
	bytes int64
}

func (t *tap) wrote(p []byte) {
	now := clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes += int64(len(p))
	for range bytes.Count(p, []byte{'\n'}) {
		t.sent = append(t.sent, now)
	}
}

func (t *tap) read(p []byte) {
	now := clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes += int64(len(p))
	for range bytes.Count(p, []byte{'\n'}) {
		t.lines++
		if t.lines > 1 && len(t.sent) > 0 {
			t.rtts = append(t.rtts, float64(now-t.sent[0])/1e6)
			t.sent = t.sent[1:]
		}
	}
}

type tapReader struct {
	t *tap
	r io.Reader
}

func (r tapReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 {
		r.t.read(p[:n])
	}
	return n, err
}

type tapWriter struct {
	t *tap
	w io.Writer
}

func (w tapWriter) Write(p []byte) (int, error) {
	w.t.wrote(p)
	return w.w.Write(p)
}

// fabricRun is one sweep through a fresh Coordinator and a fresh worker
// process — what a distributed sweep costs a user, worker start-up
// included.
type fabricRun struct {
	res      *securadio.SweepResult
	wall     time.Duration
	rtts     []float64 // ms per cell
	wire     int64     // bytes both ways
	reissues int
}

// runFabric runs sw on one self-exec'd worker at GOMAXPROCS=1, attached to
// the Coordinator over a tapped stdin/stdout pair. The worker has exited
// when runFabric returns.
func runFabric(ctx context.Context, cfg *config, sw securadio.Sweep) (*fabricRun, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, cfg.exe, "fabric-worker")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = cfg.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fabric worker: %w", err)
	}
	co := securadio.NewFabric(securadio.FabricConfig{})
	defer func() {
		co.Close() // closes the worker's stdin: EOF is the shutdown signal
		waitOrKill(cmd)
	}()
	tp := &tap{}
	co.AttachStream("worker-1", tapReader{tp, stdout}, tapWriter{tp, stdin}, stdin)
	res, err := co.RunSweep(ctx, sw)
	if err != nil {
		return nil, err
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return &fabricRun{res: res, wall: time.Since(start), rtts: slices.Clone(tp.rtts), wire: tp.bytes, reissues: co.Reissues()}, nil
}

// checkSweep holds every cell of a fabric sweep to checkAggregate.
func checkSweep(sw securadio.Sweep, res *securadio.SweepResult) error {
	plan, err := fleet.PlanSweep(sw)
	if err != nil {
		return err
	}
	if len(plan.Cells()) != len(res.Cells) {
		return fmt.Errorf("sweep %s: %d cells, want %d runnable", sw.Name, len(res.Cells), len(plan.Cells()))
	}
	for _, cp := range plan.Cells() {
		cell := res.Cells[cp.Index]
		if cell.Agg == nil || cell.Skip != "" {
			return fmt.Errorf("sweep %s: cell %s has no aggregate (%s)", sw.Name, cell.Cell, cell.Skip)
		}
		if err := checkAggregate(cell.Agg, cp.Campaign); err != nil {
			return err
		}
	}
	return nil
}

type fabricInstance struct{ cfg *config }

// setupFabric starts the workers, waits for their handshake and runs a
// two-cell warm-up sweep through them.
func setupFabric(ctx context.Context, cfg *config) (instance, error) {
	warm := fabricSweep(warmupSeed, warmupOp, true)
	warm.C, warm.Adversary = []int{3}, []string{"jam", "none"}
	fr, err := runFabric(ctx, cfg, warm)
	if err != nil {
		return nil, err
	}
	if err := checkSweep(warm, fr.res); err != nil {
		return nil, err
	}
	return &fabricInstance{cfg: cfg}, nil
}

func (f *fabricInstance) close() {}

func (f *fabricInstance) measure(ctx context.Context) (*measurement, error) {
	m := &measurement{}
	var first *securadio.SweepResult
	var firstSweep securadio.Sweep
	start := time.Now()
	for i := 0; time.Since(start) < f.cfg.window; i++ {
		sw := fabricSweep(f.cfg.seed, i, f.cfg.tiny)
		plan, err := fleet.PlanSweep(sw)
		if err != nil {
			return nil, err
		}
		m.ops += len(plan.Cells())
		fr, err := runFabric(ctx, f.cfg, sw)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			m.failed += len(plan.Cells())
			m.problem("sweep %d: %v", i, err)
			continue
		}
		if err := checkSweep(sw, fr.res); err != nil {
			m.failed += len(plan.Cells())
			m.problem("sweep %d: %v", i, err)
			continue
		}
		if fr.reissues != 0 {
			m.problem("sweep %d: %d leases re-issued", i, fr.reissues)
		}
		m.latencies = append(m.latencies, fr.rtts...)
		for _, c := range fr.res.Cells {
			m.runs += c.Agg.Runs
		}
		if first == nil {
			first, firstSweep = fr.res, sw
		}
	}
	m.wall = time.Since(start)
	if first == nil {
		return m, nil
	}
	blob, err := first.MarshalIndent()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	m.digest = hex.EncodeToString(sum[:])[:16]

	// A cell's aggregate must not depend on the process that ran it:
	// re-run three cells of the first sweep in this process.
	plan, err := fleet.PlanSweep(firstSweep)
	if err != nil {
		return nil, err
	}
	cells := plan.Cells()
	for _, k := range []int{0, len(cells) / 2, len(cells) - 1} {
		cp := cells[k]
		agg, err := securadio.RunCampaign(ctx, cp.Campaign)
		if err != nil {
			m.problem("in-process cell %s: %v", cp.Campaign.Scenario.Name, err)
			continue
		}
		want, err1 := agg.MarshalIndent()
		got, err2 := first.Cells[cp.Index].Agg.MarshalIndent()
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			m.problem("cell %s: fabric aggregate differs from the in-process campaign", cp.Campaign.Scenario.Name)
		}
	}
	return m, nil
}

func (f *fabricInstance) layers(ctx context.Context, m metricSet) (*tally, error) {
	start := time.Now()
	sw := fabricSweep(f.cfg.seed, 0, f.cfg.tiny)
	plan, err := fleet.PlanSweep(sw)
	if err != nil {
		return nil, err
	}
	cells := plan.Cells()

	// The same sweep through the fabric and through the in-process pool
	// with one worker, both simulating at GOMAXPROCS=1, so the wall times
	// differ by the fabric's own costs alone: worker start-up, lease
	// encoding, pipe I/O and dispatch. The two reports must be the same
	// bytes.
	fr, err := runFabric(ctx, f.cfg, sw)
	if err != nil {
		return nil, err
	}
	inSweep := sw
	inSweep.Workers = 1
	prev := runtime.GOMAXPROCS(1)
	t0 := time.Now()
	in, err := securadio.RunSweep(ctx, inSweep)
	inWall := time.Since(t0)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	t := &tally{ops: len(cells)}
	a, err1 := fr.res.MarshalIndent()
	b, err2 := in.MarshalIndent()
	if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
		t.failed += len(cells)
		t.problem("fabric sweep report differs from the in-process RunSweep report")
	}
	m.set("fabric.overhead_frac", fr.wall.Seconds()/inWall.Seconds()-1)
	m.set("fabric.wire_kb_per_cell", float64(fr.wire)/1024/float64(len(cells)))
	m.set("fabric.reissues", float64(fr.reissues))

	over, err := fleetOverhead(ctx, cells[0].Campaign.Scenario, cells[0].Campaign.Seed, f.cfg.window/20)
	if err != nil {
		return nil, err
	}
	m.set("fleet.overhead_frac", over)
	zero(m, serviceMetrics...)

	// The ledger covers every cell in turn until the window is used up.
	lg, err := runLedger(ctx, func(i int) simCase {
		cp := cells[i%len(cells)]
		run := i / len(cells)
		return scenarioCase(cp.Campaign.Scenario, run, cp.Campaign.SeedFor(run))
	}, start.Add(f.cfg.window), minLedgerRuns)
	if err != nil {
		return nil, err
	}
	lg.metrics(m)
	t.ops += lg.runs
	return t, nil
}
