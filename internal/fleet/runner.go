package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"securadio/internal/radio"
)

// RunHooks carries the streaming callbacks of service mode: a long-running
// campaign server subscribes to a campaign's progress while it executes,
// instead of waiting for the final aggregate. Both hooks are optional and
// a nil *RunHooks selects the plain, hook-free execution path.
type RunHooks struct {
	// OnResult is invoked after each completed run folds into its cell's
	// aggregate, with the cell's scenario name, the run's result and a
	// self-contained snapshot of the aggregate so far (Aggregate.Snapshot).
	// Calls are serial — they happen on the fold goroutine — so the hook
	// needs no locking of its own, but it delays folding: an expensive
	// hook should hand off to its own machinery (the service layer's
	// non-blocking fan-out) rather than doing slow work inline.
	OnResult func(cell string, r RunResult, snapshot *Aggregate)

	// RoundTrace, when non-nil, receives every radio round observation of
	// every run, tagged with the cell name and run index. Unlike OnResult
	// it is called concurrently from all worker goroutines, so it must be
	// safe for concurrent use; and it runs inside the simulation's round
	// loop, so it must never block. The observation and its slices are
	// only valid during the call (the engine reuses them).
	RoundTrace func(cell string, run int, o radio.RoundObservation)
}

// Run executes a campaign on a worker pool and streams every run's outcome
// into an Aggregate.
//
// Concurrency contract:
//
//   - the pool uses Campaign.Workers goroutines (GOMAXPROCS when zero);
//   - per-run seeds come from Campaign.SeedFor, so the aggregate is a
//     deterministic function of (Scenario, Runs, Seed) regardless of worker
//     count or completion order;
//   - a run that panics on the worker goroutine (adversary construction,
//     pair generation, parameter validation, outcome assembly) is
//     isolated: the panic is recovered and recorded as a failed run, and
//     the campaign keeps going. Panics raised inside a node program (a
//     radio Process) are outside this boundary — the radio engine
//     re-raises them on a fresh goroutine and they crash the process,
//     exactly as they would in a single-run invocation;
//   - cancelling ctx stops dispatching new runs AND aborts the in-flight
//     simulations at their next round boundary (the context reaches the
//     radio engine itself). Aborted partial runs never enter the
//     aggregate; Run returns the aggregate of everything that completed
//     and reports ctx's error.
func Run(ctx context.Context, c Campaign) (*Aggregate, error) {
	return RunWithHooks(ctx, c, nil)
}

// RunWithHooks is Run with streaming callbacks: h.OnResult sees every
// completed run (with an incremental aggregate snapshot) and h.RoundTrace
// sees every radio round. A nil h is exactly Run.
func RunWithHooks(ctx context.Context, c Campaign, h *RunHooks) (*Aggregate, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.hooks = h
	start := time.Now()
	agg := newAggregate(c)
	runPool(ctx, c.Workers, c.Runs, []Campaign{c}, func(i int) poolJob {
		return poolJob{run: i}
	}, func(_ poolJob, r RunResult) {
		agg.observe(r)
		if h != nil && h.OnResult != nil {
			h.OnResult(c.Scenario.Name, r, agg.Snapshot())
		}
	})
	agg.finalize(time.Since(start))
	// A cancellation that lands after the last run completed changed
	// nothing: the aggregate is whole, so don't report it as interrupted.
	if agg.Runs == c.Runs {
		return agg, nil
	}
	return agg, ctx.Err()
}

// poolJob identifies one simulation in a pooled execution: an index into
// the caller's campaign-plan table and a run index within that campaign.
type poolJob struct{ plan, run int }

// runPool is the worker-pool core shared by Run and RunSweep: it fans
// jobAt(0..total-1) across workers goroutines (GOMAXPROCS when
// non-positive, never more than there are jobs), executes each through
// its campaign's runOne with a per-worker reusable runState, and folds
// every completed result — serially, from the caller's goroutine — via
// fold. Jobs come through a generator rather than a slice so a
// multi-million-run campaign never materializes its grid. Runs cut short
// by cancellation are dropped, not folded (they represent no completed
// simulation); fold order is scheduling-dependent, so callers must fold
// into order-insensitive accumulators. Returns the number of results
// folded.
func runPool(ctx context.Context, workers, total int, campaigns []Campaign, jobAt func(int) poolJob, fold func(poolJob, RunResult)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	jobCh := make(chan poolJob)
	type outcome struct {
		job poolJob
		res RunResult
	}
	results := make(chan outcome, workers)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns a runState: scenario-level buffers (pair
			// values, process tables, per-node result slots) are allocated
			// once per worker and reused by every run it executes, so a
			// 10k-run campaign stops churning the GC.
			st := newRunState()
			for j := range jobCh {
				res := campaigns[j.plan].runOne(ctx, j.run, st)
				if res.Canceled {
					continue
				}
				results <- outcome{job: j, res: res}
			}
		}()
	}

	go func() {
		defer close(jobCh)
		for i := 0; i < total; i++ {
			// select picks randomly among ready cases, so an
			// already-cancelled context could still win the job send;
			// check it first so cancellation stops dispatch immediately.
			if ctx.Err() != nil {
				return
			}
			select {
			case jobCh <- jobAt(i):
			case <-ctx.Done():
				return
			}
		}
	}()

	go func() {
		wg.Wait()
		close(results)
	}()

	folded := 0
	for o := range results {
		fold(o.job, o.res)
		folded++
	}
	return folded
}

// runOne executes a single grid run with panic isolation.
func (c Campaign) runOne(ctx context.Context, run int, st *runState) (res RunResult) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{
				Run: run, Seed: c.SeedFor(run),
				Err: fmt.Sprintf("panic: %v", r), Panicked: true,
			}
		}
		res.Elapsed = time.Since(start)
	}()
	if c.hooks != nil && c.hooks.RoundTrace != nil {
		cell, hook := c.Scenario.Name, c.hooks.RoundTrace
		st.trace = func(o radio.RoundObservation) { hook(cell, run, o) }
	} else {
		st.trace = nil
	}
	return c.Scenario.execute(ctx, run, c.SeedFor(run), st)
}
