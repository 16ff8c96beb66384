package radio

// Abort, cancellation and panic coverage for the engine's teardown paths.
// Run under -race in CI: concurrent runs share the engine pool.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count drops back to at most
// base (teardown is asynchronous only in that exiting goroutines may not
// have been reaped yet).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestAbortUnderLoad trips every abort path with enough nodes to make
// teardown racy if it can be: round budget, checkpoint tag mismatch,
// checkpoint mixing and invalid channels.
func TestAbortUnderLoad(t *testing.T) {
	t.Run("pump", func(t *testing.T) {
		base := runtime.NumGoroutine()

		t.Run("max-rounds", func(t *testing.T) {
			const n = 120
			procs := make([]Process, n)
			for i := range procs {
				procs[i] = func(e Env) {
					for {
						e.Sleep()
					}
				}
			}
			_, err := Run(Config{N: n, C: 3, T: 1, MaxRounds: 25}, procs)
			if !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
		})

		t.Run("checkpoint-mismatch", func(t *testing.T) {
			const n = 64
			procs := make([]Process, n)
			for i := range procs {
				i := i
				procs[i] = func(e Env) {
					e.SleepFor(3)
					e.Checkpoint(fmt.Sprintf("tag-%d", i%2))
					e.SleepFor(100)
				}
			}
			_, err := Run(Config{N: n, C: 2, T: 1}, procs)
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("err = %v, want ErrCheckpoint", err)
			}
		})

		t.Run("checkpoint-mixed", func(t *testing.T) {
			procs := []Process{
				func(e Env) { e.Checkpoint("x") },
				func(e Env) { e.Sleep() },
				func(e Env) { e.Listen(0) },
			}
			_, err := Run(Config{N: 3, C: 2, T: 1}, procs)
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("err = %v, want ErrCheckpoint", err)
			}
		})

		t.Run("invalid-channel", func(t *testing.T) {
			const n = 48
			procs := make([]Process, n)
			for i := range procs {
				i := i
				procs[i] = func(e Env) {
					e.SleepFor(2)
					if i == n/2 {
						e.Transmit(99, "out of range")
					}
					e.SleepFor(50)
				}
			}
			_, err := Run(Config{N: n, C: 4, T: 1}, procs)
			if !errors.Is(err, ErrBadAction) {
				t.Fatalf("err = %v, want ErrBadAction", err)
			}
		})

		waitForGoroutines(t, base)
	})
}

// panicPlanAdversary panics inside Plan after a few clean rounds.
type panicPlanAdversary struct{ at int }

func (a *panicPlanAdversary) Plan(round int) []Transmission {
	if round >= a.at {
		panic("adversary exploded mid-run")
	}
	return nil
}
func (a *panicPlanAdversary) Observe(RoundObservation) {}

// TestAdversaryPanicReachesCaller pins the panic contract: adversary (and
// trace) panics surface on Run's caller — where campaign runners isolate
// them — and the engine still tears down without leaking goroutines.
func TestAdversaryPanicReachesCaller(t *testing.T) {
	t.Run("pump", func(t *testing.T) {
		base := runtime.NumGoroutine()
		const n = 40
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = func(e Env) {
				for r := 0; r < 50; r++ {
					e.Sleep()
				}
			}
		}
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			Run(Config{N: n, C: 2, T: 1, Adversary: &panicPlanAdversary{at: 5}}, procs)
		}()
		if recovered != "adversary exploded mid-run" {
			t.Fatalf("recovered %v, want the adversary's panic value", recovered)
		}
		waitForGoroutines(t, base)
	})
}

// TestConcurrentRunsShareNothing hammers the engine pool: many goroutines
// run simultaneously (with and without abort) and every run with the same
// seed must produce the same result. Combined with -race this is the
// pool-reuse data-race check.
func TestConcurrentRunsShareNothing(t *testing.T) {
	t.Run("pump", func(t *testing.T) {
		const workers, iters = 8, 12
		want, err := concurrencyProbeRun(0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers*iters)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for k := 0; k < iters; k++ {
					if k%3 == 2 { // interleave aborted runs to dirty the pool
						procs := []Process{func(e Env) {
							for {
								e.Sleep()
							}
						}}
						if _, err := Run(Config{N: 1, C: 2, T: 0, MaxRounds: 4}, procs); !errors.Is(err, ErrMaxRounds) {
							errs <- fmt.Errorf("aborted probe: err = %v", err)
							return
						}
						continue
					}
					got, err := concurrencyProbeRun(0)
					if err != nil {
						errs <- err
						return
					}
					if got != want {
						errs <- fmt.Errorf("result diverged across pooled runs: %+v vs %+v", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// concurrencyProbeRun is a deterministic mixed workload whose Result
// fingerprints the whole execution.
func concurrencyProbeRun(seed int64) (Result, error) {
	const n = 10
	procs := make([]Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e Env) {
			for r := 0; r < 30; r++ {
				switch (i + r) % 3 {
				case 0:
					e.Transmit(e.Rand().Intn(e.C()), i)
				case 1:
					e.Listen(e.Rand().Intn(e.C()))
				default:
					e.Sleep()
				}
			}
		}
	}
	return Run(Config{N: n, C: 3, T: 1, Seed: seed}, procs)
}

// TestNodePanicCrashesProcess pins the node-Process panic contract: the
// panic must bring the whole process down, exactly as it did when every
// node ran on its own goroutine in the seed engine. The crash is observed
// from a child process running this test's helper branch.
func TestNodePanicCrashesProcess(t *testing.T) {
	if os.Getenv("RADIO_NODE_PANIC_HELPER") != "" {
		procs := []Process{
			func(e Env) { e.SleepFor(2); panic("node exploded") },
			func(e Env) {
				for {
					e.Listen(0)
				}
			},
		}
		Run(Config{N: 2, C: 2, T: 1}, procs)
		os.Exit(0) // not reached: the panic must crash the process
	}
	t.Run("pump", func(t *testing.T) {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestNodePanicCrashesProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "RADIO_NODE_PANIC_HELPER=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("helper exited cleanly; want a crash. output:\n%s", out)
		}
		if !strings.Contains(string(out), "node exploded") {
			t.Fatalf("crash output does not carry the panic value:\n%s", out)
		}
	})
}
