package radio_test

// Context-cancellation suite for RunContext (CI runs it with -race):
// cancellation must abort the run at a deterministic round boundary, tear
// down every node coroutine, and report an error chain that carries both
// radio.ErrCanceled and the context's own error.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"securadio/internal/radio"
)

// loopingProcs builds nodes that would run for far more rounds than the
// test allows — cancellation is the only way the run ends early.
func loopingProcs(n, rounds int) []radio.Process {
	procs := make([]radio.Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				if (i+r)%2 == 0 {
					e.Transmit(r%e.C(), i)
				} else {
					e.Listen(r % e.C())
				}
			}
		}
	}
	return procs
}

func TestRunContextCancelMidRun(t *testing.T) {
	t.Run("pump", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from the trace callback, which runs on the resolving
		// goroutine: the cut lands at a deterministic round.
		cfg := radio.Config{
			N: 4, C: 2, T: 0, Seed: 1,
			Trace: func(o radio.RoundObservation) {
				if o.Round == 49 {
					cancel()
				}
			},
		}
		res, err := radio.RunContext(ctx, cfg, loopingProcs(4, 10_000))
		if !errors.Is(err, radio.ErrCanceled) {
			t.Fatalf("err = %v, want radio.ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, does not wrap context.Canceled", err)
		}
		// Round 49's trace cancels; round 50 is the first resolution
		// that observes it, so exactly 50 rounds completed.
		if res.Rounds != 50 {
			t.Fatalf("res.Rounds = %d, want 50", res.Rounds)
		}
	})
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := radio.Config{N: 2, C: 2, T: 0, Seed: 1}
	res, err := radio.RunContext(ctx, cfg, loopingProcs(2, 100))
	if !errors.Is(err, radio.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res.Rounds != 0 {
		t.Fatalf("pre-canceled run executed %d rounds", res.Rounds)
	}
}

func TestRunContextDeadline(t *testing.T) {
	t.Run("pump", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		cfg := radio.Config{N: 8, C: 3, T: 0, Seed: 7}
		_, err := radio.RunContext(ctx, cfg, loopingProcs(8, 50_000_000))
		if !errors.Is(err, radio.ErrCanceled) {
			t.Fatalf("err = %v, want radio.ErrCanceled", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, does not wrap DeadlineExceeded", err)
		}
	})
}

// TestRunContextUncancelableIsRun pins the fast path: a Background
// context must leave the run byte-identical to plain Run.
func TestRunContextUncancelableIsRun(t *testing.T) {
	digest := func(run func(radio.Config, []radio.Process) (radio.Result, error)) string {
		var sb []byte
		cfg := radio.Config{
			N: 6, C: 3, T: 0, Seed: 11,
			Trace: func(o radio.RoundObservation) {
				sb = fmt.Appendf(sb, "%d:%v|", o.Round, o.Delivered)
			},
		}
		res, err := run(cfg, loopingProcs(6, 30))
		sb = fmt.Appendf(sb, "res=%+v err=%v", res, err)
		return string(sb)
	}
	plain := digest(radio.Run)
	withCtx := digest(func(cfg radio.Config, procs []radio.Process) (radio.Result, error) {
		return radio.RunContext(context.Background(), cfg, procs)
	})
	if plain != withCtx {
		t.Fatalf("Run and RunContext(Background) diverge:\n%s\nvs\n%s", plain, withCtx)
	}
}
