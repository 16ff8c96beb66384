package securadio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runnerInvocations drives every Runner method with a small valid
// workload; the suite below runs each one through the cancellation and
// equivalence grids.
func runnerInvocations() map[string]func(ctx context.Context, r *Runner) error {
	return map[string]func(ctx context.Context, r *Runner) error{
		"Exchange": func(ctx context.Context, r *Runner) error {
			pairs, payloads := somePairs()
			_, err := r.Exchange(ctx, pairs, payloads)
			return err
		},
		"ExchangeCompact": func(ctx context.Context, r *Runner) error {
			pairs, _ := somePairs()
			payloads := make(map[Pair]string, len(pairs))
			for _, p := range pairs {
				payloads[p] = fmt.Sprintf("c/%v", p)
			}
			_, err := r.ExchangeCompact(ctx, pairs, payloads)
			return err
		},
		"GroupKey": func(ctx context.Context, r *Runner) error {
			_, err := r.GroupKey(ctx)
			return err
		},
		"SecureGroup": func(ctx context.Context, r *Runner) error {
			_, err := r.SecureGroup(ctx, func(s Session) {
				for em := 0; em < 2; em++ {
					s.Step(nil)
				}
			})
			return err
		},
	}
}

// TestRunnerCancellationMidRun cancels each Runner method from its own
// observer stream (which runs on the engine's resolving goroutine) and
// checks the typed error chain. CI runs this under -race.
func TestRunnerCancellationMidRun(t *testing.T) {
	for name, invoke := range runnerInvocations() {
		name, invoke := name, invoke
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r, err := NewRunner(testNet(),
				WithAdversary("jam"),
				WithObserver(ObserverFunc(func(ev *RoundEvent) {
					if ev.Round == 8 {
						cancel()
					}
				})))
			if err != nil {
				t.Fatal(err)
			}
			err = invoke(ctx, r)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, does not wrap context.Canceled", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) || ce.Op == "" {
				t.Fatalf("err = %#v, want a *CanceledError with an Op", err)
			}
		})
	}
}

// TestRunnerCancellationPreCanceled checks that every method refuses to
// start on an already-dead context.
func TestRunnerCancellationPreCanceled(t *testing.T) {
	for name, invoke := range runnerInvocations() {
		name, invoke := name, invoke
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			r, err := NewRunner(testNet())
			if err != nil {
				t.Fatal(err)
			}
			if err := invoke(ctx, r); !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
		})
	}
}

// TestRunnerCancellationDeadline checks deadline errors surface as
// ErrCanceled wrapping DeadlineExceeded.
func TestRunnerCancellationDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	r, err := NewRunner(Network{N: 20, C: 2, T: 1, Seed: 3}, WithAdversary("jam"))
	if err != nil {
		t.Fatal(err)
	}
	_, gerr := r.GroupKey(ctx) // group key runs >100ms, the deadline lands mid-run
	if !errors.Is(gerr, ErrCanceled) || !errors.Is(gerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", gerr)
	}
}

// TestRunnerCallsRepeat pins the Runner's no-state contract for an
// adversary configured by strategy name: every call builds a fresh
// instance, so two calls on one Runner return equal reports and equal
// observer streams.
func TestRunnerCallsRepeat(t *testing.T) {
	calls := map[string]func(r *Runner) (any, error){
		"Exchange": func(r *Runner) (any, error) {
			pairs, payloads := somePairs()
			return r.Exchange(context.Background(), pairs, payloads)
		},
		"GroupKey": func(r *Runner) (any, error) { return r.GroupKey(context.Background()) },
	}
	for _, adv := range []string{"jam", "hop", "burst", "replay", "combo"} {
		for name, call := range calls {
			t.Run(adv+"/"+name, func(t *testing.T) {
				t.Parallel()
				d := &digestingObserver{h: sha256.New()}
				r := newRunner(t, Network{N: 20, C: 2, T: 1, Seed: 3}, WithAdversary(adv), WithObserver(d))
				var reports [2]any
				var digests [2]string
				for i := range reports {
					rep, err := call(r)
					if err != nil {
						t.Fatalf("call %d: %v", i+1, err)
					}
					reports[i], digests[i] = rep, hex.EncodeToString(d.h.Sum(nil))
					d.h.Reset()
				}
				if !reflect.DeepEqual(reports[0], reports[1]) {
					t.Fatalf("second call's report differs:\n%+v\nvs\n%+v", reports[0], reports[1])
				}
				if digests[0] != digests[1] {
					t.Fatalf("second call's event stream differs: %s then %s", digests[0], digests[1])
				}
			})
		}
	}
}

// TestRunnerSharedAcrossGoroutines shares one Runner configured with a
// strategy name between two goroutines: each call owns its adversary, so
// the calls neither race (CI runs this under -race) nor disturb each
// other's report.
func TestRunnerSharedAcrossGoroutines(t *testing.T) {
	r := newRunner(t, Network{N: 20, C: 2, T: 1, Seed: 3}, WithAdversary("jam"))
	pairs, payloads := somePairs()
	want, err := r.Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		got  [2]*ExchangeReport
		errs [2]error
	)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairs, payloads := somePairs()
			got[i], errs[i] = r.Exchange(context.Background(), pairs, payloads)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("goroutine %d's report differs from a lone call's:\n%+v\nvs\n%+v", i, got[i], want)
		}
	}
}

func TestRunnerOptionErrors(t *testing.T) {
	net := testNet()
	if _, err := NewRunner(net, WithAdversary("no-such-strategy")); !errors.Is(err, ErrBadParams) {
		t.Fatalf("unknown adversary name: err = %v, want ErrBadParams", err)
	}
	if _, err := NewRunner(net, WithAdversary(42)); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bogus adversary type: err = %v, want ErrBadParams", err)
	}
	if _, err := NewRunner(Network{N: 0, C: 2, T: 1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("empty network: err = %v, want ErrBadParams", err)
	}
	if _, err := NewRunner(Network{N: 10, C: 1, T: 0}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("single channel: err = %v, want ErrBadParams", err)
	}
	// "none" and nil both mean no interference.
	if _, err := NewRunner(net, WithAdversary("none")); err != nil {
		t.Fatalf(`WithAdversary("none"): %v`, err)
	}
	if _, err := NewRunner(net, WithAdversary(nil)); err != nil {
		t.Fatalf("WithAdversary(nil): %v", err)
	}
}

func TestRunnerParamErrors(t *testing.T) {
	r, err := NewRunner(testNet())
	if err != nil {
		t.Fatal(err)
	}
	// A pair referencing a node outside [0, N) fails layer validation.
	bad := []Pair{{Src: 0, Dst: 99}}
	_, err = r.Exchange(context.Background(), bad, map[Pair]Message{bad[0]: "x"})
	if !errors.Is(err, ErrBadParams) {
		t.Fatalf("err = %v, want ErrBadParams", err)
	}
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Op != "exchange" {
		t.Fatalf("err = %#v, want *ParamError{Op: exchange}", err)
	}
	// Model bounds: N far below the f-AME minimum for the regime.
	small, err := NewRunner(Network{N: 3, C: 2, T: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{Src: 0, Dst: 1}}
	if _, err := small.Exchange(context.Background(), pairs, map[Pair]Message{pairs[0]: "x"}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("undersized network: err = %v, want ErrBadParams", err)
	}
}

// TestErrorHierarchySentinels pins the errors.Is topology of the typed
// hierarchy without needing to trigger each failure end to end.
func TestErrorHierarchySentinels(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{&ParamError{Op: "x", Err: errors.New("y")}, ErrBadParams},
		{&CanceledError{Op: "x", Err: context.Canceled}, ErrCanceled},
		{&QuorumError{N: 20, T: 1}, ErrNoQuorum},
		{&SetupError{Holders: 3, N: 20, T: 1}, ErrSetupFailed},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("errors.Is(%v, %v) = false", tc.err, tc.want)
		}
		if tc.err.Error() == "" {
			t.Errorf("%T renders empty", tc.err)
		}
	}
	if !errors.Is(&CanceledError{Op: "x", Err: context.Canceled}, context.Canceled) {
		t.Error("CanceledError does not unwrap to the context error")
	}
	// Sentinels are distinct: a ParamError is not ErrCanceled, etc.
	if errors.Is(&ParamError{Op: "x", Err: errors.New("y")}, ErrCanceled) {
		t.Error("ParamError matches ErrCanceled")
	}
}
