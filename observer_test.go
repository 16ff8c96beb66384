package securadio

// Observer event-stream suite. The golden digests in
// testdata/observer.golden pin the complete public event stream — every
// round's phase bookkeeping and per-channel activity — for a grid of
// (layer, N, C, T, adversary, seed) cells, and the test replays every
// cell: the stream must match the golden and be byte-identical across
// repeated runs. This extends the scheduler-equivalence suite from the
// internal Trace stream to the promoted public Observer surface.
//
// Regenerate (only when intentionally changing the event model):
//
//	go test . -run TestObserverEquivalence -update-observer

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateObserver = flag.Bool("update-observer", false, "rewrite testdata/observer.golden from the current engine")

// digestingObserver folds every event into a running hash in a canonical
// text encoding.
type digestingObserver struct{ h hash.Hash }

func (d *digestingObserver) ObserveRound(ev *RoundEvent) {
	fmt.Fprintf(d.h, "round=%d phase=%q checkpoint=%q live=%d", ev.Round, ev.Phase, ev.Checkpoint, ev.Live)
	// Fault fields enter the digest only when set, so a fault-free stream
	// encodes to exactly the pre-fault-layer bytes: the golden digests
	// double as the no-op proof that disabled fault injection leaves the
	// public event stream untouched.
	if ev.DownNodes != 0 || ev.Deaths != 0 || ev.Recoveries != 0 || ev.FaultDrops != 0 {
		fmt.Fprintf(d.h, " down=%d deaths=%d recoveries=%d faultdrops=%d",
			ev.DownNodes, ev.Deaths, ev.Recoveries, ev.FaultDrops)
	}
	fmt.Fprintf(d.h, "\n")
	for c, ch := range ev.Channels {
		// The legacy activity fields keep the historical %+v byte layout.
		fmt.Fprintf(d.h, "  ch[%d]={Transmitters:%d Listeners:%d Jammed:%t Collision:%t Delivered:%t Spoofed:%t}",
			c, ch.Transmitters, ch.Listeners, ch.Jammed, ch.Collision, ch.Delivered, ch.Spoofed)
		if ch.Faded || ch.Dropped {
			fmt.Fprintf(d.h, " faded=%t dropped=%t", ch.Faded, ch.Dropped)
		}
		fmt.Fprintf(d.h, "\n")
	}
}

// observerCase is one cell of the grid.
type observerCase struct {
	name string
	net  Network
	adv  string
	run  func(ctx context.Context, r *Runner) error
}

func observerGrid() []observerCase {
	exchange := func(ctx context.Context, r *Runner) error {
		pairs, payloads := somePairs()
		_, err := r.Exchange(ctx, pairs, payloads)
		return err
	}
	compact := func(ctx context.Context, r *Runner) error {
		pairs, _ := somePairs()
		payloads := make(map[Pair]string, len(pairs))
		for _, p := range pairs {
			payloads[p] = fmt.Sprintf("c/%v", p)
		}
		_, err := r.ExchangeCompact(ctx, pairs, payloads)
		return err
	}
	groupKey := func(ctx context.Context, r *Runner) error {
		_, err := r.GroupKey(ctx)
		return err
	}
	secureGroup := func(ctx context.Context, r *Runner) error {
		_, err := r.SecureGroup(ctx, func(s Session) {
			for em := 0; em < 2; em++ {
				var body []byte
				if s.ID() == em {
					body = []byte(fmt.Sprintf("b/%d", em))
				}
				s.Step(body)
			}
		})
		return err
	}
	return []observerCase{
		{"exchange/N=20/C=2/T=1/jam", Network{N: 20, C: 2, T: 1, Seed: 42}, "jam", exchange},
		{"exchange/N=20/C=2/T=1/worst", Network{N: 20, C: 2, T: 1, Seed: 7}, "worst", exchange},
		{"exchange/N=64/C=4/T=2/hop", Network{N: 64, C: 4, T: 2, Seed: 11}, "hop", exchange},
		{"compact/N=20/C=2/T=1/replay", Network{N: 20, C: 2, T: 1, Seed: 13}, "replay", compact},
		{"groupkey/N=20/C=2/T=1/jam", Network{N: 20, C: 2, T: 1, Seed: 17}, "jam", groupKey},
		{"securegroup/N=20/C=2/T=1/burst", Network{N: 20, C: 2, T: 1, Seed: 19}, "burst", secureGroup},
	}
}

// observerDigest runs one cell and returns the hex digest of its full
// event stream plus the final error.
func observerDigest(tc observerCase) (string, error) {
	d := &digestingObserver{h: sha256.New()}
	r, err := NewRunner(tc.net, WithAdversary(tc.adv), WithObserver(d))
	if err != nil {
		return "", err
	}
	runErr := tc.run(context.Background(), r)
	fmt.Fprintf(d.h, "err=%v\n", runErr)
	return hex.EncodeToString(d.h.Sum(nil)), runErr
}

func observerGoldenPath() string {
	return filepath.Join("testdata", "observer.golden")
}

func readObserverGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(observerGoldenPath())
	if err != nil {
		t.Fatalf("golden file missing (run with -update-observer to capture): %v", err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestObserverEquivalence(t *testing.T) {
	grid := observerGrid()
	if *updateObserver {
		var b strings.Builder
		b.WriteString("# Golden digests of the public Observer event stream, one per grid cell:\n")
		b.WriteString("# <case-name> <sha256 of every RoundEvent + final error>.\n")
		names := make([]string, 0, len(grid))
		byName := make(map[string]observerCase, len(grid))
		for _, tc := range grid {
			names = append(names, tc.name)
			byName[tc.name] = tc
		}
		sort.Strings(names)
		for _, name := range names {
			d, err := observerDigest(byName[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "%s %s\n", name, d)
		}
		if err := os.MkdirAll(filepath.Dir(observerGoldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observerGoldenPath(), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests", len(grid))
		return
	}

	golden := readObserverGolden(t)
	if len(golden) != len(grid) {
		t.Fatalf("golden file has %d entries, grid has %d (regenerate with -update-observer)", len(golden), len(grid))
	}
	for _, tc := range grid {
		tc := tc
		t.Run("pump/"+tc.name, func(t *testing.T) {
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden digest for %q (regenerate with -update-observer)", tc.name)
			}
			got, err := observerDigest(tc)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if got != want {
				t.Fatalf("event stream diverged:\n got %s\nwant %s", got, want)
			}
			again, _ := observerDigest(tc)
			if again != got {
				t.Fatalf("event stream is nondeterministic: %s then %s", got, again)
			}
		})
	}
}

// TestObserverDoesNotPerturbRun pins the zero-influence contract: a run
// with an observer attached produces the exact same report as one
// without.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	run := func(obs Observer) *ExchangeReport {
		t.Helper()
		opts := []RunnerOption{WithAdversary("jam")}
		if obs != nil {
			opts = append(opts, WithObserver(obs))
		}
		r, err := NewRunner(testNet(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		pairs, payloads := somePairs()
		rep, err := r.Exchange(context.Background(), pairs, payloads)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	silent := run(nil)
	events := 0
	observed := run(ObserverFunc(func(ev *RoundEvent) { events++ }))
	if fmt.Sprintf("%+v", silent) != fmt.Sprintf("%+v", observed) {
		t.Fatalf("observer perturbed the run:\n%+v\nvs\n%+v", silent, observed)
	}
	if events != observed.Rounds {
		t.Fatalf("observer saw %d events for %d rounds", events, observed.Rounds)
	}
}

// TestObserverPhaseTransitions checks that protocol checkpoint barriers
// surface as phase transitions: the group-key run crosses its two
// documented phases in order.
func TestObserverPhaseTransitions(t *testing.T) {
	var transitions []string
	lastPhase := ""
	r, err := NewRunner(Network{N: 20, C: 2, T: 1, Seed: 5},
		WithAdversary("jam"),
		WithObserver(ObserverFunc(func(ev *RoundEvent) {
			if ev.Checkpoint != "" {
				transitions = append(transitions, fmt.Sprintf("%s@%d", ev.Checkpoint, ev.Round))
			}
			if ev.Phase != lastPhase {
				lastPhase = ev.Phase
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GroupKey(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(transitions) != 2 {
		t.Fatalf("transitions = %v, want the two group-key checkpoints", transitions)
	}
	if !strings.HasPrefix(transitions[0], "groupkey/part1@") || !strings.HasPrefix(transitions[1], "groupkey/part2@") {
		t.Fatalf("transitions = %v, want part1 then part2", transitions)
	}
	if lastPhase != "groupkey/part2" {
		t.Fatalf("final phase = %q, want groupkey/part2", lastPhase)
	}
}

// TestObserverSpectrumActivity sanity-checks the per-channel flags under
// a known jammer: jamming must be visible, and flag combinations must be
// internally consistent.
func TestObserverSpectrumActivity(t *testing.T) {
	jammedRounds, collisions, deliveries := 0, 0, 0
	r, err := NewRunner(testNet(),
		WithAdversary("jam"),
		WithObserver(ObserverFunc(func(ev *RoundEvent) {
			for _, ch := range ev.Channels {
				if ch.Jammed {
					jammedRounds++
				}
				if ch.Collision {
					collisions++
					if ch.Delivered {
						t.Fatal("collided channel reported a delivery")
					}
				}
				if ch.Delivered {
					deliveries++
					if ch.Transmitters != 1 {
						t.Fatalf("delivery with %d transmitters", ch.Transmitters)
					}
				}
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	pairs, payloads := somePairs()
	if _, err := r.Exchange(context.Background(), pairs, payloads); err != nil {
		t.Fatal(err)
	}
	if jammedRounds == 0 {
		t.Fatal("random jammer never observed jamming")
	}
	if collisions == 0 || deliveries == 0 {
		t.Fatalf("degenerate spectrum: collisions=%d deliveries=%d", collisions, deliveries)
	}
}
