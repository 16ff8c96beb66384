package securadio

// Integration tests: full-stack executions across seeds, adversaries and
// regimes, checking the end-to-end guarantees the paper composes:
// authenticated exchange feeding key establishment feeding the long-lived
// channel.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"securadio/internal/graph"
)

// randomWorkload builds a reproducible pair set over low node IDs.
func randomWorkload(n, k int, seed int64) ([]Pair, map[Pair]Message) {
	rng := rand.New(rand.NewSource(seed))
	span := 12
	if span > n {
		span = n
	}
	pairs := graph.RandomPairs(span, k, rng.Intn)
	payloads := make(map[Pair]Message, len(pairs))
	for _, p := range pairs {
		payloads[p] = fmt.Sprintf("payload-%v-%d", p, seed)
	}
	return pairs, payloads
}

// TestExchangeInvariantsAcrossSeedsAndAdversaries sweeps seeds and the
// adversary zoo and asserts, for every run, the three AME properties of
// Definition 1: authentication (payload integrity), sender awareness
// (validated inside Exchange), and t-disruptability.
func TestExchangeInvariantsAcrossSeedsAndAdversaries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	mkAdv := map[string]func(net Network, seed int64) Interferer{
		"none":   func(Network, int64) Interferer { return nil },
		"jam":    func(net Network, seed int64) Interferer { return NewJammer(net, seed) },
		"sweep":  func(net Network, _ int64) Interferer { return NewSweepJammer(net) },
		"worst":  func(net Network, _ int64) Interferer { return NewWorstCaseJammer(net) },
		"replay": func(net Network, seed int64) Interferer { return NewReplayer(net, seed) },
		"spoof": func(net Network, _ int64) Interferer {
			return NewSpoofer(net, func(round int) Message { return "FORGED" })
		},
	}
	for name, mk := range mkAdv {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				net := Network{N: 20, C: 2, T: 1, Seed: seed}
				net.Adversary = mk(net, seed+100)
				pairs, payloads := randomWorkload(net.N, 10, seed)
				rep, err := newRunner(t, net).Exchange(context.Background(), pairs, payloads)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.DisruptionCover > net.T {
					t.Fatalf("seed %d: cover %d exceeds t", seed, rep.DisruptionCover)
				}
				for p, got := range rep.Delivered {
					if got != payloads[p] {
						t.Fatalf("seed %d: pair %v delivered %v", seed, p, got)
					}
				}
				if len(rep.Delivered)+len(rep.Failed) != len(pairs) {
					t.Fatalf("seed %d: outcome accounting broken", seed)
				}
			}
		})
	}
}

// TestRegimesAgreeOnGuarantees runs the same workload through all three
// channel regimes: outcomes may differ (different schedules) but every
// regime must uphold authenticity and the t bound — and the wider regimes
// must be faster per delivered message at equal t.
func TestRegimesAgreeOnGuarantees(t *testing.T) {
	const tt = 2
	pairs, payloads := randomWorkload(64, 14, 3)
	type outcome struct {
		rounds int
		regime Regime
	}
	var outs []outcome
	for _, rg := range []Regime{RegimeBase, Regime2T, Regime2T2} {
		var c int
		switch rg {
		case Regime2T:
			c = 2 * tt
		case Regime2T2:
			c = 2 * tt * tt
		default:
			c = tt + 1
		}
		net := Network{N: 64, C: c, T: tt, Seed: 9}
		net.Adversary = NewWorstCaseJammer(net)
		rep, err := newRunner(t, net, WithRegime(rg)).Exchange(context.Background(), pairs, payloads)
		if err != nil {
			t.Fatalf("regime %v: %v", rg, err)
		}
		if rep.DisruptionCover > tt {
			t.Fatalf("regime %v: cover %d", rg, rep.DisruptionCover)
		}
		for p, got := range rep.Delivered {
			if got != payloads[p] {
				t.Fatalf("regime %v: pair %v corrupted", rg, p)
			}
		}
		outs = append(outs, outcome{rounds: rep.Rounds, regime: rg})
	}
	if outs[1].rounds >= outs[0].rounds {
		t.Fatalf("2t regime (%d rounds) not faster than base (%d rounds)",
			outs[1].rounds, outs[0].rounds)
	}
}

// TestFullStackUnderCombinedAttack drives the complete pipeline — group
// key bootstrap plus long-lived channel — against an adversary that both
// jams and replays, and checks the application-level outcome.
func TestFullStackUnderCombinedAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("full stack")
	}
	net := Network{N: 20, C: 2, T: 1, Seed: 77}
	net.Adversary = NewReplayer(net, 770)

	const emRounds = 4
	delivered := make([]int, net.N)
	app := func(s Session) {
		for em := 0; em < emRounds; em++ {
			var body []byte
			if s.ID() == 1 {
				body = []byte(fmt.Sprintf("beacon %d", em))
			}
			for _, d := range s.Step(body) {
				if d.Sender == 1 && string(d.Body) == fmt.Sprintf("beacon %d", em) {
					delivered[s.ID()]++
				}
			}
		}
	}
	rep, err := newRunner(t, net).SecureGroup(context.Background(), app)
	if err != nil {
		t.Fatalf("SecureGroup: %v", err)
	}
	if rep.KeyHolders < net.N-net.T {
		t.Fatalf("key holders %d", rep.KeyHolders)
	}
	full := 0
	for id, n := range delivered {
		if id == 1 {
			continue
		}
		if n == emRounds {
			full++
		}
	}
	if full < net.N-net.T-1 {
		t.Fatalf("only %d nodes heard every beacon", full)
	}
}

// TestCompactAndPlainExchangeAgree runs the same workload through plain
// f-AME and the Section 5.6 optimized variant; delivered values must
// agree wherever both succeed.
func TestCompactAndPlainExchangeAgree(t *testing.T) {
	pairs := []Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 4}, {Src: 5, Dst: 6}}
	strPayloads := make(map[Pair]string, len(pairs))
	anyPayloads := make(map[Pair]Message, len(pairs))
	for _, p := range pairs {
		s := fmt.Sprintf("v-%v", p)
		strPayloads[p] = s
		anyPayloads[p] = s
	}
	net := Network{N: 20, C: 2, T: 1, Seed: 4}
	plain, err := newRunner(t, net).Exchange(context.Background(), pairs, anyPayloads)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := newRunner(t, net).ExchangeCompact(context.Background(), pairs, strPayloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		pv, pok := plain.Delivered[p]
		cv, cok := compact.Delivered[p]
		if pok && cok && pv != cv {
			t.Fatalf("pair %v: plain %v vs compact %v", p, pv, cv)
		}
	}
}

// TestDeterminismOfFullAPI: identical Network (including adversary seeds)
// must produce identical reports.
func TestDeterminismOfFullAPI(t *testing.T) {
	run := func() *ExchangeReport {
		net := Network{N: 20, C: 2, T: 1, Seed: 123}
		net.Adversary = NewJammer(net, 321)
		pairs, payloads := randomWorkload(net.N, 8, 5)
		rep, err := newRunner(t, net).Exchange(context.Background(), pairs, payloads)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.GameRounds != b.GameRounds ||
		len(a.Delivered) != len(b.Delivered) || len(a.Failed) != len(b.Failed) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestGroupKeyAcrossScales exercises Section 6 at several sizes.
func TestGroupKeyAcrossScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep")
	}
	for _, n := range []int{18, 30, 48} {
		net := Network{N: n, C: 2, T: 1, Seed: int64(n)}
		net.Adversary = NewJammer(net, int64(n)*7)
		rep, err := newRunner(t, net).GroupKey(context.Background())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rep.Agreed < n-1 {
			t.Fatalf("n=%d: agreed %d", n, rep.Agreed)
		}
	}
}
