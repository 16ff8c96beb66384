package securadio_test

// Benchmark harness: one testing.B benchmark per paper artifact, mirroring
// the cmd/paperbench experiments (E1-E12), plus substrate and fleet
// benchmarks. Each protocol benchmark reports the simulated radio-round
// count alongside wall-clock cost, so
//
//	go test -bench=. -benchmem
//
// regenerates the quantitative shape of every table and figure.

import (
	"fmt"
	"math/rand"
	"testing"

	"securadio/internal/adversary"
	"securadio/internal/benchwork"
	"securadio/internal/core"
	"securadio/internal/feedback"
	"securadio/internal/game"
	"securadio/internal/gossip"
	"securadio/internal/graph"
	"securadio/internal/groupkey"
	"securadio/internal/msgopt"
	"securadio/internal/radio"
	"securadio/internal/secure"
	"securadio/internal/wcrypto"
)

// BenchmarkFAMEBase regenerates Figure 3 row C=t+1 (E1):
// O(|E| t^2 log n) rounds.
func BenchmarkFAMEBase(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("E=%d/t=1", k), benchwork.FAMEBase(k))
	}
	p := core.Params{N: 40, C: 3, T: 2, Regime: core.RegimeBase}
	b.Run("E=16/t=2", benchwork.FAME(p, 16))
}

// BenchmarkRunnerExchange is BenchmarkFAMEBase's E=16/t=1 cell driven
// through the public context-aware Runner with a nil Observer, pinning the
// Runner plus the nil-observer fast path at approximately zero cost over
// the internal entrypoint.
func BenchmarkRunnerExchange(b *testing.B) { b.Run("E=16/t=1", benchwork.RunnerExchange) }

// BenchmarkFAME2T regenerates Figure 3 row C>=2t (E2): O(|E| log n).
func BenchmarkFAME2T(b *testing.B) {
	p := core.Params{N: 64, C: 4, T: 2, Regime: core.Regime2T}
	for _, k := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("E=%d/t=2", k), benchwork.FAME(p, k))
	}
}

// BenchmarkFAME2T2 regenerates Figure 3 row C>=2t^2 (E3):
// O(|E| log^2 n / t).
func BenchmarkFAME2T2(b *testing.B) {
	p := core.Params{N: 64, C: 8, T: 2, Regime: core.Regime2T2}
	for _, k := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("E=%d/t=2", k), benchwork.FAME(p, k))
	}
}

// BenchmarkTheorem2 regenerates the lower-bound demonstration (E4): the
// strawman exchange against the simulating adversary.
func BenchmarkTheorem2(b *testing.B) {
	const c, t, rounds = 2, 1, 40
	fake := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var accepted string
		procs := []radio.Process{
			func(e radio.Env) {
				for r := 0; r < rounds; r++ {
					e.Transmit(e.Rand().Intn(c), "real")
				}
			},
			func(e radio.Env) {
				seen := map[string]bool{}
				for r := 0; r < rounds; r++ {
					if m, ok := e.Listen(e.Rand().Intn(c)).(string); ok {
						seen[m] = true
					}
				}
				var list []string
				for _, m := range []string{"real", "fake"} {
					if seen[m] {
						list = append(list, m)
					}
				}
				if len(list) > 0 {
					accepted = list[e.Rand().Intn(len(list))]
				}
			},
		}
		adv := adversary.NewMirror(c, int64(i)+999, []radio.Message{"fake"})
		cfg := radio.Config{N: 2, C: c, T: t, Seed: int64(i), Adversary: adv}
		if _, err := radio.Run(cfg, procs); err != nil {
			b.Fatal(err)
		}
		if accepted == "fake" {
			fake++
		}
	}
	b.ReportMetric(float64(fake)/float64(b.N), "fake-accept-rate")
}

// BenchmarkDirect2T regenerates the triangle attack separation (E5).
func BenchmarkDirect2T(b *testing.B) {
	const t = 2
	p := core.Params{C: t + 1, T: t, Mode: core.ModeDirect, Regime: core.RegimeBase}
	p.N = p.MinNodes() + 3*t + 8
	var pairs []graph.Edge
	for _, tr := range adversary.Triples(t) {
		pairs = append(pairs,
			graph.Edge{Src: tr[0], Dst: tr[1]},
			graph.Edge{Src: tr[1], Dst: tr[2]},
			graph.Edge{Src: tr[2], Dst: tr[0]})
	}
	pairs = append(pairs, graph.Edge{Src: 6, Dst: 7}, graph.Edge{Src: 8, Dst: 9})
	values := make(map[graph.Edge]radio.Message, len(pairs))
	for _, e := range pairs {
		values[e] = "m"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewTriangle(t, t+1, adversary.Triples(t))
		out, err := core.Exchange(p, pairs, values, adv, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if out.CoverSize != 2*t {
			b.Fatalf("cover = %d, want 2t", out.CoverSize)
		}
	}
}

// BenchmarkGreedyRemoval regenerates Theorem 4 (E6): O(|E|) moves.
func BenchmarkGreedyRemoval(b *testing.B) {
	for _, k := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("E=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			edges := graph.RandomPairs(32, k, rng.Intn)
			moves := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := graph.FromEdges(32, edges)
				if err != nil {
					b.Fatal(err)
				}
				st := game.NewState(g, 2)
				m, err := game.Play(st, 3, 3, game.StallReferee{})
				if err != nil {
					b.Fatal(err)
				}
				moves += m
			}
			b.ReportMetric(float64(moves)/float64(b.N), "game-moves/op")
		})
	}
}

// BenchmarkFeedback regenerates Lemma 5's cost (E7): one
// communication-feedback invocation.
func BenchmarkFeedback(b *testing.B) {
	const c, t = 3, 2
	n := c*c + 6
	witnesses := make([][]int, c)
	id := 0
	for i := range witnesses {
		ws := make([]int, c)
		for j := range ws {
			ws[j] = id
			id++
		}
		witnesses[i] = ws
	}
	reps := feedback.Reps(n, c, t, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]radio.Process, n)
		for j := 0; j < n; j++ {
			j := j
			procs[j] = func(e radio.Env) {
				_, _ = feedback.Run(e, witnesses, j < c, reps)
			}
		}
		cfg := radio.Config{N: n, C: c, T: t, Seed: int64(i), Adversary: &adversary.GreedyJammer{T: t, C: c}}
		if _, err := radio.Run(cfg, procs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(feedback.Rounds(c, reps)), "radio-rounds/op")
}

// BenchmarkGroupKey regenerates the Section 6 cost (E8):
// Theta(n t^3 log n) rounds.
func BenchmarkGroupKey(b *testing.B) {
	p := groupkey.Params{N: 20, C: 2, T: 1}
	totalRounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewRandomJammer(1, 2, int64(i)+55)
		out, err := groupkey.Establish(p, adv, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if out.Agreed < p.N-p.T {
			b.Fatalf("agreed %d", out.Agreed)
		}
		totalRounds += out.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "radio-rounds/op")
}

// BenchmarkSecureChannel regenerates the Section 7 cost (E9): one
// emulated round of the long-lived service.
func BenchmarkSecureChannel(b *testing.B) {
	const n, c, t, emRounds = 10, 3, 2, 5
	p := secure.Params{N: n, C: c, T: t}
	key := wcrypto.KeyFromBytes("bench", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]radio.Process, n)
		for j := 0; j < n; j++ {
			j := j
			procs[j] = func(e radio.Env) {
				ch, err := secure.Attach(e, p, key)
				if err != nil {
					return
				}
				for em := 0; em < emRounds; em++ {
					var body []byte
					if j == em%n {
						body = []byte("payload")
					}
					ch.Step(body)
				}
			}
		}
		cfg := radio.Config{N: n, C: c, T: t, Seed: int64(i), Adversary: adversary.NewRandomJammer(t, c, int64(i))}
		if _, err := radio.Run(cfg, procs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.SlotRounds()), "radio-rounds/em-round")
}

// BenchmarkGossipBaseline regenerates the Section 2 baseline (E10).
func BenchmarkGossipBaseline(b *testing.B) {
	const n, c, t = 12, 2, 1
	bodies := make([]radio.Message, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf("r%d", i)
	}
	totalCompleted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := gossip.Params{N: n, C: c, T: t, Rounds: 1200 * n, TxProb: float64(c) / float64(n)}
		res, err := gossip.Run(p, adversary.NewRandomJammer(t, c, int64(i)), int64(i), bodies)
		if err != nil {
			b.Fatal(err)
		}
		if res.CompletedAt < 0 {
			b.Fatal("gossip did not complete")
		}
		totalCompleted += res.CompletedAt
	}
	b.ReportMetric(float64(totalCompleted)/float64(b.N), "rounds-to-almost-gossip/op")
}

// BenchmarkMsgOpt regenerates the Section 5.6 optimization (E11).
func BenchmarkMsgOpt(b *testing.B) {
	p := msgopt.Params{Fame: core.Params{N: 20, C: 2, T: 1}}
	var pairs []graph.Edge
	for dst := 1; dst <= 6; dst++ {
		pairs = append(pairs, graph.Edge{Src: 0, Dst: dst})
	}
	pairs = append(pairs, graph.Edge{Src: 7, Dst: 8})
	values := make(map[graph.Edge]string, len(pairs))
	for _, e := range pairs {
		values[e] = fmt.Sprintf("m%v", e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := msgopt.Exchange(p, pairs, values, nil, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if out.MaxValuesPerMessage > 1 {
			b.Fatalf("%d values in one message", out.MaxValuesPerMessage)
		}
	}
}

// BenchmarkByzantineVariant regenerates the Section 8 extension (E12).
func BenchmarkByzantineVariant(b *testing.B) {
	const t = 1
	p := core.Params{C: t + 1, T: t, Mode: core.ModeDirect, Regime: core.RegimeBase}
	p.N = p.MinNodes() + 14
	pairs := graph.Complete(6)
	values := make(map[graph.Edge]radio.Message, len(pairs))
	for _, e := range pairs {
		values[e] = "m"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := &adversary.GreedyJammer{T: t, C: t + 1}
		out, err := core.Exchange(p, pairs, values, adv, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if out.CoverSize > 2*t {
			b.Fatalf("cover %d exceeds 2t", out.CoverSize)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkRadioEngine measures the simulator's raw round throughput: a
// fresh 32-node run per iteration (setup included). The workload lives in
// internal/benchwork, shared with cmd/benchjson so the committed
// BENCH_*.json trajectory measures exactly this benchmark.
func BenchmarkRadioEngine(b *testing.B) { benchwork.RadioEngine(b) }

// BenchmarkRadioEngineSteadyState measures the per-round cost of one
// long-lived run (setup amortized over b.N rounds); allocs/op is the
// round loop's allocation count and must stay zero.
func BenchmarkRadioEngineSteadyState(b *testing.B) { benchwork.RadioSteadyState(b) }

// BenchmarkRadioEngineSteadyStateJam is the steady-state benchmark with
// the adversary clipping path engaged every round.
func BenchmarkRadioEngineSteadyStateJam(b *testing.B) { benchwork.RadioSteadyStateJam(b) }

// BenchmarkRadioEngineSteadyStateJamWide is the jammed steady-state cell
// on a C=512 spectrum, exercising the wide (bitset) clipping path.
func BenchmarkRadioEngineSteadyStateJamWide(b *testing.B) { benchwork.RadioSteadyStateJamWide(b) }

// BenchmarkRadioEngineSteadyStateFaultedWide is the faulted steady-state
// cell on a C=128 spectrum, exercising the multi-word fault masks.
func BenchmarkRadioEngineSteadyStateFaultedWide(b *testing.B) {
	benchwork.RadioSteadyStateFaultedWide(b)
}

// BenchmarkLargeRegime measures the steady-state per-round cost of the
// large regime — N in the thousands, C in the hundreds, sparse traffic —
// alongside narrow-spectrum (C=8) reference cells at the same N. With
// sparse round resolution the wide cells should track the reference
// cells per node-round instead of scaling with C. Published as
// BENCH_9.json and diff-gated in CI through cmd/benchjson.
func BenchmarkLargeRegime(b *testing.B) {
	for _, sz := range benchwork.LargeRegimeSizes {
		b.Run(fmt.Sprintf("N=%d/C=%d", sz.N, sz.C), benchwork.LargeRegime(sz.N, sz.C))
	}
}

// BenchmarkVertexCover measures the exact minimum-vertex-cover search used
// to validate d-disruptability.
func BenchmarkVertexCover(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.FromEdges(24, graph.RandomPairs(24, 40, rng.Intn))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MinVertexCover()
	}
}

// BenchmarkSealOpen measures the authenticated-encryption substrate.
func BenchmarkSealOpen(b *testing.B) {
	k := wcrypto.KeyFromBytes("bench", nil)
	nonce := []byte("nonce-01")
	pt := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := wcrypto.Seal(k, nonce, pt)
		if _, _, err := wcrypto.Open(k, len(nonce), ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetCampaign measures campaign throughput (runs/sec) of the
// fleet executor on a 256-run f-AME campaign across all cores — the
// scaling baseline future PRs measure themselves against.
func BenchmarkFleetCampaign(b *testing.B) { benchwork.FleetCampaign(b) }

// BenchmarkDHKeyExchange measures one Diffie-Hellman key agreement in the
// simulation group.
func BenchmarkDHKeyExchange(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	kpA := wcrypto.GenerateDH(wcrypto.GroupSim512, rng)
	kpB := wcrypto.GenerateDH(wcrypto.GroupSim512, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kpA.SharedKey(kpB.Public, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
