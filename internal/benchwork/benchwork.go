// Package benchwork holds the benchmark workloads shared by the root
// package's benchmarks (bench_test.go) and cmd/benchjson, so the
// committed BENCH_*.json trajectory always measures exactly the workload
// CI smoke-runs.
package benchwork

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"securadio"
	"securadio/internal/adversary"
	"securadio/internal/core"
	"securadio/internal/fault"
	"securadio/internal/graph"
	"securadio/internal/radio"
)

// RadioEngine is the full-run throughput workload: a fresh 32-node run of
// 256 mixed transmit/listen rounds per iteration, setup included.
func RadioEngine(b *testing.B) {
	const n, rounds = 32, 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := steadyStateProcs(n, rounds)
		cfg := radio.Config{N: n, C: 3, T: 1, Seed: int64(i)}
		if _, err := radio.Run(cfg, procs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*rounds), "node-rounds/op")
}

// RadioSteadyState measures the per-round cost of one long-lived run:
// a single engine instance whose nodes each take b.N actions, so setup
// (scheduling state, RNGs, engine scratch) amortizes to zero and
// allocs/op exposes exactly what the steady-state round loop allocates.
func RadioSteadyState(b *testing.B) {
	const n = 32
	b.ReportAllocs()
	cfg := radio.Config{N: n, C: 3, T: 1, Seed: 42, MaxRounds: b.N + 1}
	if _, err := radio.Run(cfg, steadyStateProcs(n, b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "node-rounds/op")
}

// RadioSteadyStateJam is RadioSteadyState with the adversary clipping
// path engaged: the jammer reuses a preallocated plan, so every
// allocation the benchmark observes is the engine's own.
func RadioSteadyStateJam(b *testing.B) {
	const n, c, t = 32, 8, 2
	jam := &reusedPlanJammer{}
	for ch := 0; ch < t; ch++ {
		jam.plan = append(jam.plan, radio.Transmission{Channel: ch, Msg: "jam"})
	}
	b.ReportAllocs()
	cfg := radio.Config{N: n, C: c, T: t, Seed: 42, Adversary: jam, MaxRounds: b.N + 1}
	if _, err := radio.Run(cfg, steadyStateProcs(n, b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "node-rounds/op")
}

// RadioSteadyStateFaulted is RadioSteadyState with an active churn+loss
// fault plan: the Gilbert–Elliott fade chains advance and drop decisions
// are drawn every round, so allocs/op pins the faulted round loop — like
// the disabled path, it must stay at zero (the plan's schedules and masks
// are all preallocated at compile time).
func RadioSteadyStateFaulted(b *testing.B) {
	const n, c = 32, 3
	plan, err := fault.Compile(fault.Profile{
		CrashFrac: 0.125, RecoverFrac: 0.0625, LateFrac: 0.0625,
		Loss: &fault.LossModel{PGoodBad: 0.1, PBadGood: 0.3, DropGood: 0.01, DropBad: 0.7},
	}, n, c, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	cfg := radio.Config{N: n, C: c, T: 1, Seed: 42, MaxRounds: b.N + 1, Faults: plan}
	if _, err := radio.Run(cfg, steadyStateProcs(n, b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "node-rounds/op")
}

// RadioSteadyStateJamWide is RadioSteadyStateJam on a C=512 spectrum:
// the adversary clip's bitset scratch spans eight words instead of one,
// and the engine's touched-channel bookkeeping runs with random traffic
// scattered across hundreds of mostly-idle channels.
// Like every steady-state cell it must hold 0 allocs/op.
func RadioSteadyStateJamWide(b *testing.B) {
	const n, c, t = 32, 512, 8
	jam := &reusedPlanJammer{}
	for ch := 0; ch < t; ch++ {
		jam.plan = append(jam.plan, radio.Transmission{Channel: ch * 61, Msg: "jam"})
	}
	b.ReportAllocs()
	cfg := radio.Config{N: n, C: c, T: t, Seed: 42, Adversary: jam, MaxRounds: b.N + 1}
	if _, err := radio.Run(cfg, steadyStateProcs(n, b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "node-rounds/op")
}

// RadioSteadyStateFaultedWide is RadioSteadyStateFaulted on a C=128
// spectrum: the churn, fade and drop masks are multi-word bitsets, so
// this cell pins the pooled mask scratch at 0 allocs/op beyond 64
// channels.
func RadioSteadyStateFaultedWide(b *testing.B) {
	const n, c = 32, 128
	plan, err := fault.Compile(fault.Profile{
		CrashFrac: 0.125, RecoverFrac: 0.0625, LateFrac: 0.0625,
		Loss: &fault.LossModel{PGoodBad: 0.1, PBadGood: 0.3, DropGood: 0.01, DropBad: 0.7},
	}, n, c, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	cfg := radio.Config{N: n, C: c, T: 1, Seed: 42, MaxRounds: b.N + 1, Faults: plan}
	if _, err := radio.Run(cfg, steadyStateProcs(n, b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "node-rounds/op")
}

// LargeRegimeSizes is the (N, C) grid BenchmarkLargeRegime and the
// committed BENCH_9.json cover: N in the thousands crossed with C in the
// hundreds, plus narrow-spectrum reference cells (C=8) at the same N so
// the per-node-round cost of a wide silent spectrum can be compared
// directly against the equivalent small-C run.
var LargeRegimeSizes = []struct{ N, C int }{
	{1024, 8}, {1024, 128}, {1024, 512},
	{4096, 8}, {4096, 128}, {4096, 512},
}

// LargeRegime returns the steady-state workload for one large-regime
// cell: sparse traffic (a handful of beacon transmitters, everyone else
// listening) across a spectrum that is mostly silent — the shape the
// paper's many-node low-power setting produces, where per-round cost
// must track active transmissions, not C. Deterministic schedules (no
// per-node RNG draws) keep the measurement pure engine cost.
func LargeRegime(n, c int) func(b *testing.B) {
	return func(b *testing.B) {
		const beacons = 8
		procs := make([]radio.Process, n)
		rounds := b.N
		for j := 0; j < n; j++ {
			j := j
			procs[j] = func(e radio.Env) {
				for r := 0; r < rounds; r++ {
					if j < beacons {
						e.Transmit((j*37+r)%c, j)
					} else {
						e.Listen((j + r) % c)
					}
				}
			}
		}
		b.ReportAllocs()
		cfg := radio.Config{N: n, C: c, T: 1, Seed: 42, MaxRounds: b.N + 1}
		if _, err := radio.Run(cfg, procs); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "node-rounds/op")
	}
}

// fameBase is the network of Figure 3's C=t+1 row that FAMEBase and
// RunnerExchange share.
var fameBase = core.Params{N: 22, C: 2, T: 1, Regime: core.RegimeBase}

// FAMEBase returns FAME's workload on the base-regime network (N=22, C=2,
// t=1).
func FAMEBase(numPairs int) func(b *testing.B) { return FAME(fameBase, numPairs) }

// FAME returns the f-AME workload for p: one fresh exchange of numPairs
// random pairs per iteration against the omniscient greedy jammer,
// reporting the simulated radio rounds per run.
func FAME(p core.Params, numPairs int) func(b *testing.B) {
	return func(b *testing.B) {
		pairs, values := famePairs(numPairs)
		totalRounds := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			adv := &adversary.GreedyJammer{T: p.T, C: p.C}
			out, err := core.Exchange(p, pairs, values, adv, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if out.CoverSize > p.T {
				b.Fatalf("cover %d exceeds t", out.CoverSize)
			}
			totalRounds += out.Rounds
		}
		b.ReportMetric(float64(totalRounds)/float64(b.N), "radio-rounds/op")
	}
}

// RunnerExchange is FAMEBase's 16-pair cell driven through the public
// context-aware Runner with a nil Observer, pinning the Runner plus the
// nil-observer fast path at approximately zero cost over the internal
// entrypoint.
func RunnerExchange(b *testing.B) {
	pairs, payloads := famePairs(16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := securadio.Network{N: fameBase.N, C: fameBase.C, T: fameBase.T, Seed: int64(i)}
		r, err := securadio.NewRunner(net,
			securadio.WithRegime(fameBase.Regime),
			securadio.WithAdversary(securadio.NewWorstCaseJammer(net)))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := r.Exchange(ctx, pairs, payloads)
		if err != nil {
			b.Fatal(err)
		}
		if rep.DisruptionCover > net.T {
			b.Fatalf("cover %d exceeds t", rep.DisruptionCover)
		}
	}
}

// FleetCampaign measures campaign throughput (runs/sec) of the fleet
// executor on a 256-run f-AME campaign across all cores.
func FleetCampaign(b *testing.B) {
	sc, ok := securadio.LookupScenario("fame-jam")
	if !ok {
		b.Fatal("fame-jam scenario missing")
	}
	const runs = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := securadio.RunCampaign(context.Background(), securadio.Campaign{
			Scenario: sc, Runs: runs, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if agg.Runs != runs || agg.Failures != 0 {
			b.Fatalf("runs=%d failures=%d", agg.Runs, agg.Failures)
		}
	}
	b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// famePairs builds the f-AME workloads' reproducible pair set: numPairs
// random pairs over the first 12 nodes, each with its own payload.
func famePairs(numPairs int) ([]graph.Edge, map[graph.Edge]radio.Message) {
	rng := rand.New(rand.NewSource(7))
	pairs := graph.RandomPairs(12, numPairs, rng.Intn)
	values := make(map[graph.Edge]radio.Message, len(pairs))
	for _, e := range pairs {
		values[e] = fmt.Sprintf("m%v", e)
	}
	return pairs, values
}

// steadyStateProcs builds the shared workload: n nodes, each taking
// exactly rounds actions (even IDs transmit, odd IDs listen, channels
// drawn from the node's private RNG).
func steadyStateProcs(n, rounds int) []radio.Process {
	procs := make([]radio.Process, n)
	for j := 0; j < n; j++ {
		j := j
		procs[j] = func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				if j%2 == 0 {
					e.Transmit(e.Rand().Intn(e.C()), j)
				} else {
					e.Listen(e.Rand().Intn(e.C()))
				}
			}
		}
	}
	return procs
}

// reusedPlanJammer jams fixed channels every round from a preallocated
// plan; it never allocates.
type reusedPlanJammer struct{ plan []radio.Transmission }

func (j *reusedPlanJammer) Plan(int) []radio.Transmission  { return j.plan }
func (j *reusedPlanJammer) Observe(radio.RoundObservation) {}
