package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"runtime"
	"time"

	securadio "securadio"
	"securadio/internal/fleet"
	"securadio/internal/graph"
)

// workloads is the benchmark's workload table. Each one stresses a
// different layer, and each has a partner that bypasses it (see README).
func workloads() []workload {
	return []workload{
		{name: "exchange",
			why:   "back-to-back Runner.Exchange calls (N=20, C=3, t=1, 8 pairs, jam) at GOMAXPROCS=1 (pump drive): the engine and the f-AME protocol only",
			setup: setupExchange(false)},
		{name: "exchange-barrier",
			why:     "the same exchange ops at GOMAXPROCS=nproc, the library default, where the engine uses its barrier drive mode",
			barrier: true,
			setup:   setupExchange(false)},
		{name: "exchange-udp",
			why:   "the same exchange ops over the loopback UDP transport: isolates transport Commit, and its outputs must equal exchange's",
			setup: setupExchange(true)},
		{name: "campaign",
			why:   "256-run fame-jam-c3 RunCampaign calls: per-run set-up, engine pool reuse, f-AME allocations and the aggregate fold",
			setup: setupCampaign(fameScenario(), 256, 4)},
		{name: "campaign-keyed",
			why:   "32-run secure-group campaigns (N=20, C=3, t=1, hop): group key, secure channel and crypto do the work; the bypass for f-AME-only changes",
			setup: setupCampaign(keyedScenario(), 32, 2)},
		{name: "campaign-wide",
			why:   "8-run f-AME campaigns at N=150 over C=72 channels (hop): engine scaling in N and the wide (>64-channel) path; fleet overhead is negligible",
			setup: setupCampaign(wideScenario(), 8, 2)},
		{name: "sweep-fabric",
			why:   "96-cell f-AME grid, 8 runs a cell, through the fabric Coordinator and a self-exec'd worker process: lease JSON, pipe I/O and dispatch",
			setup: setupFabric},
		{name: "service",
			why:   "4-run traced fame-jam-c3 jobs to a campaign server process over loopback HTTP: a saturating burst, then open-loop arrivals at 50% of its rate",
			setup: setupService},
	}
}

// The workloads' simulation shapes. fameScenario is the repository's
// fame-jam campaign on C=3 instead of C=t+1=2: at C=2 the feedback
// routine's with-high-probability failure (a listener misses all of its
// repetitions) ends about one run in 70,000, which at the benchmark's
// volume would fail a run set every few sets; at C=3 it is under one in a
// million. The keyed and wide shapes are sized so one measuring window
// completes hundreds of simulations.
func fameScenario() securadio.Scenario {
	return securadio.Scenario{
		Name: "fame-jam-c3", Desc: "f-AME vs random jammer on C=3",
		Proto: fleet.ProtoFame, N: 20, C: 3, T: 1, Pairs: 8, Adversary: "jam",
	}
}

func keyedScenario() securadio.Scenario {
	return securadio.Scenario{
		Name: "securegroup-hop-c3", Desc: "group key + secure channel on C=3 vs hopping jammer",
		Proto: fleet.ProtoSecureGroup, N: 20, C: 3, T: 1, EmRounds: 4, Adversary: "hop",
	}
}

func wideScenario() securadio.Scenario {
	return securadio.Scenario{
		Name: "fame-wide-72", Desc: "f-AME at N=150 across a 72-channel spectrum vs hopping jammer",
		Proto: fleet.ProtoFame, N: 150, C: 72, T: 1, Pairs: 8, Span: 32, Adversary: "hop",
	}
}

const (
	exN, exC, exT   = 20, 3, 1
	exPairs, exSpan = 8, 12
	exAdversary     = "jam"

	// Every set-up runs op warmupOp of seed warmupSeed before timing
	// starts: the same op at every --seed, so that setup_s measures the
	// set-up and not how long the seed's first op happens to run.
	warmupSeed, warmupOp = 0, -1
	// digestOps is how many leading outputs the digest covers: a fixed
	// prefix, so runs completing different op counts still compare.
	digestOps = 100
	// minLedgerRuns is the least a traced run reassembles.
	minLedgerRuns = 2
)

// seedFor derives the i-th input seed from the benchmark seed (the
// splitmix64 stream campaigns use for their runs).
func seedFor(seed int64, i int) int64 { return securadio.Campaign{Seed: seed}.SeedFor(i) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// zero sets metrics of layers a workload does not have.
func zero(m metricSet, names ...string) {
	for _, n := range names {
		m.set(n, 0)
	}
}

var (
	fabricMetrics  = []string{"fabric.overhead_frac", "fabric.wire_kb_per_cell", "fabric.reissues"}
	serviceMetrics = []string{"service.queue_wait_frac", "service.exec_overhead_frac", "service.submit_rtt_frac", "service.stalled_exec_ratio", "service.gen_late_frac"}
)

// exchangeOp is one exchange op's inputs: a network seed, 8 distinct
// ordered pairs among the first 12 nodes, and their payloads.
type exchangeOp struct {
	index    int
	seed     int64
	pairs    []securadio.Pair
	payloads map[securadio.Pair]securadio.Message
}

func makeExchangeOp(seed int64, i int) exchangeOp {
	s := seedFor(seed, i)
	pairs := graph.RandomPairs(exSpan, exPairs, rand.New(rand.NewSource(s)).Intn)
	payloads := make(map[securadio.Pair]securadio.Message, len(pairs))
	for _, e := range pairs {
		payloads[e] = fmt.Sprintf("op%d/%v", i, e)
	}
	return exchangeOp{index: i, seed: s, pairs: pairs, payloads: payloads}
}

func runExchange(ctx context.Context, op exchangeOp, transport securadio.Transport) (*securadio.ExchangeReport, error) {
	opts := []securadio.RunnerOption{securadio.WithAdversary(exAdversary)}
	if transport != nil {
		opts = append(opts, securadio.WithTransport(transport))
	}
	r, err := securadio.NewRunner(securadio.Network{N: exN, C: exC, T: exT, Seed: op.seed}, opts...)
	if err != nil {
		return nil, err
	}
	return r.Exchange(ctx, op.pairs, op.payloads)
}

// checkExchange holds a report to Definition 1: every pair either
// delivered its own payload or failed, never both; the failed set has a
// vertex cover of at most t; and a lossless medium dropped nothing.
func checkExchange(op exchangeOp, rep *securadio.ExchangeReport) error {
	if rep.DisruptionCover > exT {
		return fmt.Errorf("disruption cover %d exceeds t=%d", rep.DisruptionCover, exT)
	}
	if rep.FaultDrops != 0 {
		return fmt.Errorf("%d drops on a lossless medium", rep.FaultDrops)
	}
	if len(rep.Delivered)+len(rep.Failed) != len(op.pairs) {
		return fmt.Errorf("%d delivered + %d failed of %d pairs", len(rep.Delivered), len(rep.Failed), len(op.pairs))
	}
	failed := make(map[securadio.Pair]bool, len(rep.Failed))
	for _, e := range rep.Failed {
		failed[e] = true
	}
	for _, e := range op.pairs {
		got, ok := rep.Delivered[e]
		switch {
		case ok && failed[e]:
			return fmt.Errorf("pair %v both delivered and failed", e)
		case !ok && !failed[e]:
			return fmt.Errorf("pair %v neither delivered nor failed", e)
		case ok && got != op.payloads[e]:
			return fmt.Errorf("pair %v delivered %v, sent %v", e, got, op.payloads[e])
		}
	}
	return nil
}

// exchangeInstance runs exchange ops over the native medium (transport
// nil) or a pluggable transport.
type exchangeInstance struct {
	cfg       *config
	transport securadio.Transport
}

func setupExchange(udp bool) func(context.Context, *config) (instance, error) {
	return func(ctx context.Context, cfg *config) (instance, error) {
		x := &exchangeInstance{cfg: cfg}
		if udp {
			t, err := securadio.NewUDPTransport(securadio.UDPConfig{})
			if err != nil {
				return nil, err
			}
			x.transport = t
		}
		op := makeExchangeOp(warmupSeed, warmupOp)
		rep, err := runExchange(ctx, op, x.transport)
		if err != nil {
			return nil, err
		}
		if err := checkExchange(op, rep); err != nil {
			return nil, err
		}
		return x, nil
	}
}

func (x *exchangeInstance) close() {}

func (x *exchangeInstance) measure(ctx context.Context) (*measurement, error) {
	m := &measurement{}
	h := sha256.New()
	var outputs []string // the leading outputs, re-derived below
	start := time.Now()
	for i := 0; time.Since(start) < x.cfg.window; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op := makeExchangeOp(x.cfg.seed, i)
		t0 := time.Now()
		rep, err := runExchange(ctx, op, x.transport)
		lat := time.Since(t0)
		m.ops++
		if err != nil {
			m.failed++
			m.problem("op %d: %v", i, err)
			continue
		}
		m.runs++
		m.latencies = append(m.latencies, ms(lat))
		if err := checkExchange(op, rep); err != nil {
			m.failed++
			m.problem("op %d: %v", i, err)
		}
		if i < digestOps {
			out := formatReport(rep)
			io.WriteString(h, out+"\n")
			outputs = append(outputs, out)
		}
	}
	m.wall = time.Since(start)
	m.digest = hex.EncodeToString(h.Sum(nil))[:16]

	// Re-derive the leading outputs: over the native medium they must
	// repeat exactly, and a transport's must equal the native medium's.
	k := min(len(outputs), 3)
	if x.transport != nil {
		k = min(len(outputs), 20)
	}
	for i := 0; i < k; i++ {
		rep, err := runExchange(ctx, makeExchangeOp(x.cfg.seed, i), nil)
		if err != nil {
			m.problem("re-run of op %d: %v", i, err)
		} else if got := formatReport(rep); got != outputs[i] {
			m.problem("op %d: native re-run gives\n  %s\nmeasured op gave\n  %s", i, got, outputs[i])
		}
	}
	return m, nil
}

func (x *exchangeInstance) layers(ctx context.Context, m metricSet) (*tally, error) {
	lg, err := runLedger(ctx, func(i int) simCase {
		return exchangeCase(makeExchangeOp(x.cfg.seed, i), x.transport)
	}, time.Now().Add(x.cfg.window), minLedgerRuns)
	if err != nil {
		return nil, err
	}
	lg.metrics(m)
	zero(m, "fleet.overhead_frac")
	zero(m, fabricMetrics...)
	zero(m, serviceMetrics...)
	return &tally{ops: lg.runs}, nil
}

// campaignInstance runs back-to-back campaigns of one scenario.
type campaignInstance struct {
	cfg  *config
	sc   securadio.Scenario
	runs int
}

func setupCampaign(sc securadio.Scenario, runs, tinyRuns int) func(context.Context, *config) (instance, error) {
	return func(ctx context.Context, cfg *config) (instance, error) {
		c := &campaignInstance{cfg: cfg, sc: sc, runs: runs}
		if cfg.tiny {
			c.runs = tinyRuns
		}
		warm := securadio.Campaign{Scenario: sc, Runs: 2, Seed: seedFor(warmupSeed, warmupOp), Workers: 1}
		agg, err := securadio.RunCampaign(ctx, warm)
		if err != nil {
			return nil, err
		}
		if err := checkAggregate(agg, warm); err != nil {
			return nil, err
		}
		return c, nil
	}
}

func (c *campaignInstance) close() {}

func (c *campaignInstance) campaign(i int) securadio.Campaign {
	return securadio.Campaign{Scenario: c.sc, Runs: c.runs, Seed: seedFor(c.cfg.seed, i), Workers: 1}
}

// checkAggregate holds a campaign aggregate to the protocol guarantees:
// every run completed without error, every disruption cover (keyless-node
// count, for the key protocols) is within t, and no run delivered more
// than it attempted.
func checkAggregate(agg *securadio.CampaignResult, camp securadio.Campaign) error {
	if agg.Runs != camp.Runs || agg.Failures != 0 {
		return fmt.Errorf("campaign %s seed %d: %d of %d runs, %d failed: %v",
			camp.Scenario.Name, camp.Seed, agg.Runs, camp.Runs, agg.Failures, agg.Errors)
	}
	for cover, n := range agg.CoverHist {
		if cover > camp.Scenario.T && n > 0 {
			return fmt.Errorf("campaign %s seed %d: %d runs with cover %d > t=%d", camp.Scenario.Name, camp.Seed, n, cover, camp.Scenario.T)
		}
	}
	if agg.Delivered > agg.Attempted {
		return fmt.Errorf("campaign %s seed %d: delivered %d of %d attempted", camp.Scenario.Name, camp.Seed, agg.Delivered, agg.Attempted)
	}
	return nil
}

// sampledRun is a run kept for re-execution after the window.
type sampledRun struct {
	sc securadio.Scenario
	r  fleet.RunResult
}

// recheck re-executes sampled runs one by one through Scenario.Execute: a
// run's outcome must not depend on the pool, worker or process that ran
// it.
func recheck(ctx context.Context, t *tally, sample []sampledRun) {
	for _, s := range sample {
		if got, want := formatRun(s.sc.Execute(ctx, s.r.Run, s.r.Seed)), formatRun(s.r); got != want {
			t.problem("%s: re-executed run gives\n  %s\ncampaign gave\n  %s", s.sc.Name, got, want)
		}
	}
}

func (c *campaignInstance) measure(ctx context.Context) (*measurement, error) {
	m := &measurement{}
	h := sha256.New()
	var sample []sampledRun
	start := time.Now()
	for i := 0; time.Since(start) < c.cfg.window; i++ {
		camp := c.campaign(i)
		hooks := &securadio.RunHooks{OnResult: func(_ string, r fleet.RunResult, _ *securadio.CampaignResult) {
			m.latencies = append(m.latencies, ms(r.Elapsed))
			if len(sample) < 4 {
				sample = append(sample, sampledRun{c.sc, r})
			}
		}}
		agg, err := securadio.RunCampaignWithHooks(ctx, camp, hooks)
		m.ops += camp.Runs
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			m.failed += camp.Runs
			m.problem("campaign %d: %v", i, err)
			continue
		}
		m.runs += agg.Runs - agg.Failures
		m.failed += camp.Runs - agg.Runs + agg.Failures
		if err := checkAggregate(agg, camp); err != nil {
			m.problem("%v", err)
		}
		if i < 4 {
			writeJSON(h, agg)
		}
	}
	m.wall = time.Since(start)
	m.digest = hex.EncodeToString(h.Sum(nil))[:16]
	recheck(ctx, &m.tally, sample)
	return m, nil
}

func writeJSON(h hash.Hash, agg *securadio.CampaignResult) {
	if err := agg.WriteJSON(h); err != nil {
		panic(err) // a hash never fails a write, and aggregates always encode
	}
}

func (c *campaignInstance) layers(ctx context.Context, m metricSet) (*tally, error) {
	start := time.Now()
	seed := c.campaign(0).Seed
	over, err := fleetOverhead(ctx, c.sc, seed, c.cfg.window/20)
	if err != nil {
		return nil, err
	}
	m.set("fleet.overhead_frac", over)
	zero(m, fabricMetrics...)
	zero(m, serviceMetrics...)
	lg, err := runLedger(ctx, func(i int) simCase {
		return scenarioCase(c.sc, i, securadio.Campaign{Seed: seed}.SeedFor(i))
	}, start.Add(c.cfg.window), minLedgerRuns)
	if err != nil {
		return nil, err
	}
	lg.metrics(m)
	return &tally{ops: lg.runs}, nil
}

// fleetOverhead is what RunCampaign adds on top of its simulations: the
// wall time of a one-worker campaign over that of the same runs executed
// one by one through Scenario.Execute, minus one, at GOMAXPROCS=1. The
// run count is sized from a timed first run so each side takes about
// budget; the two sides alternate twice.
func fleetOverhead(ctx context.Context, sc securadio.Scenario, seed int64, budget time.Duration) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	camp := securadio.Campaign{Scenario: sc, Seed: seed, Workers: 1}
	t0 := clock()
	if r := sc.Execute(ctx, 0, camp.SeedFor(0)); !r.OK() {
		return 0, fmt.Errorf("%s run 0: %s", sc.Name, r.Err)
	}
	camp.Runs = max(2, int(budget.Nanoseconds()/max(clock()-t0, 1)))
	runs := camp.Runs
	var campNS, execNS int64
	for rep := 0; rep < 2; rep++ {
		t0 := clock()
		agg, err := securadio.RunCampaign(ctx, camp)
		campNS += clock() - t0
		if err != nil {
			return 0, err
		}
		if err := checkAggregate(agg, camp); err != nil {
			return 0, err
		}
		t0 = clock()
		for i := 0; i < runs; i++ {
			if r := sc.Execute(ctx, i, camp.SeedFor(i)); !r.OK() {
				return 0, fmt.Errorf("%s run %d: %s", sc.Name, i, r.Err)
			}
		}
		execNS += clock() - t0
	}
	return float64(campNS)/float64(execNS) - 1, nil
}
