package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	securadio "securadio"
	"securadio/internal/core"
	"securadio/internal/fleet"
	"securadio/internal/graph"
	"securadio/internal/groupkey"
	"securadio/internal/radio"
	"securadio/internal/secure"
)

// The traced twins of the simulations the workloads run. Each one
// reassembles a run from the protocol's node programs exactly as the
// public entry point assembles it (core.ExchangeContext for f-AME, the
// fleet's secure-group composition for the keyed stack), so the ledger
// can put its wrappers at the layer boundaries; the ledger then checks
// that both produce the same outcome.

// fameOutcome is a reassembled f-AME run after core.ExchangeContext's
// cross-node checks.
type fameOutcome struct {
	results    []core.Result
	disruption *graph.DSet
	cover      int
	gameRounds int
	radio      radio.Result
}

// tracedFame runs f-AME on wrapped node programs and applies the outcome
// assembly and consistency checks of core.ExchangeContext (fault-free
// path: no workload injects faults).
func tracedFame(ctx context.Context, rt *runTrace, p core.Params, pairs []graph.Edge, values map[graph.Edge]radio.Message, adv radio.Adversary, seed int64) (*fameOutcome, error) {
	results := make([]core.Result, p.N)
	procs := make([]radio.Process, p.N)
	for i := range procs {
		mine := make(map[int]radio.Message)
		for _, e := range pairs {
			if e.Src == i {
				mine[e.Dst] = values[e]
			}
		}
		procs[i] = core.Proc(p, pairs, mine, &results[i])
	}
	cfg := radio.Config{N: p.N, C: p.C, T: p.T, Seed: seed, Adversary: rt.adversary(adv), Transport: rt.transport(p.Transport)}
	res, err := radio.RunContext(ctx, cfg, rt.nodes(procs, layerCore, layerCore))
	if err != nil {
		return nil, fmt.Errorf("core: radio run: %w", err)
	}
	for i := range results {
		if results[i].Err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, results[i].Err)
		}
	}
	out := &fameOutcome{results: results, radio: res, gameRounds: results[0].GameRounds}
	failed := results[0].Failed
	for i := 1; i < len(results); i++ {
		if results[i].GameRounds != out.gameRounds || !slices.Equal(results[i].Failed, failed) {
			return nil, fmt.Errorf("node %d diverges from node 0", i)
		}
	}
	if out.disruption, err = graph.FromEdges(p.N, failed); err != nil {
		return nil, err
	}
	out.cover = out.disruption.MinVertexCover()
	for _, e := range pairs {
		_, delivered := results[e.Dst].Delivered[e]
		if results[e.Src].SenderOK[e] != delivered || delivered == out.disruption.Has(e) {
			return nil, fmt.Errorf("pair %v: sender, receiver and disruption graph disagree", e)
		}
	}
	return out, nil
}

// exchangeCase is the ledger case of one Runner.Exchange op: untraced
// through the public Runner, traced through the reassembled run with the
// Runner's parameters (default options, adversary built from its name
// and seeded Network.Seed+1, as the Runner does).
func exchangeCase(op exchangeOp, transport securadio.Transport) simCase {
	return simCase{
		plain: func(ctx context.Context) (string, error) {
			rep, err := runExchange(ctx, op, transport)
			if err != nil {
				return "", err
			}
			return formatReport(rep), nil
		},
		traced: func(ctx context.Context, rt *runTrace) (string, runFacts, error) {
			adv, err := fleet.NewAdversary(exAdversary, exT, exC, op.seed+1)
			if err != nil {
				return "", runFacts{}, err
			}
			p := core.Params{N: exN, C: exC, T: exT, Mode: core.ModeSurrogate, Transport: transport}
			out, err := tracedFame(ctx, rt, p, op.pairs, op.payloads, adv, op.seed)
			if err != nil {
				return "", runFacts{}, err
			}
			rep := &securadio.ExchangeReport{
				Delivered:       make(map[securadio.Pair]securadio.Message),
				Failed:          out.disruption.Edges(),
				DisruptionCover: out.cover,
				Rounds:          out.radio.Rounds,
				GameRounds:      out.gameRounds,
				FaultDrops:      out.radio.TransportDrops,
			}
			for _, e := range op.pairs {
				if !out.disruption.Has(e) {
					rep.Delivered[e] = out.results[e.Dst].Delivered[e]
				}
			}
			return formatReport(rep), runFacts{
				res: out.radio, gameMoves: out.gameRounds,
				attempted: len(op.pairs), delivered: len(rep.Delivered),
			}, nil
		},
	}
}

// scenarioCase is the ledger case of one campaign run: untraced through
// Scenario.Execute (the function every campaign worker calls), traced
// through the reassembled run.
func scenarioCase(sc securadio.Scenario, run int, seed int64) simCase {
	return simCase{
		plain: func(ctx context.Context) (string, error) {
			return formatRun(sc.Execute(ctx, run, seed)), nil
		},
		traced: func(ctx context.Context, rt *runTrace) (string, runFacts, error) {
			adv, err := fleet.NewAdversary(sc.Adversary, sc.T, sc.C, seed+1)
			if err != nil {
				return "", runFacts{}, err
			}
			if sc.Proto == fleet.ProtoSecureGroup {
				return tracedSecureGroup(ctx, rt, sc, adv, run, seed)
			}
			return tracedScenarioFame(ctx, rt, sc, adv, run, seed)
		},
	}
}

// tracedScenarioFame mirrors the fleet's f-AME run: pairs drawn from the
// run seed over the scenario's pair span, payloads "m/<pair>".
func tracedScenarioFame(ctx context.Context, rt *runTrace, sc securadio.Scenario, adv radio.Adversary, run int, seed int64) (string, runFacts, error) {
	if sc.Proto != fleet.ProtoFame || sc.Churn != 0 || sc.Loss != 0 || sc.Faults != nil {
		return "", runFacts{}, fmt.Errorf("scenario %q: the ledger reassembles fault-free %s runs only", sc.Name, fleet.ProtoFame)
	}
	span := sc.Span
	if span == 0 {
		span = fleet.PairSpan(sc.N)
	}
	pairs := graph.RandomPairs(span, sc.Pairs, rand.New(rand.NewSource(seed)).Intn)
	values := make(map[graph.Edge]radio.Message, len(pairs))
	for _, e := range pairs {
		values[e] = fmt.Sprintf("m/%v", e)
	}
	p := core.Params{N: sc.N, C: sc.C, T: sc.T, Mode: core.ModeSurrogate, Regime: sc.Regime, Cleanup: sc.Cleanup, Transport: sc.Transport}
	out, err := tracedFame(ctx, rt, p, pairs, values, adv, seed)
	if err != nil {
		return "", runFacts{}, err
	}
	res := fleet.RunResult{Run: run, Seed: seed, Attempted: len(pairs)}
	res.Rounds = out.radio.Rounds
	res.Delivered = len(pairs) - out.disruption.Len()
	res.Cover = out.cover
	res.FaultDrops = out.radio.TransportDrops
	return formatRun(res), runFacts{
		res: out.radio, gameMoves: out.gameRounds,
		attempted: res.Attempted, delivered: res.Delivered,
	}, nil
}

// tracedSecureGroup mirrors the fleet's secure-group run: group-key set-up
// followed by EmRounds emulated rounds of the secure channel, one rotating
// broadcaster per emulated round; nodes without the key idle in lock-step.
func tracedSecureGroup(ctx context.Context, rt *runTrace, sc securadio.Scenario, adv radio.Adversary, run int, seed int64) (string, runFacts, error) {
	if sc.Churn != 0 || sc.Loss != 0 || sc.Faults != nil {
		return "", runFacts{}, fmt.Errorf("scenario %q: the ledger reassembles fault-free runs only", sc.Name)
	}
	gk := groupkey.Params{N: sc.N, C: sc.C, T: sc.T, Regime: sc.Regime}
	ch := secure.Params{N: sc.N, C: sc.C, T: sc.T}
	em := sc.EmRounds
	if em <= 0 {
		em = 4
	}
	results := make([]groupkey.NodeResult, sc.N)
	received := make([]int, sc.N)
	procs := make([]radio.Process, sc.N)
	for i := range procs {
		procs[i] = func(env radio.Env) {
			groupkey.RunNode(env, gk, &results[i])
			markLayer(env, layerSecure)
			slot := ch.SlotRounds()
			var sess *secure.Channel
			if k := results[i].GroupKey; k != nil {
				if attached, err := secure.Attach(env, ch, *k); err == nil {
					sess = attached
				}
			}
			for e := 0; e < em; e++ {
				if sess == nil {
					env.SleepFor(slot)
					continue
				}
				var body []byte
				if i == e%sc.N {
					body = []byte(fmt.Sprintf("fleet/%d", e))
				}
				received[i] += len(sess.Step(body))
			}
		}
	}
	cfg := radio.Config{N: sc.N, C: sc.C, T: sc.T, Seed: seed, Adversary: rt.adversary(adv), Transport: rt.transport(sc.Transport)}
	rr, err := radio.RunContext(ctx, cfg, rt.nodes(procs, layerGroupKey, layerCore))
	if err != nil {
		return "", runFacts{}, err
	}
	res := fleet.RunResult{Run: run, Seed: seed}
	holders := groupkey.KeyHolders(results)
	attempted := 0
	for e := 0; e < em; e++ {
		if results[e%sc.N].GroupKey != nil {
			attempted += holders - 1
		}
	}
	if holders < sc.N-sc.T {
		res.Err = fmt.Sprintf("fleet: secure-group setup missed quorum: %d of %d nodes hold the key, need n-t = %d",
			holders, sc.N, sc.N-sc.T)
		return formatRun(res), runFacts{}, nil
	}
	res.Rounds = rr.Rounds
	res.Attempted = attempted
	for _, n := range received {
		res.Delivered += n
	}
	res.Cover = sc.N - holders
	res.FaultDrops = rr.TransportDrops
	return formatRun(res), runFacts{
		res: rr, attempted: res.Attempted, delivered: res.Delivered,
		keyed: true, holders: holders, n: sc.N,
	}, nil
}

// formatRun is a campaign run's canonical outcome: every field but the
// wall-clock Elapsed.
func formatRun(r fleet.RunResult) string {
	return fmt.Sprintf("run=%d seed=%d rounds=%d attempted=%d delivered=%d cover=%d drops=%d lost=%d degraded=%d err=%q panicked=%t",
		r.Run, r.Seed, r.Rounds, r.Attempted, r.Delivered, r.Cover, r.FaultDrops, r.NodesLost, r.DegradedRounds, r.Err, r.Panicked)
}

// formatReport is an exchange report's canonical outcome.
func formatReport(rep *securadio.ExchangeReport) string {
	var b strings.Builder
	delivered := make([]securadio.Pair, 0, len(rep.Delivered))
	for e := range rep.Delivered {
		delivered = append(delivered, e)
	}
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].Less(delivered[j]) })
	b.WriteString("delivered=")
	for _, e := range delivered {
		fmt.Fprintf(&b, "%v:%v,", e, rep.Delivered[e])
	}
	fmt.Fprintf(&b, " failed=%v cover=%d rounds=%d game=%d drops=%d lost=%d degraded=%d",
		rep.Failed, rep.DisruptionCover, rep.Rounds, rep.GameRounds, rep.FaultDrops, rep.NodesLost, rep.DegradedRounds)
	return b.String()
}
