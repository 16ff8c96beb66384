// Package fleet is the scenario-campaign engine: it fans hundreds to
// thousands of independent radio-network simulations across all cores and
// aggregates their outcomes into streaming, JSON-serializable statistics.
//
// The package has three moving parts:
//
//   - a scenario registry (this file): named, parameterized combinations of
//     protocol layer (f-AME, compact, direct, group key, secure group),
//     network shape (n, C, t, regime, pair count) and adversary strategy;
//   - a campaign executor (runner.go): a worker pool with deterministic
//     per-run seeds, context cancellation and panic isolation;
//   - a streaming aggregator (aggregate.go): delivery rates, round-count
//     percentiles and disruption-cover distributions, emitted as JSON, CSV
//     or an aligned table.
//
// Every aggregate is deterministic for a fixed campaign seed regardless of
// worker count or completion order, which makes campaign JSON suitable for
// cross-PR trajectory tracking.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"securadio/internal/adversary"
	"securadio/internal/core"
	"securadio/internal/fault"
	"securadio/internal/graph"
	"securadio/internal/groupkey"
	"securadio/internal/msgopt"
	"securadio/internal/radio"
	"securadio/internal/secure"
)

// Protocol names accepted by Scenario.Proto.
const (
	ProtoFame        = "fame"         // Runner.Exchange (surrogate f-AME)
	ProtoFameCompact = "fame-compact" // Section 5.6 message-size optimization
	ProtoFameDirect  = "fame-direct"  // direct mode (2t-disruptable baseline)
	ProtoGroupKey    = "groupkey"     // Section 6 group-key establishment
	ProtoSecureGroup = "secure-group" // Section 7 long-lived channel on top of Section 6
)

// Scenario is one named, fully parameterized simulation configuration. A
// campaign executes a Scenario across a grid of derived seeds.
type Scenario struct {
	// Name identifies the scenario in the registry and in reports.
	Name string

	// Desc is a one-line description for listings.
	Desc string

	// Proto selects the protocol layer (one of the Proto* constants).
	Proto string

	// N, C, T are the network shape: nodes, channels, adversary budget.
	N, C, T int

	// Pairs is the size of the random AME pair set (f-AME protocols).
	Pairs int

	// Span bounds the node range the random AME pairs are drawn from:
	// pair endpoints come from [0, Span). Zero selects the legacy default
	// PairSpan(N) — min(N, 12) — which keeps the built-in scenarios and
	// historical campaign JSON unchanged; sweeps over the N axis set Span
	// explicitly so the workload actually grows with the network.
	Span int

	// Regime forwards to the f-AME channel-usage strategy.
	Regime core.Regime

	// Cleanup is the best-effort post-termination move budget (f-AME).
	Cleanup int

	// Adversary names the interferer strategy (see Adversaries).
	Adversary string

	// EmRounds is the number of emulated rounds driven on the long-lived
	// channel (secure-group only); non-positive selects 4.
	EmRounds int

	// Churn and Loss are the scalar fault-injection axes: the churned
	// node fraction and the target mean delivery-drop probability (see
	// fault.FromFractions). Zero injects nothing.
	Churn float64
	Loss  float64

	// Faults, when non-nil, is a full fault profile (named profiles from
	// scenario files). Churn/Loss scalars, when also set, override the
	// corresponding pieces of the profile. Each run compiles the profile
	// with its own seed, so fault schedules vary across the grid exactly
	// like every other randomness.
	Faults *fault.Profile

	// Transport, when non-nil, routes every run's physical layer through
	// a pluggable backend (see radio.Transport) instead of the built-in
	// in-memory medium. Not serializable: scenario files cannot name a
	// transport; callers wire one programmatically (the CLIs' -transport
	// flag). Transport-layer drops fold into the run's FaultDrops
	// accounting.
	Transport radio.Transport `json:"-"`
}

// AdversaryFactory builds a fresh interferer for one run. Adversaries are
// stateful, so every run gets its own instance, seeded deterministically.
type AdversaryFactory func(t, c int, seed int64) radio.Adversary

// advFactories is the interferer strategy registry.
var advFactories = map[string]AdversaryFactory{
	"none":  func(t, c int, seed int64) radio.Adversary { return nil },
	"jam":   func(t, c int, seed int64) radio.Adversary { return adversary.NewRandomJammer(t, c, seed) },
	"sweep": func(t, c int, seed int64) radio.Adversary { return &adversary.SweepJammer{T: t, C: c} },
	"worst": func(t, c int, seed int64) radio.Adversary { return &adversary.GreedyJammer{T: t, C: c} },
	"replay": func(t, c int, seed int64) radio.Adversary {
		return adversary.NewReplaySpoofer(t, c, seed)
	},
	// The zero/negative window arguments select the constructor's default
	// duty cycle — the same one securadio.NewBurstJammer uses, keeping
	// single-run and campaign "burst" semantics identical.
	"burst": func(t, c int, seed int64) radio.Adversary {
		return adversary.NewBurstJammer(t, c, 0, -1, seed)
	},
	"hop": func(t, c int, seed int64) radio.Adversary { return adversary.NewHopJammer(t, c, seed) },
	// Layered jam + replay: random jamming and replay spoofing share one
	// budget, with per-round priority rotation so both layers transmit
	// even at t=1. The sub-seeds are distinct streams derived from the
	// run seed, keeping the composite fully deterministic. (Distinct from
	// the omniscient adversary.Combo combinator — greedy jam + idle
	// spoof — which needs a protocol-specific Forge and so cannot be
	// built from (t, c, seed) alone.)
	"combo": func(t, c int, seed int64) radio.Adversary {
		return adversary.NewLayered(t,
			adversary.NewRandomJammer(t, c, seed),
			adversary.NewReplaySpoofer(t, c, seed+0x636f6d626f))
	},
}

// NewAdversary builds a fresh instance of a registered interferer strategy
// — the single name-to-constructor mapping shared by the scenario engine
// and the CLIs. The "none" strategy returns a nil adversary: the radio
// engine treats nil as no interference.
func NewAdversary(name string, t, c int, seed int64) (radio.Adversary, error) {
	factory, ok := advFactories[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown adversary %q (have %v)", name, Adversaries())
	}
	return factory(t, c, seed), nil
}

// LookupAdversary returns the constructor registered under name without
// building an instance, so a caller that runs the strategy many times can
// check the name once and build a fresh interferer per run.
func LookupAdversary(name string) (AdversaryFactory, bool) {
	factory, ok := advFactories[name]
	return factory, ok
}

// Adversaries returns the registered interferer strategy names, sorted.
func Adversaries() []string {
	out := make([]string, 0, len(advFactories))
	for name := range advFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Validate reports whether the scenario is well formed and its parameters
// satisfy the underlying protocol's model bounds.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("fleet: scenario has no name")
	}
	if _, ok := advFactories[s.Adversary]; !ok {
		return fmt.Errorf("fleet: scenario %q: unknown adversary %q (have %v)", s.Name, s.Adversary, Adversaries())
	}
	if s.Churn < 0 || s.Churn > 1 {
		return fmt.Errorf("fleet: scenario %q: Churn = %v, want 0..1", s.Name, s.Churn)
	}
	if s.Loss < 0 || s.Loss > 1 {
		return fmt.Errorf("fleet: scenario %q: Loss = %v, want 0..1", s.Name, s.Loss)
	}
	if p, enabled := s.faultProfile(); enabled {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
		}
	}
	switch s.Proto {
	case ProtoFame, ProtoFameCompact, ProtoFameDirect:
		if s.Pairs <= 0 {
			return fmt.Errorf("fleet: scenario %q: Pairs = %d, want > 0", s.Name, s.Pairs)
		}
		if s.Span != 0 && (s.Span < 2 || s.Span > s.N) {
			return fmt.Errorf("fleet: scenario %q: Span = %d, want 0 (default) or 2..N=%d", s.Name, s.Span, s.N)
		}
		return s.fameParams().Validate()
	case ProtoGroupKey, ProtoSecureGroup:
		return groupkey.Params{N: s.N, C: s.C, T: s.T, Regime: s.Regime}.Validate()
	default:
		return fmt.Errorf("fleet: scenario %q: unknown protocol %q", s.Name, s.Proto)
	}
}

func (s Scenario) fameParams() core.Params {
	mode := core.ModeSurrogate
	if s.Proto == ProtoFameDirect {
		mode = core.ModeDirect
	}
	return core.Params{
		N: s.N, C: s.C, T: s.T,
		Mode:      mode,
		Regime:    s.Regime,
		Cleanup:   s.Cleanup,
		Transport: s.Transport,
	}
}

func (s Scenario) emRounds() int {
	if s.EmRounds <= 0 {
		return 4
	}
	return s.EmRounds
}

// faultProfile resolves the scenario's effective fault profile: the named
// profile (if any) with the scalar Churn/Loss shorthands layered on top.
func (s Scenario) faultProfile() (fault.Profile, bool) {
	var p fault.Profile
	if s.Faults != nil {
		p = *s.Faults
	}
	if s.Churn > 0 {
		sc := fault.FromFractions(s.Churn, 0)
		p.CrashFrac, p.RecoverFrac, p.LateFrac = sc.CrashFrac, sc.RecoverFrac, sc.LateFrac
	}
	if s.Loss > 0 {
		p.Loss = fault.DefaultLoss(s.Loss)
	}
	return p, p.Enabled()
}

// faultPlan compiles the run's fault schedule from the scenario profile
// and the run seed — a pure function of both, so sweep reports stay
// byte-identical across worker counts and fabric topologies.
func (s Scenario) faultPlan(seed int64) (*fault.Plan, error) {
	p, enabled := s.faultProfile()
	if !enabled {
		return nil, nil
	}
	return fault.Compile(p, s.N, s.C, seed)
}

// runState holds one worker's reusable execution buffers. The campaign
// runner gives every worker goroutine its own instance, so the buffers
// are reused across that worker's runs without synchronization; together
// with the radio engine's own scratch pooling this keeps a long campaign
// from churning the GC.
type runState struct {
	msgValues map[graph.Edge]radio.Message
	strValues map[graph.Edge]string
	procs     []radio.Process
	gkResults []groupkey.NodeResult
	received  []int

	// trace, when non-nil, receives every radio round observation of the
	// current run (service mode's round streaming). The campaign runner
	// rebinds it per run; the nil default keeps the engine's zero-cost
	// no-trace fast path.
	trace func(radio.RoundObservation)

	// transportDrops carries the current run's transport-layer drop
	// count from the protocol execution to the degradation accounting
	// in execute; reset at every run start.
	transportDrops int
}

func newRunState() *runState {
	return &runState{
		msgValues: make(map[graph.Edge]radio.Message),
		strValues: make(map[graph.Edge]string),
	}
}

// bufs returns the state's process table and per-node result slots,
// cleared and sized for n nodes.
func (st *runState) bufs(n int) ([]radio.Process, []groupkey.NodeResult, []int) {
	if cap(st.procs) < n {
		st.procs = make([]radio.Process, n)
		st.gkResults = make([]groupkey.NodeResult, n)
		st.received = make([]int, n)
	}
	st.procs, st.gkResults, st.received = st.procs[:n], st.gkResults[:n], st.received[:n]
	clear(st.procs)
	clear(st.gkResults)
	clear(st.received)
	return st.procs, st.gkResults, st.received
}

// Execute runs the scenario once with the given seed and returns the run's
// outcome. A protocol-level error is recorded in RunResult.Err rather than
// returned, so a campaign keeps streaming past individual failures; a run
// aborted by ctx is additionally marked Canceled, which the campaign
// runner uses to keep interrupted partial runs out of the aggregate.
func (s Scenario) Execute(ctx context.Context, run int, seed int64) RunResult {
	return s.execute(ctx, run, seed, newRunState())
}

// execute is Execute with caller-owned reusable buffers (the campaign
// runner's per-worker runState).
func (s Scenario) execute(ctx context.Context, run int, seed int64, st *runState) RunResult {
	res := RunResult{Run: run, Seed: seed}
	st.transportDrops = 0
	adv, err := NewAdversary(s.Adversary, s.T, s.C, seed+1)
	var plan *fault.Plan
	if err == nil {
		plan, err = s.faultPlan(seed)
	}
	if err == nil {
		switch s.Proto {
		case ProtoFame, ProtoFameDirect:
			err = s.executeFame(ctx, adv, plan, seed, st, &res)
		case ProtoFameCompact:
			err = s.executeCompact(ctx, adv, plan, seed, st, &res)
		case ProtoGroupKey:
			err = s.executeGroupKey(ctx, adv, plan, seed, st, &res)
		case ProtoSecureGroup:
			err = s.executeSecureGroup(ctx, adv, plan, seed, st, &res)
		default:
			err = fmt.Errorf("fleet: unknown protocol %q", s.Proto)
		}
	}
	if plan != nil {
		c := plan.Counters()
		res.FaultDrops, res.NodesLost, res.DegradedRounds = c.Drops, c.NodesLost, c.DegradedRounds
	}
	// Transport-layer erasures (socket loss, jam windows) degrade
	// delivery exactly like fault-plan drops, so they fold into the same
	// counter; the native medium contributes zero.
	res.FaultDrops += st.transportDrops
	if err != nil {
		res.Err = err.Error()
		res.Canceled = errors.Is(err, radio.ErrCanceled)
	}
	return res
}

// PairSpan is the legacy default pair universe bound — min(n, 12) — used
// whenever a scenario does not set Span explicitly. It is the shared
// workload shape of the built-in campaigns and cmd/radiosim, so
// single-run and historical campaign results stay comparable; scenarios
// that want the pair universe to track N (every sweep over the N axis
// does) set Scenario.Span instead.
func PairSpan(n int) int {
	if n < 12 {
		return n
	}
	return 12
}

// pairSpan resolves the effective pair universe bound: an explicit Span,
// or the legacy PairSpan default.
func (s Scenario) pairSpan() int {
	if s.Span > 0 {
		return s.Span
	}
	return PairSpan(s.N)
}

func (s Scenario) randomPairs(seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomPairs(s.pairSpan(), s.Pairs, rng.Intn)
}

func (s Scenario) executeFame(ctx context.Context, adv radio.Adversary, plan *fault.Plan, seed int64, st *runState, res *RunResult) error {
	pairs := s.randomPairs(seed)
	values := st.msgValues
	clear(values)
	for _, e := range pairs {
		values[e] = fmt.Sprintf("m/%v", e)
	}
	p := s.fameParams()
	p.Faults = plan
	p.Trace = st.trace
	out, err := core.ExchangeContext(ctx, p, pairs, values, adv, seed)
	if err != nil {
		return err
	}
	st.transportDrops = out.Radio.TransportDrops
	res.Rounds = out.Rounds
	res.Attempted = len(pairs)
	res.Delivered = len(pairs) - len(out.Disruption.Edges())
	res.Cover = out.CoverSize
	return nil
}

func (s Scenario) executeCompact(ctx context.Context, adv radio.Adversary, plan *fault.Plan, seed int64, st *runState, res *RunResult) error {
	pairs := s.randomPairs(seed)
	values := st.strValues
	clear(values)
	for _, e := range pairs {
		values[e] = fmt.Sprintf("m/%v", e)
	}
	p := msgopt.Params{Fame: s.fameParams()}
	p.Fame.Faults = plan
	p.Fame.Trace = st.trace
	out, err := msgopt.ExchangeContext(ctx, p, pairs, values, adv, seed)
	if err != nil {
		return err
	}
	st.transportDrops = out.Radio.TransportDrops
	res.Rounds = out.Rounds
	res.Attempted = len(pairs)
	res.Delivered = len(pairs) - len(out.Disruption.Edges())
	res.Cover = out.CoverSize
	return nil
}

func (s Scenario) executeGroupKey(ctx context.Context, adv radio.Adversary, plan *fault.Plan, seed int64, st *runState, res *RunResult) error {
	p := groupkey.Params{N: s.N, C: s.C, T: s.T, Regime: s.Regime, Faults: plan, Trace: st.trace, Transport: s.Transport}
	out, err := groupkey.EstablishContext(ctx, p, adv, seed)
	if err != nil {
		return err
	}
	st.transportDrops = out.Radio.TransportDrops
	res.Rounds = out.Rounds
	res.Attempted = s.N
	res.Delivered = out.Agreed
	res.Cover = s.N - out.Agreed
	return nil
}

// executeSecureGroup composes the full stack inline — Section 6 setup
// followed by EmRounds emulated rounds of the Section 7 channel, one
// rotating broadcaster per emulated round — and counts authenticated
// deliveries at the receivers.
func (s Scenario) executeSecureGroup(ctx context.Context, adv radio.Adversary, plan *fault.Plan, seed int64, st *runState, res *RunResult) error {
	gk := groupkey.Params{N: s.N, C: s.C, T: s.T, Regime: s.Regime}
	ch := secure.Params{N: s.N, C: s.C, T: s.T}
	em := s.emRounds()

	procs, gkResults, received := st.bufs(s.N)
	for i := 0; i < s.N; i++ {
		i := i
		procs[i] = func(env radio.Env) {
			groupkey.RunNode(env, gk, &gkResults[i])
			slot := ch.SlotRounds()
			var sess *secure.Channel
			if k := gkResults[i].GroupKey; k != nil {
				if attached, err := secure.Attach(env, ch, *k); err == nil {
					sess = attached
				}
			}
			for e := 0; e < em; e++ {
				if sess == nil {
					// Keyless nodes idle through the slot to stay in
					// lock-step with the channel holders.
					env.SleepFor(slot)
					continue
				}
				var body []byte
				if i == e%s.N {
					body = []byte(fmt.Sprintf("fleet/%d", e))
				}
				received[i] += len(sess.Step(body))
			}
		}
	}
	cfg := radio.Config{N: s.N, C: s.C, T: s.T, Seed: seed, Adversary: adv, Faults: plan, Trace: st.trace, Transport: s.Transport}
	radioRes, err := radio.RunContext(ctx, cfg, procs)
	if err != nil {
		return err
	}
	// A node-local setup failure leaves that node keyless, exactly like a
	// node the agreement phase excluded: both are tolerated, idle through
	// the emulated rounds, and surface in Cover — the run as a whole fails
	// only when the key-holder quorum of the paper (n-t) is missed.
	attempted, holders := secureGroupAccounting(gkResults, em)
	if holders < s.N-s.T {
		return fmt.Errorf("fleet: secure-group setup missed quorum: %d of %d nodes hold the key, need n-t = %d",
			holders, s.N, s.N-s.T)
	}
	st.transportDrops = radioRes.TransportDrops
	res.Rounds = radioRes.Rounds
	res.Attempted = attempted
	for _, n := range received {
		res.Delivered += n
	}
	res.Cover = s.N - holders
	return nil
}

// secureGroupAccounting derives the delivery denominator of a secure-group
// run from the actual per-node setup outcomes. Only emulated rounds whose
// scheduled broadcaster (round e is node e mod n) holds the group key can
// deliver anything, and only the other key holders can authenticate the
// broadcast — so each such round attempts holders-1 deliveries. Emulated
// rounds scheduled on a keyless broadcaster attempt nothing: counting them
// (the old em*(n-1) formula) silently deflated the delivery rate whenever
// setup excluded a node.
func secureGroupAccounting(results []groupkey.NodeResult, em int) (attempted, holders int) {
	n := len(results)
	holders = groupkey.KeyHolders(results)
	for e := 0; e < em; e++ {
		if results[e%n].GroupKey != nil {
			attempted += holders - 1
		}
	}
	return attempted, holders
}

// registry holds the built-in scenarios in definition order.
var registry = []Scenario{
	{
		Name: "fame-clear", Desc: "f-AME on the minimum spectrum, no interference",
		Proto: ProtoFame, N: 20, C: 2, T: 1, Pairs: 8, Adversary: "none",
	},
	{
		Name: "fame-jam", Desc: "f-AME vs random jammer on C=t+1",
		Proto: ProtoFame, N: 20, C: 2, T: 1, Pairs: 8, Adversary: "jam",
	},
	{
		Name: "fame-worst", Desc: "f-AME vs omniscient greedy jammer (worst case)",
		Proto: ProtoFame, N: 20, C: 2, T: 1, Pairs: 8, Adversary: "worst",
	},
	{
		Name: "fame-burst", Desc: "f-AME vs bursty on/off duty-cycled jammer",
		Proto: ProtoFame, N: 20, C: 2, T: 1, Pairs: 8, Adversary: "burst",
	},
	{
		Name: "fame-hop-2t", Desc: "f-AME in the 2t regime vs adaptive channel-hopping jammer",
		Proto: ProtoFame, N: 64, C: 4, T: 2, Pairs: 6, Regime: core.Regime2T, Adversary: "hop",
	},
	{
		Name: "fame-combo", Desc: "f-AME vs layered combo adversary (jam + replay)",
		Proto: ProtoFame, N: 20, C: 2, T: 1, Pairs: 8, Adversary: "combo",
	},
	{
		Name: "compact-replay", Desc: "compact f-AME (Section 5.6) vs replay spoofer",
		Proto: ProtoFameCompact, N: 20, C: 2, T: 1, Pairs: 6, Adversary: "replay",
	},
	{
		Name: "direct-sweep", Desc: "direct-mode baseline (2t-disruptable) vs scanning jammer",
		Proto: ProtoFameDirect, N: 20, C: 2, T: 1, Pairs: 6, Adversary: "sweep",
	},
	{
		Name: "groupkey-jam", Desc: "Section 6 group-key establishment vs random jammer",
		Proto: ProtoGroupKey, N: 20, C: 2, T: 1, Adversary: "jam",
	},
	{
		Name: "groupkey-burst", Desc: "group-key establishment vs bursty jammer",
		Proto: ProtoGroupKey, N: 20, C: 2, T: 1, Adversary: "burst",
	},
	{
		Name: "securegroup-hop", Desc: "full stack: group key + long-lived channel vs hopping jammer",
		Proto: ProtoSecureGroup, N: 20, C: 2, T: 1, EmRounds: 4, Adversary: "hop",
	},
	{
		Name: "fame-churn", Desc: "f-AME under node churn: crashes, recoveries and late joins mid-protocol",
		Proto: ProtoFame, N: 20, C: 2, T: 1, Pairs: 8, Adversary: "none", Churn: 0.15,
	},
	{
		Name: "secure-fading", Desc: "full stack over bursty Gilbert-Elliott fading channels",
		Proto: ProtoSecureGroup, N: 20, C: 3, T: 1, EmRounds: 4, Adversary: "none", Loss: 0.05,
	},
	// The large-regime entries put N in the thousands and C in the hundreds
	// through the sparse resolution core (2t^2 regime: 2t^2 <= C, C/t >= 2t,
	// n >= MinNodes). Span widens the pair universe past the legacy
	// PairSpan default so the workload actually spans the big network, and
	// Pairs is sized so the initial pair set is NOT already t-disruptable
	// (vertex cover > t) — otherwise the game terminates in zero moves.
	{
		Name: "fame-wide", Desc: "f-AME at N=1024 across a 128-channel spectrum vs hopping jammer",
		Proto: ProtoFame, N: 1024, C: 128, T: 8, Pairs: 24, Span: 64, Regime: core.Regime2T2, Adversary: "hop",
	},
	{
		Name: "fame-large", Desc: "f-AME at N=4096 across a 512-channel spectrum vs random jammer",
		Proto: ProtoFame, N: 4096, C: 512, T: 16, Pairs: 28, Span: 128, Regime: core.Regime2T2, Adversary: "jam",
	},
}

// Scenarios returns the built-in scenarios in definition order.
func Scenarios() []Scenario {
	return append([]Scenario(nil), registry...)
}

// Lookup returns the named built-in scenario.
func Lookup(name string) (Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
