package securadio

import (
	"context"
	"fmt"

	"securadio/internal/core"
	"securadio/internal/fault"
	"securadio/internal/fleet"
	"securadio/internal/groupkey"
	"securadio/internal/msgopt"
	"securadio/internal/radio"
	"securadio/internal/secure"
	"securadio/internal/wcrypto"
)

// Runner is the composable entrypoint to every protocol layer of the
// paper: it binds a Network to a set of options (regime, kappa, cleanup,
// adversary, observer) once, and then runs any of the four layers —
// Exchange, ExchangeCompact, GroupKey, SecureGroup — against that shared
// configuration. All methods take a context.Context and honor
// cancellation at radio-round granularity; all errors fold into the
// package's typed hierarchy (ErrBadParams, ErrCanceled, ErrNoQuorum,
// ErrSetupFailed).
//
// A Runner keeps no state between calls: each method simulates a fresh
// network from Network.Seed, with a fresh instance of an adversary named
// by strategy, and a Runner so configured is safe for concurrent use when
// its observer is. A ready Interferer (WithAdversary or
// Network.Adversary) is shared by every call and carries its state from
// one call to the next.
type Runner struct {
	net       Network
	regime    Regime
	direct    bool
	kappa     float64
	cleanup   int
	newAdv    fleet.AdversaryFactory // per-call adversary of a strategy name
	obs       Observer
	faults    *fault.Profile
	transport Transport
}

// RunnerOption configures a Runner at construction time.
type RunnerOption func(*Runner) error

// WithRegime selects the f-AME channel-usage strategy (default
// RegimeAuto).
func WithRegime(regime Regime) RunnerOption {
	return func(r *Runner) error { r.regime = regime; return nil }
}

// WithDirect toggles surrogate-free direct exchange (the 2t-disruptable
// baseline / Byzantine-tolerant variant of Section 8).
func WithDirect(direct bool) RunnerOption {
	return func(r *Runner) error { r.direct = direct; return nil }
}

// WithKappa scales all with-high-probability repetition counts;
// non-positive selects the library default.
func WithKappa(kappa float64) RunnerOption {
	return func(r *Runner) error { r.kappa = kappa; return nil }
}

// WithCleanup enables the best-effort post-termination delivery extension
// (Section 8, open question 3): after the greedy strategy terminates, the
// nodes keep scheduling the surviving pairs for up to moves extra moves,
// which short of a perfectly targeted jammer usually empties the
// disruption graph.
func WithCleanup(moves int) RunnerOption {
	return func(r *Runner) error { r.cleanup = moves; return nil }
}

// WithObserver streams every radio round of every run into obs as
// RoundEvents. A nil obs disables observation (the default), which keeps
// the engine's zero-allocation round loop fully intact.
func WithObserver(obs Observer) RunnerOption {
	return func(r *Runner) error { r.obs = obs; return nil }
}

// WithFaults installs a deterministic fault-injection profile: node
// churn (crash, crash-recover and late-join schedules that silence a
// node's radio) and bursty Gilbert-Elliott channel loss. The schedule
// compiles from Network.Seed, so a faulted run is exactly as
// reproducible as a fault-free one — identical across processes and
// worker counts. Protocols degrade gracefully: crashed
// nodes end keyless or with failed pairs, and a run fails only past the
// model's quorum (errors matching ErrNoQuorum / ErrSetupFailed). A
// profile that enables neither fault family disables injection entirely,
// selecting the engine's exact fault-free code path.
func WithFaults(p FaultProfile) RunnerOption {
	return func(r *Runner) error {
		if err := p.Validate(); err != nil {
			return &ParamError{Op: "configure faults", Err: err}
		}
		r.faults = &p
		return nil
	}
}

// WithTransport routes every run's physical layer through a pluggable
// backend (see Transport) — for example NewUDPTransport — instead of
// the native in-memory medium. The engine keeps the round lock-step,
// validation and the adversary budget either way; the backend resolves
// what each channel carried, and its injected or genuine datagram loss
// folds into the report's FaultDrops. A nil transport selects the
// native medium (the default).
func WithTransport(t Transport) RunnerOption {
	return func(r *Runner) error { r.transport = t; return nil }
}

// WithAdversary installs the interferer, overriding Network.Adversary. It
// accepts either a registry strategy name (see AdversaryStrategies) or a
// ready Interferer instance. A name gives every call a fresh instance,
// built exactly as fleet campaigns build it and seeded with
// Network.Seed+1 like the CLIs. A ready instance is shared by every call,
// so its state carries from call to call. A nil Interferer (or the name
// "none") means no interference.
func WithAdversary(adv any) RunnerOption {
	return func(r *Runner) error {
		r.newAdv, r.net.Adversary = nil, nil
		switch a := adv.(type) {
		case nil:
		case string:
			factory, ok := fleet.LookupAdversary(a)
			if !ok {
				return &ParamError{Op: "configure adversary",
					Err: fmt.Errorf("unknown adversary %q (have %v)", a, AdversaryStrategies())}
			}
			r.newAdv = factory
		case Interferer:
			r.net.Adversary = a
		default:
			return &ParamError{Op: "configure adversary",
				Err: fmt.Errorf("want a strategy name or an Interferer, got %T", adv)}
		}
		return nil
	}
}

// NewRunner builds a Runner for the given network. The network's basic
// shape (N > 0, C >= 2, 0 <= T < C) is validated here — one shared
// validation path for every protocol layer; layer-specific model bounds
// (e.g. f-AME's minimum node count) are validated by the method that
// needs them. All returned errors match ErrBadParams.
func NewRunner(net Network, options ...RunnerOption) (*Runner, error) {
	r := &Runner{net: net}
	for _, opt := range options {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if err := (radio.Config{N: net.N, C: net.C, T: net.T}).Validate(); err != nil {
		return nil, &ParamError{Op: "configure network", Err: err}
	}
	return r, nil
}

// fameParams assembles the f-AME parameters from the Runner's shared
// configuration.
func (r *Runner) fameParams() core.Params {
	mode := core.ModeSurrogate
	if r.direct {
		mode = core.ModeDirect
	}
	return core.Params{
		N: r.net.N, C: r.net.C, T: r.net.T,
		Mode:    mode,
		Regime:  r.regime,
		Kappa:   r.kappa,
		Cleanup: r.cleanup,
	}
}

// adversary returns the interferer for one call: a fresh instance of the
// named strategy, or the configured Interferer as-is.
func (r *Runner) adversary() Interferer {
	if r.newAdv != nil {
		return r.newAdv(r.net.T, r.net.C, r.net.Seed+1)
	}
	return r.net.Adversary
}

// Exchange runs the f-AME protocol (the paper's core contribution): each
// pair (v, w) attempts to deliver payloads[pair] from v to w, with
// authentication, sender awareness, and t-disruptability, despite the
// configured adversary. Cancelling ctx aborts the simulation at the next
// round boundary with an error matching ErrCanceled.
func (r *Runner) Exchange(ctx context.Context, pairs []Pair, payloads map[Pair]Message) (*ExchangeReport, error) {
	p := r.fameParams()
	p.Trace = r.trace()
	p.Transport = r.transport
	plan, err := r.faultPlan()
	if err != nil {
		return nil, err
	}
	p.Faults = plan
	out, err := core.ExchangeContext(ctx, p, pairs, payloads, r.adversary(), r.net.Seed)
	if err != nil {
		return nil, wrapErr("exchange", err)
	}
	report := &ExchangeReport{
		Delivered:       make(map[Pair]Message),
		Failed:          out.Disruption.Edges(),
		DisruptionCover: out.CoverSize,
		Rounds:          out.Rounds,
		GameRounds:      out.GameRounds,
	}
	setFaultCounters(plan, &report.FaultDrops, &report.NodesLost, &report.DegradedRounds)
	report.FaultDrops += out.Radio.TransportDrops
	for _, e := range pairs {
		if !out.Disruption.Has(e) {
			report.Delivered[e] = out.PerNode[e.Dst].Delivered[e]
		}
	}
	return report, nil
}

// faultPlan compiles the per-call fault plan from the configured profile.
// Plans carry mutable per-run state, so every protocol method compiles a
// fresh one — preserving the Runner's concurrent-use contract — and a
// disabled (or absent) profile yields nil, the fault-free engine path.
func (r *Runner) faultPlan() (*fault.Plan, error) {
	if r.faults == nil || !r.faults.Enabled() {
		return nil, nil
	}
	plan, err := fault.Compile(*r.faults, r.net.N, r.net.C, r.net.Seed)
	if err != nil {
		return nil, &ParamError{Op: "configure faults", Err: err}
	}
	return plan, nil
}

// setFaultCounters copies a completed plan's degradation counters into a
// report's fields; a nil plan leaves them zero.
func setFaultCounters(plan *fault.Plan, drops, lost, degraded *int) {
	if plan == nil {
		return
	}
	c := plan.Counters()
	*drops, *lost, *degraded = c.Drops, c.NodesLost, c.DegradedRounds
}

// ExchangeCompact runs f-AME with the Section 5.6 message-size
// optimization: payloads travel through an epoch-gossip phase and only
// constant-size vector signatures ride the authenticated exchange.
// Payloads must be strings (the optimization hashes them).
func (r *Runner) ExchangeCompact(ctx context.Context, pairs []Pair, payloads map[Pair]string) (*ExchangeReport, error) {
	p := msgopt.Params{Fame: r.fameParams(), EpochKappa: r.kappa}
	p.Fame.Trace = r.trace()
	p.Fame.Transport = r.transport
	plan, err := r.faultPlan()
	if err != nil {
		return nil, err
	}
	p.Fame.Faults = plan
	out, err := msgopt.ExchangeContext(ctx, p, pairs, payloads, r.adversary(), r.net.Seed)
	if err != nil {
		return nil, wrapErr("compact exchange", err)
	}
	report := &ExchangeReport{
		Delivered:       make(map[Pair]Message),
		Failed:          out.Disruption.Edges(),
		DisruptionCover: out.CoverSize,
		Rounds:          out.Rounds,
	}
	setFaultCounters(plan, &report.FaultDrops, &report.NodesLost, &report.DegradedRounds)
	report.FaultDrops += out.Radio.TransportDrops
	for _, e := range pairs {
		if !out.Disruption.Has(e) {
			report.Delivered[e] = string(out.PerNode[e.Dst].Delivered[e])
		}
	}
	return report, nil
}

// GroupKey runs the Section 6 protocol end to end and returns the
// per-node keys. No pre-shared secrets are assumed; secrecy rests on the
// computational Diffie-Hellman assumption exactly as in the paper.
func (r *Runner) GroupKey(ctx context.Context) (*GroupKeyReport, error) {
	p := r.groupKeyParams()
	p.Trace = r.trace()
	p.Transport = r.transport
	plan, err := r.faultPlan()
	if err != nil {
		return nil, err
	}
	p.Faults = plan
	out, err := groupkey.EstablishContext(ctx, p, r.adversary(), r.net.Seed)
	if err != nil {
		return nil, wrapErr("group key", err)
	}
	if out.Agreed == 0 {
		return nil, &QuorumError{N: r.net.N, T: r.net.T}
	}
	report := &GroupKeyReport{
		Keys:   make([]*[32]byte, r.net.N),
		Leader: out.Leader,
		Agreed: out.Agreed,
		Rounds: out.Rounds,
	}
	setFaultCounters(plan, &report.FaultDrops, &report.NodesLost, &report.DegradedRounds)
	report.FaultDrops += out.Radio.TransportDrops
	for i := range out.PerNode {
		if k := out.PerNode[i].GroupKey; k != nil && out.PerNode[i].Leader == out.Leader {
			kk := [32]byte(*k)
			report.Keys[i] = &kk
		}
	}
	return report, nil
}

// SecureGroup executes the complete stack of the paper: group-key
// establishment (Section 6, bootstrapped by f-AME) followed by the
// long-lived secure channel emulation (Section 7), on which the supplied
// application runs. The application callback is invoked once per node,
// inside the simulation; all callbacks must perform the same number of
// Step calls.
func (r *Runner) SecureGroup(ctx context.Context, app SecureGroupApp) (*SecureGroupReport, error) {
	net := r.net
	gkParams := r.groupKeyParams()
	if err := gkParams.Validate(); err != nil {
		return nil, wrapErr("secure group", err)
	}
	chParams := secure.Params{N: net.N, C: net.C, T: net.T, Kappa: r.kappa}

	report := &SecureGroupReport{
		SlotRounds:        chParams.SlotRounds(),
		SetupRoundsByNode: make([]int, net.N),
	}
	gkResults := make([]groupkey.NodeResult, net.N)
	setupRounds := report.SetupRoundsByNode

	procs := make([]radio.Process, net.N)
	for i := 0; i < net.N; i++ {
		i := i
		procs[i] = func(env radio.Env) {
			groupkey.RunNode(env, gkParams, &gkResults[i])
			setupRounds[i] = env.Round()
			s := &session{env: env, n: net.N, slot: chParams.SlotRounds()}
			if k := gkResults[i].GroupKey; k != nil {
				ch, err := secure.Attach(env, chParams, wcrypto.Key(*k))
				if err == nil {
					s.ch = ch
				}
			}
			app(s)
		}
	}

	plan, err := r.faultPlan()
	if err != nil {
		return nil, err
	}
	cfg := radio.Config{
		N: net.N, C: net.C, T: net.T, Seed: net.Seed,
		Adversary: r.adversary(), Trace: r.trace(), Faults: plan,
		Transport: r.transport,
	}
	radioRes, err := radio.RunContext(ctx, cfg, procs)
	if err != nil {
		return nil, wrapErr("secure group", fmt.Errorf("secure group run: %w", err))
	}
	report.TotalRounds = radioRes.Rounds
	setFaultCounters(plan, &report.FaultDrops, &report.NodesLost, &report.DegradedRounds)
	report.FaultDrops += radioRes.TransportDrops

	// A node-local setup failure leaves that node keyless, exactly like a
	// node the agreement phase excluded: both are tolerated, idle through
	// the emulated rounds in lock-step, and the run as a whole fails only
	// when the key-holder quorum of the paper (n-t) is missed. This is the
	// same counting rule the fleet secure-group path applies (shared via
	// groupkey.KeyHolders), so a Runner call and a campaign run of the
	// same parameters succeed and fail identically.
	holders := groupkey.KeyHolders(gkResults)
	report.KeyHolders = holders
	for i := range gkResults {
		if gkResults[i].Err != nil {
			report.SetupErrors++
		}
	}
	// The true lock-step setup cost is the slowest node's: no node can
	// enter the emulated channel before every other node is done setting
	// up, so the max — not node 0's view — is what the application pays.
	for _, rounds := range setupRounds {
		if rounds > report.SetupRounds {
			report.SetupRounds = rounds
		}
	}
	if holders < net.N-net.T {
		return report, &SetupError{Holders: holders, N: net.N, T: net.T}
	}
	return report, nil
}

// groupKeyParams assembles the Section 6 parameters from the Runner's
// shared configuration.
func (r *Runner) groupKeyParams() groupkey.Params {
	return groupkey.Params{
		N: r.net.N, C: r.net.C, T: r.net.T,
		Kappa: r.kappa, Regime: r.regime,
	}
}
