// Package securadio is a from-scratch Go implementation of
//
//	Dolev, Gilbert, Guerraoui, Newport.
//	"Secure Communication Over Radio Channels." PODC 2008.
//
// It provides secure (authenticated, reliable, eventually secret)
// communication over a multi-channel single-hop radio network in the
// presence of a malicious adversary that can jam and spoof on up to t of
// the C channels per round — with no pre-shared secrets and no trusted
// infrastructure.
//
// The single composable entrypoint is the Runner: built once from a
// Network plus functional options (WithRegime, WithDirect, WithKappa,
// WithCleanup, WithAdversary, WithObserver), it exposes every protocol
// layer of the paper as a context-aware method:
//
//   - Runner.Exchange: the f-AME protocol (the paper's core
//     contribution) — a single-shot authenticated message exchange for an
//     arbitrary pair set, optimally t-disruptable.
//   - Runner.ExchangeCompact: f-AME with the Section 5.6 message-size
//     optimization (constant AME values per protocol message).
//   - Runner.GroupKey: the Section 6 protocol — Diffie-Hellman over a
//     (t+1)-leader spanner via f-AME, leader-key dissemination on secret
//     hopping sequences, and reporter-quorum agreement.
//   - Runner.SecureGroup: the Section 7 long-lived service — an emulated
//     reliable, secret, authenticated broadcast channel that applications
//     drive one emulated round at a time.
//
// All methods honor context cancellation at radio-round granularity, and
// all errors fold into a typed hierarchy: ErrBadParams, ErrCanceled,
// ErrNoQuorum and ErrSetupFailed are errors.Is-matchable sentinels whose
// concrete values (*ParamError, *CanceledError, *QuorumError,
// *SetupError) carry structured fields. A Runner built WithObserver
// streams every radio round as a RoundEvent — per-channel transmit, jam,
// collision, delivery and spoof activity plus checkpoint-derived protocol
// phase transitions — with a zero-cost nil fast path.
//
// A Runner built WithFaults additionally injects deterministic
// environmental faults beneath the adversary: node churn (crash,
// crash-recover, late join) silences nodes' radios mid-protocol, and a
// two-state Gilbert-Elliott burst-loss model (LossModel, optionally
// correlated across channels) destroys deliveries in bursts. Fault
// schedules derive from the run seed on an independent substream, so
// faulted runs are exactly as reproducible as clean ones — across worker
// counts and any sweep topology — and a disabled profile is a provable
// no-op. Degradation is surfaced, never masked: reports
// carry FaultDrops / NodesLost / DegradedRounds, RoundEvent carries
// per-round churn and loss activity, and churn past the n-t quorum
// fails with the typed ErrSetupFailed / ErrNoQuorum rather than
// hanging. Fleet scenarios and sweeps take the same knobs (Scenario
// fault fields, churn / loss axes, the scenario-file "faults" stanza).
//
// A Runner built WithTransport swaps the physical layer itself: the
// engine keeps the round lock-step, action validation and the adversary
// budget, and a pluggable Transport resolves what each channel actually
// carried. The default (nil) transport is the in-memory simulator;
// NewUDPTransport runs the same protocols over real loopback sockets —
// one UDP socket per channel, one datagram per committed transmission —
// with seeded loss and jam-window injection (UDPConfig). A lossless
// socket transport is an implementation detail the protocols cannot
// observe: the cross-transport conformance suite pins every layer's
// report byte-identical between memory and UDP. Degradation a real
// medium introduces (injected or genuine) folds into the same
// FaultDrops counters the fault layer uses, never silently skewing
// results.
//
// Beyond the paper's four layers, RunCampaign fans scenario campaigns —
// hundreds to thousands of independent simulations drawn from the named
// scenario registry (see Scenarios) — across all cores and aggregates
// delivery rates, round-count percentiles and disruption-cover
// distributions into deterministic JSON; campaigns run the exact same
// internal protocol entrypoints as the Runner, and cancelling a
// campaign's context aborts even the in-flight simulations. RunSweep
// lifts campaigns to parameter families: a Sweep expands a cartesian
// grid of axes (N, C, T, Pairs, Regime, Adversary, EmRounds) over a base
// scenario and executes every cell through one shared worker pool,
// emitting a worker-count-independent matrix report (SweepResult).
// User-defined JSON scenario catalogs (ParseScenarioFile,
// LoadScenarioFile) extend both campaigns and sweeps beyond the built-in
// registry.
//
// On top of the matrix, the analysis layer computes the paper's
// threshold curves natively: Marginals collapses a SweepResult onto one
// axis at a time (pooled delivery rate, round percentiles and mean cover
// per axis value); RunAdaptiveSweep replaces a uniform grid on one
// numeric axis with bisection around the largest delivery-rate drop
// (AdaptiveSweep, AdaptiveResult), localizing the disruption threshold
// with far fewer cells; and DiffSweeps aligns two sweep reports cell by
// cell and flags delivery regressions beyond a threshold (SweepDiff,
// with ParseSweepResult / LoadSweepResult reloading reports from disk),
// which is what the fleetsim diff CI gate runs.
//
// Because every per-cell aggregate is a pure function of (definition,
// seed), sweeps also distribute across processes and machines without
// changing a byte of the report: NewFabric builds a coordinator that
// decomposes a Sweep or AdaptiveSweep into whole-cell leases and hands
// them to workers — in-process (Fabric.AttachLocal), subprocesses over
// stdin/stdout pipes (Fabric.AttachExec), or remote processes over TCP
// (Fabric.ListenTCP with ServeSweepWorker / DialSweepWorker on the
// worker side). Expired leases re-issue when workers crash or hang,
// duplicate completions resolve first-valid-write-wins, and an optional
// checkpoint journal (FabricConfig.Checkpoint) records completed cells
// so a killed sweep resumes without re-running them — the fleetsim
// sweep -workers-exec/-listen/-checkpoint/-resume flags and worker
// subcommand drive exactly this machinery.
//
// For long-lived serving rather than one-shot runs, NewCampaignServer
// builds the campaign service behind the fleetsim serve daemon
// (ServiceConfig, CampaignServer): campaigns and sweeps submitted over
// HTTP enter a multi-tenant queue (FIFO per tenant, round-robin across
// tenants, bounded concurrency), execute through the same hooked
// runners, and stream per-run results, incremental aggregate snapshots
// and optional per-round traces to any number of Server-Sent-Events
// subscribers. Each subscriber owns a bounded ring buffer, so a slow
// consumer drops its own events and never backpressures the
// simulation; finished reports are stored content-addressed by sha256
// with bytes identical to the one-shot CLI's JSON, and Drain stops
// admission, finishes running jobs and closes every stream with a
// terminal event for graceful shutdown. The streaming callbacks
// themselves are public as RunHooks with RunCampaignWithHooks /
// RunSweepWithHooks.
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's synchronous radio model (internal/radio); the adversary zoo in
// internal/adversary provides jamming, spoofing, replaying and
// protocol-specific attack strategies for experiments. The cmd/paperbench
// tool regenerates every quantitative claim in the paper, cmd/radiosim
// runs a single network from the command line, and cmd/fleetsim executes
// scenario campaigns; see README.md for a quickstart.
package securadio
