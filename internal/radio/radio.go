package radio

import (
	"errors"
	"fmt"
	"math/rand"

	"securadio/internal/bitset"
	"securadio/internal/fault"
)

// Message is the payload carried by a single radio transmission. The
// simulator models the physical layer at message granularity, exactly like
// the paper's model: a transmission either arrives intact or not at all.
// Payloads are arbitrary Go values; protocol packages define typed message
// structs, and adversaries may inject values of any type.
type Message any

// Op enumerates the per-round operations available to a node.
type Op int

// Per-round node operations.
const (
	OpSleep Op = iota + 1
	OpTransmit
	OpListen
	OpCheckpoint

	// opDone is an internal sentinel posted by the node runner after the
	// node's Process function returns.
	opDone
)

// String returns a human-readable operation name.
func (o Op) String() string {
	switch o {
	case OpSleep:
		return "sleep"
	case OpTransmit:
		return "transmit"
	case OpListen:
		return "listen"
	case OpCheckpoint:
		return "checkpoint"
	case opDone:
		return "done"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// NodeAction describes what one honest node did (or is about to do) in a
// round. Channel and Msg are meaningful only for the operations that use
// them (OpTransmit uses both, OpListen uses Channel, OpCheckpoint uses Tag).
type NodeAction struct {
	Op      Op
	Channel int
	Msg     Message
	Tag     string
}

// Transmission is a single adversarial broadcast: a channel and a payload.
// A Transmission with a nil Msg still occupies the channel (pure jamming).
type Transmission struct {
	Channel int
	Msg     Message
}

// RoundObservation is the complete outcome of one round, as seen by the
// omnipresent adversary (which listens on all channels) and by tracing
// hooks.
//
// The slices are owned by the engine and are only valid for the duration of
// the Observe / Trace call; implementations that retain data across rounds
// must copy what they need.
type RoundObservation struct {
	Round int

	// Actions holds the honest nodes' actions, indexed by node ID. A node
	// whose Process has already returned appears with a zero NodeAction
	// (Op == 0).
	Actions []NodeAction

	// Adversarial holds the adversary's transmissions this round.
	Adversarial []Transmission

	// Delivered holds, per channel, the message delivered to listeners on
	// that channel (nil when the channel was silent or collided).
	Delivered []Message

	// Transmitters holds, per channel, the total number of transmitters
	// (honest plus adversarial).
	Transmitters []int

	// Fault observability. The masks are nil unless the run has a fault
	// plan (Config.Faults) or a Transport (Config.Transport), and the
	// counts are zero unless something was dropped, silenced or restored;
	// a Transport's drops and fades fold into Dropped, Faded and
	// FaultDrops. Like the other observation slices the masks are
	// engine-owned and valid only during the call. The masks are
	// multi-word bitsets so a wide spectrum costs a few words, not a bool
	// per channel; bitset.Set.Get is nil-safe, so reading an absent mask
	// simply reports false everywhere.

	// Down holds, per node, whether churn silenced the node this round.
	Down bitset.Set

	// Faded holds, per channel, whether the loss model was in its bad
	// (bursty) state this round.
	Faded bitset.Set

	// Dropped holds, per channel, whether a delivery was erased by the
	// loss model this round.
	Dropped bitset.Set

	// FaultDrops is the number of deliveries lost to faults this round
	// (suppressed transmissions of down nodes plus loss-model drops).
	FaultDrops int

	// Deaths and Recoveries count the nodes newly silenced or newly
	// restored this round.
	Deaths, Recoveries int
}

// Adversary is the malicious interferer of the paper's model. Plan is
// called once per round, before the engine resolves the round, and must
// base its decision only on information from completed rounds (delivered
// incrementally through Observe). The engine enforces the budget: at most
// t transmissions on distinct channels are honored.
type Adversary interface {
	// Plan returns the adversary's transmissions for the given round.
	// The adversary may reuse the returned slice in its next Plan call, so
	// a caller that keeps a plan across calls must copy it.
	Plan(round int) []Transmission

	// Observe reports the complete outcome of a finished round. The
	// observation's slices are only valid during the call.
	Observe(obs RoundObservation)
}

// OmniscientAdversary is an optional extension interface for adversaries
// that are allowed to inspect the honest nodes' committed actions for the
// current round before planning. This is strictly stronger than the
// paper's model (where current-round random choices are hidden); it exists
// so tests and benchmarks can exercise protocols against a worst-case
// interferer. For protocol phases whose schedule is deterministic, an
// omniscient adversary is exactly as strong as a model-compliant adversary
// that recomputes the schedule itself.
type OmniscientAdversary interface {
	Adversary

	// PlanOmniscient is called instead of Plan when the adversary
	// implements this interface. The pending slice (indexed by node ID) is
	// only valid during the call; the returned slice may be reused, as
	// Plan's may.
	PlanOmniscient(round int, pending []NodeAction) []Transmission
}

// Env is the handle through which a node program interacts with the
// network. Every method that represents a round operation (Transmit,
// Listen, Sleep, SleepFor, Checkpoint) blocks until the engine has resolved
// that round, keeping all nodes in lock-step.
//
// Node programs run one at a time, in ID order: each round the engine
// resumes every live node in ascending ID until it issues its next round
// operation, so a run uses one core at any GOMAXPROCS. An Env belongs to
// its node's program and must not be shared.
type Env interface {
	// Transmit broadcasts msg on the given channel for one round.
	Transmit(channel int, msg Message)

	// Listen tunes to the given channel for one round and returns the
	// delivered message, or nil if the channel was silent or collided.
	Listen(channel int) Message

	// Sleep skips one round (neither transmitting nor listening).
	Sleep()

	// SleepFor skips the given number of rounds.
	SleepFor(rounds int)

	// Checkpoint is a debugging barrier: it consumes one round, and the
	// engine verifies that every still-running node checkpoints with the
	// same tag in the same round. Protocol desynchronization therefore
	// fails loudly instead of corrupting the simulation silently.
	Checkpoint(tag string)

	// Round returns the index of the next round this node will take part
	// in (0-based).
	Round() int

	// ID returns this node's identifier in [0, N).
	ID() int

	// N returns the number of nodes.
	N() int

	// C returns the number of channels.
	C() int

	// T returns the adversary's per-round transmission budget.
	T() int

	// Rand returns this node's private deterministic random source. Per
	// the model, the adversary learns the realized choices only after the
	// round completes.
	Rand() *rand.Rand
}

// Process is a node program. The engine runs one Process per node and
// waits for all of them to return.
//
// A Process must interact with the rest of the network only through its
// Env: every cross-node information flow in the model is a radio round.
// Blocking on out-of-band shared state between Env calls (channels,
// mutexes, condition variables tied to another node's progress) is
// outside the model's semantics, and the engine is free to schedule node
// programs in any way that preserves round lock-step — including running
// them as coroutines resumed sequentially, where such out-of-band
// blocking deadlocks the run.
type Process func(Env)

// Config describes a network instance.
type Config struct {
	// N is the number of honest nodes. Must be positive.
	N int

	// C is the number of channels. Must be at least 2.
	C int

	// T is the adversary's per-round transmission budget. Must satisfy
	// 0 <= T < C.
	T int

	// Seed drives all randomness (per-node sources are derived from it).
	Seed int64

	// Adversary is the malicious interferer. nil means no interference.
	Adversary Adversary

	// MaxRounds aborts the run if the protocol exceeds this many rounds;
	// 0 selects DefaultMaxRounds.
	MaxRounds int

	// Trace, when non-nil, is invoked with every round's observation after
	// the adversary has observed it. The observation is only valid during
	// the call.
	Trace func(RoundObservation)

	// Faults, when non-nil, injects the compiled fault plan: node-churn
	// silence windows and time-varying channel loss, applied at round
	// resolution (see internal/fault). The plan must be compiled for the
	// same N and C, and is bound to this run until it completes (the
	// engine resets its runtime state at run start). nil injects nothing
	// and leaves every run byte-identical to the fault-free engine.
	Faults *fault.Plan

	// Transport, when non-nil, routes the physical layer through a
	// pluggable backend (see Transport): the engine keeps the round
	// lock-step, validation, churn and the adversary budget, and the
	// backend resolves what each channel carried. nil selects the
	// engine's built-in in-memory medium, the same one Loopback serves.
	Transport Transport
}

// DefaultMaxRounds is the runaway-protocol guard used when
// Config.MaxRounds is zero.
const DefaultMaxRounds = 20_000_000

// Result summarizes a completed run.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int

	// HonestTransmissions counts transmissions by honest nodes.
	HonestTransmissions int

	// AdversarialTransmissions counts transmissions by the adversary
	// (after budget clipping).
	AdversarialTransmissions int

	// Collisions counts channel-rounds in which two or more participants
	// transmitted.
	Collisions int

	// SpoofDeliveries counts deliveries whose unique transmitter was the
	// adversary, i.e. rounds in which a spoofed message actually reached
	// listeners' radios (whether any protocol accepted it is up to the
	// protocol).
	SpoofDeliveries int

	// TransportDrops counts channel-rounds on which the transport layer
	// erased traffic — injected socket loss or datagrams the real medium
	// lost. Always zero on the in-memory medium (Transport nil);
	// fault-plan drops are counted by the plan, not here.
	TransportDrops int
}

// Validation and runtime errors returned by Run.
var (
	// ErrCanceled reports that the run's context was canceled before the
	// protocol completed. The returned error also wraps the context's own
	// error, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) keep working up the stack.
	ErrCanceled = errors.New("radio: run canceled")

	// ErrTransport reports a transport-backend failure: Open failed, a
	// per-round Commit errored, the backend returned a malformed outcome,
	// or Close failed after an otherwise clean run.
	ErrTransport = errors.New("radio: transport failure")

	ErrMaxRounds    = errors.New("radio: protocol exceeded the configured round budget")
	ErrBadConfig    = errors.New("radio: invalid configuration")
	ErrBadAction    = errors.New("radio: node issued an invalid action")
	ErrCheckpoint   = errors.New("radio: checkpoint barrier mismatch")
	ErrProcessCount = errors.New("radio: number of processes must equal Config.N")
	ErrBadAdversary = errors.New("radio: adversary issued an invalid transmission")
	errNilProcess   = errors.New("radio: nil Process")
)

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("%w: N = %d, want > 0", ErrBadConfig, c.N)
	case c.C < 2:
		return fmt.Errorf("%w: C = %d, want >= 2", ErrBadConfig, c.C)
	case c.T < 0 || c.T >= c.C:
		return fmt.Errorf("%w: T = %d, want 0 <= T < C = %d", ErrBadConfig, c.T, c.C)
	case c.MaxRounds < 0:
		return fmt.Errorf("%w: MaxRounds = %d, want >= 0", ErrBadConfig, c.MaxRounds)
	}
	if c.Faults != nil && (c.Faults.N() != c.N || c.Faults.C() != c.C) {
		return fmt.Errorf("%w: fault plan compiled for n=%d, c=%d, network has N=%d, C=%d",
			ErrBadConfig, c.Faults.N(), c.Faults.C(), c.N, c.C)
	}
	return nil
}
