package securadio

import (
	"securadio/internal/adversary"
	"securadio/internal/core"
	"securadio/internal/fault"
	"securadio/internal/graph"
	"securadio/internal/radio"
	"securadio/internal/transport/udp"
)

// Pair is an ordered (sender, receiver) pair of node IDs — one entry of
// the AME set E.
type Pair = graph.Edge

// Interferer is the adversary interface of the radio model: it may
// transmit on up to t channels per round (jamming or spoofing) and
// observes everything after each round. See NewJammer, NewSpoofer and
// friends for ready-made strategies.
type Interferer = radio.Adversary

// Message is an arbitrary payload carried by the radio simulation.
type Message = radio.Message

// Regime selects the f-AME channel-usage strategy (the rows of the
// paper's Figure 3).
type Regime = core.Regime

// Channel regimes (re-exported from the core protocol).
const (
	// RegimeAuto picks the fastest regime the spectrum supports.
	RegimeAuto = core.RegimeAuto
	// RegimeBase uses t+1 channels: O(|E| t^2 log n).
	RegimeBase = core.RegimeBase
	// Regime2T uses 2t channels: O(|E| log n).
	Regime2T = core.Regime2T
	// Regime2T2 uses C/t channels with parallel feedback: O(|E| log^2 n / t).
	Regime2T2 = core.Regime2T2
)

// Network describes the simulated radio network: n nodes, C channels, an
// adversary budget of t channels per round, a deterministic seed, and an
// optional interferer.
type Network struct {
	// N is the number of honest nodes.
	N int
	// C is the number of channels (C >= 2).
	C int
	// T is the adversary budget (0 <= T < C). The paper's headline case
	// is C = T+1, the minimum spectrum on which communication is possible.
	T int
	// Seed drives all randomness; runs are reproducible.
	Seed int64
	// Adversary is the interferer; nil means no interference.
	Adversary Interferer
}

// Transport abstracts the physical layer of the radio model: the engine
// keeps the round lock-step, validation and the adversary budget, and
// the transport resolves what each channel actually carried — in memory
// (the default) or over real sockets. Install one on a Runner with
// WithTransport; NewUDPTransport builds the socket backend. Determinism
// over a real medium is weaker than in memory: injected degradation is
// a pure function of (seed, round, channel, origin) and reproduces
// exactly, while datagrams the medium genuinely loses are environmental
// and surface in the reports' FaultDrops rather than silently skewing
// results.
type Transport = radio.Transport

// UDPConfig tunes the socket-backed transport: injected datagram-loss
// probability, jam windows, the receive-window cutoff, and the socket
// buffer size. The zero value is a lossless, jam-free medium.
type UDPConfig = udp.Config

// UDPJamWindow jams one channel for a half-open round interval (see
// UDPConfig.Jam).
type UDPJamWindow = udp.JamWindow

// NewUDPTransport returns the socket-backed Transport: every logical
// channel becomes one UDP socket on 127.0.0.1, each committed
// transmission one datagram. The returned error matches ErrBadParams
// semantics for malformed tuning (loss outside [0, 1], negative window,
// inverted jam interval).
func NewUDPTransport(cfg UDPConfig) (Transport, error) {
	t, err := udp.New(cfg)
	if err != nil {
		return nil, &ParamError{Op: "configure udp transport", Err: err}
	}
	return t, nil
}

// FaultProfile declares deterministic environmental fault injection:
// node-churn fractions (crash, crash-recover, late-join) and an optional
// Gilbert-Elliott burst-loss channel model. Install one on a Runner with
// WithFaults; fleet scenarios carry the same type. The zero profile
// injects nothing and selects the engine's exact fault-free code path.
type FaultProfile = fault.Profile

// LossModel is the two-state Gilbert-Elliott burst-loss channel model of
// a FaultProfile: per-round good/bad Markov transitions with distinct
// drop probabilities per state, optionally correlated across channels.
type LossModel = fault.LossModel

// NewLossModel returns a canonical bursty LossModel whose stationary
// loss rate is approximately rate (clamped to the model's feasible
// range): drops concentrate in bad bursts a few rounds long rather than
// spreading uniformly.
func NewLossModel(rate float64) LossModel { return *fault.DefaultLoss(rate) }

// NewFaultProfile derives a FaultProfile from two scalar intensities in
// [0, 1]: churn is split across crash, crash-recover and late-join
// fractions, and loss selects NewLossModel(loss). Either intensity may
// be zero to disable that fault family.
func NewFaultProfile(churn, loss float64) FaultProfile { return fault.FromFractions(churn, loss) }

// ExchangeReport summarizes a Runner.Exchange or ExchangeCompact run.
type ExchangeReport struct {
	// Delivered maps each successful pair to the authentic payload its
	// destination output.
	Delivered map[Pair]Message

	// Failed lists the pairs that output fail. The minimum vertex cover
	// of the failed set is at most t (Definition 1, Theorem 6).
	Failed []Pair

	// DisruptionCover is that minimum vertex cover size.
	DisruptionCover int

	// Rounds is the number of radio rounds consumed.
	Rounds int

	// GameRounds is the number of starred-edge-removal moves simulated.
	GameRounds int

	// FaultDrops, NodesLost and DegradedRounds report the injected-fault
	// degradation when the Runner was built WithFaults (all zero
	// otherwise): deliveries destroyed by channel loss or churn silence,
	// nodes scheduled to crash for good, and rounds the fault layer
	// perturbed.
	FaultDrops     int
	NodesLost      int
	DegradedRounds int
}

// GroupKeyReport summarizes a Runner.GroupKey run.
type GroupKeyReport struct {
	// Keys holds each node's adopted group key (nil for the at-most-t
	// nodes that correctly identified their lack of knowledge).
	Keys []*[32]byte

	// Leader is the leader whose key won.
	Leader int

	// Agreed is the number of nodes holding the winning key (at least
	// n-t with high probability).
	Agreed int

	// Rounds is the number of radio rounds consumed (Theta(n t^3 log n)).
	Rounds int

	// FaultDrops, NodesLost and DegradedRounds report the injected-fault
	// degradation when the Runner was built WithFaults (all zero
	// otherwise); see ExchangeReport.
	FaultDrops     int
	NodesLost      int
	DegradedRounds int
}

// --- adversary constructors ---

// NewJammer returns a model-compliant adversary that jams t random
// channels each round.
func NewJammer(net Network, seed int64) Interferer {
	return adversary.NewRandomJammer(net.T, net.C, seed)
}

// NewSweepJammer returns a deterministic scanning jammer.
func NewSweepJammer(net Network) Interferer {
	return &adversary.SweepJammer{T: net.T, C: net.C}
}

// NewWorstCaseJammer returns the omniscient greedy jammer used for
// worst-case protocol stress. It inspects the honest nodes' current-round
// actions (strictly stronger than the paper's model) and always jams the
// most damaging t channels.
func NewWorstCaseJammer(net Network) Interferer {
	return &adversary.GreedyJammer{T: net.T, C: net.C}
}

// NewSpoofer returns an adversary that injects forged payloads produced by
// forge on idle channels with listeners.
func NewSpoofer(net Network, forge func(round int) Message) Interferer {
	return &adversary.IdleSpoofer{T: net.T, C: net.C, Forge: forge}
}

// NewReplayer returns an adversary that records overheard messages and
// replays them.
func NewReplayer(net Network, seed int64) Interferer {
	return adversary.NewReplaySpoofer(net.T, net.C, seed)
}

// NewBurstJammer returns a bursty on/off jammer with the default duty
// cycle: t random channels jammed for a fixed burst window, then an equal
// silence window, modeling duty-cycled interference. It delegates to the
// fleet registry's "burst" strategy, so single runs and campaigns agree on
// what "burst" means by construction.
func NewBurstJammer(net Network, seed int64) Interferer {
	return mustAdversary("burst", net, seed)
}

// NewHopJammer returns an adaptive channel-hopping jammer that tracks the
// historically busiest channels using only completed-round observations
// (fully model-compliant). It delegates to the fleet registry's "hop"
// strategy.
func NewHopJammer(net Network, seed int64) Interferer {
	return mustAdversary("hop", net, seed)
}

// NewComboAdversary returns the layered jam + replay composite: random
// jamming and replay spoofing share the t-transmission budget, with
// per-round priority rotation so both layers get airtime even at t=1. It
// delegates to the fleet registry's "combo" strategy, so single runs and
// campaigns agree on what "combo" means by construction.
func NewComboAdversary(net Network, seed int64) Interferer {
	return mustAdversary("combo", net, seed)
}

// mustAdversary builds a registry strategy known to exist.
func mustAdversary(name string, net Network, seed int64) Interferer {
	adv, err := NewAdversary(name, net, seed)
	if err != nil {
		panic(err) // unreachable: the name is registered
	}
	return adv
}
