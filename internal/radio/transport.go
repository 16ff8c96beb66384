package radio

// Transport abstracts the physical layer of the radio model: the engine
// keeps the round lock-step, action validation, fault churn and the
// adversary budget, and hands each round's committed transmissions to the
// transport, which resolves what every channel actually carried.
// Config.Transport == nil selects the native in-memory medium — the
// engine's own sparse resolution core, unchanged and allocation-free — so
// existing callers never pay for the indirection.
//
// A Transport's contract, per round:
//
//   - Commit is called exactly once per resolved round, in round order,
//     from the goroutine that called Run, even when the round carries no
//     transmissions (a real medium can still degrade an idle round, and
//     multi-process backends use the per-round Commit as their
//     synchronization beacon);
//   - the txs slice is engine-owned and valid only during the call;
//   - the returned outcomes slice is transport-owned and valid until the
//     next Commit or Close; it must contain at most one entry per
//     channel, each channel in [0, C);
//   - exactly-one-transmitter semantics are the transport's to enforce:
//     Msg must be nil unless the medium resolved a single uncontested,
//     undropped transmission on the channel.
//
// Determinism over a real medium is necessarily weaker than in memory:
// injected loss and jamming must be pure functions of (seed, round,
// channel, origin) so seeded runs reproduce, but datagrams genuinely
// lost or delayed past the receive window are environmental and may vary
// between invocations. Backends expose such events through
// ChannelOutcome.Dropped so they surface in the degradation counters
// rather than silently skewing results.
type Transport interface {
	// Name identifies the backend in logs and reports (e.g. "mem", "udp").
	Name() string

	// Open binds the transport for one run. The engine calls Close on the
	// returned Conn when the run ends, on every path: completion, abort,
	// protocol error and context cancellation (including mid-round).
	Open(cfg Config) (Conn, error)
}

// Conn is one run's bound transport instance.
type Conn interface {
	// Commit resolves one round: it carries txs over the medium and
	// reports the per-channel outcome. An error aborts the run (wrapped
	// in ErrTransport).
	Commit(round int, txs []WireTx) ([]ChannelOutcome, error)

	// Close releases every resource the Conn holds — sockets, goroutines,
	// subprocess links. It must be idempotent, safe to call concurrently
	// with Commit, and must unblock a Commit in flight: mid-round
	// cancellation closes the Conn from the engine's context watcher and
	// the failed Commit tears the run down through the abort path.
	Close() error
}

// AdversaryOrigin is the WireTx.From value tagging an adversarial
// transmission; honest transmissions carry the node ID.
const AdversaryOrigin = -1

// WireTx is one committed transmission handed to the transport.
type WireTx struct {
	// From is the transmitting node's ID, or AdversaryOrigin.
	From int

	// Channel is the target channel in [0, C).
	Channel int

	// Msg is the payload. Transports carry the transmission envelope
	// (round, origin, channel) over the medium and resolve the payload
	// from the committing process's memory, so arbitrary simulation
	// Messages never need wire serialization.
	Msg Message
}

// ChannelOutcome is the medium's resolution of one channel for one round.
type ChannelOutcome struct {
	// Channel is the channel index in [0, C).
	Channel int

	// Transmitters is the number of transmissions the medium saw on the
	// channel (after real or injected datagram loss, so it may be lower
	// than the committed count).
	Transmitters int

	// From is the delivering origin (node ID or AdversaryOrigin) when
	// Transmitters == 1; undefined otherwise.
	From int

	// Msg is the delivered payload: non-nil exactly when a single
	// uncontested transmission survived the medium. Collisions, silence,
	// drops and jams all deliver nil.
	Msg Message

	// Dropped reports that at least one transmission on the channel was
	// erased at the transport layer this round (injected loss, or a
	// datagram lost on the real medium). Transmitters and Msg describe
	// the surviving traffic; Dropped feeds the engine's degradation
	// counters exactly like a fault-layer drop.
	Dropped bool

	// Faded reports that transport-layer interference (a jam window) had
	// the channel unusable this round, mirroring the fault layer's
	// bad-state fade mask.
	Faded bool
}

// Loopback returns the reference Transport: an in-process medium with the
// exact semantics of the native engine resolution (no loss, no jamming,
// no sockets). It exists to pin the engine's transport plumbing — a run
// over Loopback must be byte-identical to the same run with a nil
// Transport — and as the executable specification other backends are
// tested against.
func Loopback() Transport { return loopbackTransport{} }

type loopbackTransport struct{}

func (loopbackTransport) Name() string { return "loopback" }

func (loopbackTransport) Open(cfg Config) (Conn, error) {
	return &loopbackConn{c: cfg.C}, nil
}

// loopbackConn resolves rounds with the ResolveLocal reference resolver,
// reusing its outcome buffer across rounds.
type loopbackConn struct {
	c   int
	out []ChannelOutcome
}

func (lc *loopbackConn) Commit(round int, txs []WireTx) ([]ChannelOutcome, error) {
	lc.out = ResolveLocal(lc.out[:0], txs)
	return lc.out, nil
}

func (lc *loopbackConn) Close() error { return nil }

// ResolveLocal is the reference collision resolution shared by the
// in-process backends: it appends one ChannelOutcome per distinct channel
// in txs to out (exactly one transmitter delivers; zero or several do
// not) and returns the extended slice. Outcomes appear in first-touch
// order, which is deterministic because the engine commits transmissions
// in node-ID order with the adversary's last.
func ResolveLocal(out []ChannelOutcome, txs []WireTx) []ChannelOutcome {
	for _, tx := range txs {
		i := -1
		for j := range out {
			if out[j].Channel == tx.Channel {
				i = j
				break
			}
		}
		if i < 0 {
			out = append(out, ChannelOutcome{
				Channel: tx.Channel, Transmitters: 1, From: tx.From, Msg: tx.Msg,
			})
			continue
		}
		out[i].Transmitters++
		out[i].Msg = nil // collision
	}
	return out
}
