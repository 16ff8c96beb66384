package radio

// Transport abstracts the physical layer of the radio model: the engine
// keeps the round lock-step, action validation, fault churn and the
// adversary budget, and hands each round's committed transmissions to a
// Conn, which resolves what every channel actually carried. Every run
// resolves through a Conn: Config.Transport == nil binds the engine's
// built-in in-memory medium, an allocation-free Conn pooled with the rest
// of the engine scratch, and a configured Transport replaces it with its
// own.
//
// A Transport's contract, per round:
//
//   - Commit is called exactly once per resolved round, in round order,
//     from the goroutine that called Run, even when the round carries no
//     transmissions (a real medium can still degrade an idle round);
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

// Loopback returns the reference Transport: the engine's in-memory
// medium behind the Transport interface (no loss, no jamming, no
// sockets). A run over Loopback is byte-identical to the same run with a
// nil Transport, which pins the Open/Close plumbing, and its Conn is the
// executable specification other backends are tested against.
func Loopback() Transport { return loopbackTransport{} }

type loopbackTransport struct{}

func (loopbackTransport) Name() string { return "loopback" }

func (loopbackTransport) Open(cfg Config) (Conn, error) {
	m := new(memConn)
	m.reset(cfg.C)
	return m, nil
}

// memConn is the in-memory medium, the model's collision rule verbatim:
// a channel with exactly one transmission delivers it, one with zero or
// several delivers nothing. Outcomes appear in first-touch order, which is
// deterministic because the engine commits transmissions in node-ID order
// with the adversary's last.
//
// at maps each channel to 1 + the index of its outcome in out, or 0 when
// the channel is untouched this round, so Commit is O(transmissions). It
// is all-zero between calls: Commit unwinds exactly the entries it set.
type memConn struct {
	at  []int32
	out []ChannelOutcome
}

// reset readies m for a run over c channels and drops the payload
// references the previous run's outcomes held.
func (m *memConn) reset(c int) {
	m.at = sized(m.at, c)
	clear(m.out[:cap(m.out)])
	m.out = m.out[:0]
}

func (m *memConn) Commit(_ int, txs []WireTx) ([]ChannelOutcome, error) {
	at, out := m.at, m.out[:0]
	for i := range txs {
		tx := &txs[i]
		if j := at[tx.Channel]; j != 0 {
			out[j-1].Transmitters++
			out[j-1].Msg = nil // collision
			continue
		}
		out = append(out, ChannelOutcome{Channel: tx.Channel, Transmitters: 1, From: tx.From, Msg: tx.Msg})
		at[tx.Channel] = int32(len(out))
	}
	for i := range out {
		at[out[i].Channel] = 0
	}
	m.out = out
	return out, nil
}

func (m *memConn) Close() error { return nil }
