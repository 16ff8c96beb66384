package securadio

import (
	"securadio/internal/radio"
	"securadio/internal/secure"
)

// Delivery is one authenticated message received on the emulated secure
// channel.
type Delivery struct {
	// Sender is the authenticated group member that broadcast the message.
	Sender int
	// EmRound is the emulated round in which it was sent.
	EmRound int
	// Body is the plaintext payload.
	Body []byte
}

// Session is an application's per-node handle on the long-lived secure
// broadcast channel of Section 7. The SecureGroupApp receives one Session
// per node; all sessions advance in lock-step, one emulated round per
// Step call. An emulated round costs Theta(t log n) real radio rounds.
type Session interface {
	// ID returns this node's identifier.
	ID() int

	// N returns the group size.
	N() int

	// HasKey reports whether this node obtained the group key. Nodes
	// without the key (at most t of them) cannot send or receive; their
	// Step still consumes the same rounds to keep the network in
	// lock-step.
	HasKey() bool

	// Step executes one emulated round: a nil body listens, a non-nil
	// body broadcasts to the group. It returns the authenticated messages
	// received.
	Step(body []byte) []Delivery
}

// SecureGroupApp is the per-node application driven by Runner.SecureGroup.
// Every node's app must call Step the same number of times.
type SecureGroupApp func(s Session)

// SecureGroupReport summarizes a Runner.SecureGroup execution.
type SecureGroupReport struct {
	// KeyHolders is the number of nodes that obtained the group key
	// during setup (at least n-t whp).
	KeyHolders int

	// SetupErrors is the number of nodes whose setup failed locally with a
	// protocol-level error. Such nodes are keyless — tolerated exactly as
	// the fleet campaign path tolerates them — and the run fails (with an
	// error matching ErrSetupFailed) only when KeyHolders falls below n-t.
	SetupErrors int

	// SetupRounds is the number of radio rounds the Section 6 setup
	// consumed: the maximum across nodes, i.e. the true lock-step cost
	// the application pays before its first emulated round can start.
	SetupRounds int

	// SetupRoundsByNode is each node's own view of its setup cost,
	// indexed by node ID (SetupRounds is this slice's maximum).
	SetupRoundsByNode []int

	// TotalRounds is the complete run's radio round count.
	TotalRounds int

	// SlotRounds is the real-round cost of one emulated round.
	SlotRounds int

	// FaultDrops, NodesLost and DegradedRounds report the injected-fault
	// degradation when the Runner was built WithFaults (all zero
	// otherwise); see ExchangeReport.
	FaultDrops     int
	NodesLost      int
	DegradedRounds int
}

// session implements Session.
type session struct {
	env     radio.Env
	n       int
	ch      *secure.Channel
	slot    int
	emRound int
}

func (s *session) ID() int      { return s.env.ID() }
func (s *session) N() int       { return s.n }
func (s *session) HasKey() bool { return s.ch != nil }

func (s *session) Step(body []byte) []Delivery {
	s.emRound++
	if s.ch == nil {
		// Keyless nodes idle through the slot to stay in lock-step.
		s.env.SleepFor(s.slot)
		return nil
	}
	var out []Delivery
	for _, r := range s.ch.Step(body) {
		out = append(out, Delivery{Sender: r.Sender, EmRound: r.EmRound, Body: r.Body})
	}
	return out
}
