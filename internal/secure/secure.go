// Package secure implements the long-lived communication service of
// Section 7: once a shared group key exists (Section 6), the nodes emulate
// a reliable, secret, authenticated broadcast channel on top of the jammed
// spectrum.
//
// The group key seeds a pseudo-random channel-hopping pattern that the
// adversary cannot predict, so in each real round the adversary's t jams
// miss the group's channel with probability at least 1/(t+1). One
// *emulated* round spans Theta(t log n) real rounds: a broadcaster repeats
// its encrypted, authenticated message on every hop; listeners accumulate
// hops and verify. Guarantees (each measured by the package tests and the
// E9 experiment): t-reliability, secrecy, and authentication within the
// honest group — the adversary holds no group key, so its injections fail
// authentication, and replays are rejected by the emulated-round nonce.
package secure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"securadio/internal/feedback"
	"securadio/internal/radio"
	"securadio/internal/wcrypto"
)

// Params configures the channel emulation.
type Params struct {
	// N, C, T mirror the radio network parameters.
	N, C, T int

	// Kappa is the whp multiplier for the emulated-round length;
	// non-positive selects feedback.DefaultKappa.
	Kappa float64
}

// ErrBadParams reports an invalid configuration.
var ErrBadParams = errors.New("secure: invalid parameters")

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N <= 0 || p.C < 2 || p.T < 0 || p.T >= p.C {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// SlotRounds returns the number of real rounds per emulated round:
// ceil(kappa * (t+1) * log2 n) — the Theta(t log n) of Section 7.
func (p Params) SlotRounds() int {
	kappa := p.Kappa
	if kappa <= 0 {
		kappa = feedback.DefaultKappa
	}
	logN := math.Log2(float64(p.N))
	if logN < 1 {
		logN = 1
	}
	r := int(math.Ceil(kappa * float64(p.T+1) * logN))
	if r < 1 {
		r = 1
	}
	return r
}

// Received is one authenticated message delivered by the emulated channel.
type Received struct {
	Sender  int
	EmRound int
	Body    []byte
}

// Channel is one node's handle on the emulated broadcast channel. It is
// bound to the node's Env and the shared group key; all group members must
// step their channels in lock-step.
type Channel struct {
	env     radio.Env
	p       Params
	sealer  *wcrypto.Sealer
	hopper  *wcrypto.Hopper
	nonce   [16]byte // frame nonce scratch: Seal copies it into the frame
	emRound int
}

// Attach binds an emulated channel to a node's Env using the shared group
// key. Nodes without the key cannot participate (their hops diverge and
// their transmissions fail authentication) — exactly the paper's exclusion
// of up to t disrupted nodes.
func Attach(env radio.Env, p Params, key wcrypto.Key) (*Channel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Channel{
		env:    env,
		p:      p,
		sealer: wcrypto.NewSealer(key),
		hopper: wcrypto.NewHopper(key, "longlived", p.C),
	}, nil
}

// EmRound returns the index of the next emulated round.
func (ch *Channel) EmRound() int { return ch.emRound }

// Step executes one emulated round. A nil body means listen-only; a
// non-nil body is broadcast to the whole group. It returns the
// authenticated messages received this emulated round (at most one per
// sender; when several group members broadcast simultaneously the emulated
// channel may — like a real broadcast channel — deliver some or none of
// them).
func (ch *Channel) Step(body []byte) []Received {
	slot := ch.p.SlotRounds()
	em := ch.emRound
	ch.emRound++

	var out []Received
	seen := make(map[int]bool)
	for i := 0; i < slot; i++ {
		hop := ch.hopper.Channel(uint64(em)*uint64(slot) + uint64(i))
		if body != nil {
			ch.env.Transmit(hop, ch.seal(em, body))
			continue
		}
		msg := ch.env.Listen(hop)
		if r, ok := ch.open(em, msg); ok && !seen[r.Sender] {
			seen[r.Sender] = true
			out = append(out, r)
		}
	}
	return out
}

// seal builds the on-air frame: Seal(key, nonce = (emRound, sender),
// plaintext = body). Binding the emulated round into the nonce defeats
// replay across emulated rounds; binding the sender authenticates origin
// within the honest group.
func (ch *Channel) seal(em int, body []byte) []byte {
	putFrameNonce(ch.nonce[:], em, ch.env.ID())
	return ch.sealer.Seal(ch.nonce[:], body)
}

// open validates a frame against the current emulated round.
func (ch *Channel) open(em int, msg radio.Message) (Received, bool) {
	ct, ok := msg.([]byte)
	if !ok {
		return Received{}, false
	}
	body, nonce, err := ch.sealer.Open(16, ct)
	if err != nil {
		return Received{}, false
	}
	gotEm := int(binary.BigEndian.Uint64(nonce[:8]))
	sender := int(binary.BigEndian.Uint64(nonce[8:]))
	if gotEm != em || sender < 0 || sender >= ch.p.N {
		return Received{}, false // stale replay or garbage
	}
	return Received{Sender: sender, EmRound: em, Body: body}, true
}

// putFrameNonce writes the frame nonce (emulated round, sender) into nonce.
func putFrameNonce(nonce []byte, em, sender int) {
	binary.BigEndian.PutUint64(nonce[:8], uint64(em))
	binary.BigEndian.PutUint64(nonce[8:], uint64(sender))
}
