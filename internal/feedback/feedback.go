// Package feedback implements the communication-feedback routine of
// Section 5.3 (Figure 1) and its parallel-prefix variant for the C >= 2t^2
// regime of Section 5.5.
//
// After a transmission round, each monitored channel has a set of
// "witnesses" that all observed the same outcome (message or silence) on
// that channel. communication-feedback lets every node in the network
// agree, with high probability, on the per-channel outcome bits: for each
// monitored channel in turn, its witnesses occupy all C channels in rank
// order and broadcast their flag; everyone else listens on random
// channels. Because every channel carries an honest witness broadcast,
// the adversary cannot spoof feedback — it can only jam t of the C
// channels, and a random listener evades it with probability (C-t)/C per
// round.
package feedback

import (
	"errors"
	"fmt"
	"math"

	"securadio/internal/bitset"
	"securadio/internal/radio"
)

// DefaultKappa is the default repetition multiplier; it corresponds to the
// constant hidden in the paper's Theta(C/(C-t) * log n) repetition count.
const DefaultKappa = 3.0

// Msg is a feedback broadcast: either <false> (True unset, Channel
// ignored) or <true, channel>.
type Msg struct {
	True    bool
	Channel int
}

// MergeMsg is the knowledge vector exchanged by witness groups during the
// parallel-prefix merge: for every monitored channel, whether the sender's
// group knows its flag and what the flag is.
type MergeMsg struct {
	Known []bool
	Flags []bool
}

// Validation errors.
var (
	ErrBadWitnesses = errors.New("feedback: invalid witness assignment")
)

// Reps returns the per-channel repetition count ceil(kappa * C/(C-t) *
// log2(n)), at least 1. With C = t+1 this is Theta(t log n); with C >= 2t
// it is Theta(log n) (Lemma 5 and Section 5.5).
func Reps(n, c, t int, kappa float64) int {
	if kappa <= 0 {
		kappa = DefaultKappa
	}
	logN := math.Log2(float64(n))
	if logN < 1 {
		logN = 1
	}
	r := int(math.Ceil(kappa * float64(c) / float64(c-t) * logN))
	if r < 1 {
		r = 1
	}
	return r
}

// MergeReps returns the repetition count for one parallel-merge sub-phase:
// ceil(kappa * 2 * log2(n)), reflecting the >= 1/2 per-round success
// probability inside a 2t-channel band.
func MergeReps(n int, kappa float64) int {
	if kappa <= 0 {
		kappa = DefaultKappa
	}
	logN := math.Log2(float64(n))
	if logN < 1 {
		logN = 1
	}
	r := int(math.Ceil(kappa * 2 * logN))
	if r < 1 {
		r = 1
	}
	return r
}

// Rounds returns the total number of rounds consumed by Run for the given
// number of monitored channels.
func Rounds(monitored, reps int) int { return monitored * reps }

// Scratch is one node's reusable working memory for Run and RunParallel:
// the set of witnesses the witness-assignment check has seen, a bitset
// that every call clears and refills. The zero value is ready to use. A
// Scratch is not safe for concurrent use; each node owns its own.
type Scratch struct {
	seen bitset.Set
}

// validate checks that every witness set has exactly `size` distinct
// members in [0, n) and that no node witnesses two channels. It also
// returns node me's (channel, rank) in the assignment, or (-1, -1).
func (s *Scratch) validate(witnesses [][]int, n, size, me int) (channel, rank int, err error) {
	channel, rank = -1, -1
	s.seen = bitset.Sized(s.seen, n)
	for c, ws := range witnesses {
		if len(ws) != size {
			return -1, -1, fmt.Errorf("%w: channel %d has %d witnesses, want %d",
				ErrBadWitnesses, c, len(ws), size)
		}
		for r, w := range ws {
			if w < 0 || w >= n {
				return -1, -1, fmt.Errorf("%w: witness %d out of range", ErrBadWitnesses, w)
			}
			if s.seen.Get(w) {
				prev, _ := membership(witnesses, w)
				return -1, -1, fmt.Errorf("%w: node %d witnesses both channel %d and %d",
					ErrBadWitnesses, w, prev, c)
			}
			s.seen.Add(w)
			if w == me {
				channel, rank = c, r
			}
		}
	}
	return channel, rank, nil
}

// membership returns (channel, rank) of the node in the witness
// assignment, or (-1, -1).
func membership(witnesses [][]int, id int) (channel, rank int) {
	for c, ws := range witnesses {
		for r, w := range ws {
			if w == id {
				return c, r
			}
		}
	}
	return -1, -1
}

// Run executes communication-feedback (Figure 1). witnesses[i] lists, in
// rank order, the witness nodes for monitored channel i; every set must
// have exactly C members (one per physical channel) and the sets must be
// disjoint. myFlag is this node's flag and is meaningful only if the node
// is a witness; per the routine's precondition, all witnesses of a channel
// hold the same flag.
//
// Every node must call Run in the same round with the same witness
// assignment. The call consumes exactly len(witnesses)*reps rounds on
// every node and returns the agreed per-channel flags.
func Run(env radio.Env, witnesses [][]int, myFlag bool, reps int) ([]bool, error) {
	return new(Scratch).Run(env, witnesses, myFlag, reps)
}

// Run is the package-level Run on the node's own scratch: after the
// node's first call, checking the witness assignment allocates nothing.
func (s *Scratch) Run(env radio.Env, witnesses [][]int, myFlag bool, reps int) ([]bool, error) {
	myChannel, myRank, err := s.validate(witnesses, env.N(), env.C(), env.ID())
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("%w: reps = %d", ErrBadWitnesses, reps)
	}
	d := make([]bool, len(witnesses))

	for r := range witnesses {
		// A witness for r sends the same message on every repetition, so
		// it is boxed once.
		var mine radio.Message
		switch {
		case myChannel == r && !myFlag:
			// Witness for r with a false flag: occupy my rank channel
			// with <false> so the adversary cannot spoof a <true, r>.
			mine = Msg{}
		case myChannel == r && myFlag:
			d[r] = true
			mine = Msg{True: true, Channel: r}
		}
		for i := 0; i < reps; i++ {
			if mine != nil {
				env.Transmit(myRank, mine)
				continue
			}
			// Not a witness for r: listen on a random channel.
			k := env.Rand().Intn(env.C())
			if m, ok := env.Listen(k).(Msg); ok && m.True && m.Channel == r {
				d[r] = true
			}
		}
	}
	return d, nil
}
