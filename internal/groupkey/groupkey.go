// Package groupkey implements Section 6 of the paper: establishing a
// secret group key shared by all but at most t nodes, with no pre-shared
// secrets and no trusted infrastructure, in Theta(n t^3 log n) rounds.
//
// The protocol has three parts:
//
//  1. Pairwise keys. The t+1 lowest-numbered nodes act as leaders; f-AME
//     runs on the (t+1)-leader spanner (every ordered pair touching a
//     leader) carrying Diffie-Hellman public values. Every pair whose two
//     directions both survived derives a shared pairwise key.
//  2. Leader-key dissemination. A leader that reached at least n-1-t
//     partners is *complete* and picks a leader key. Every (leader,
//     node) pair gets an epoch of Theta(t log n) rounds in which the
//     leader repeatedly transmits its (encrypted, authenticated) leader
//     key on a channel-hopping pattern derived from the pairwise key —
//     unknown to the adversary, so each round evades jamming with
//     probability at least 1/(t+1).
//  3. Agreement. 2t+1 designated non-leader reporters each get an epoch
//     of Theta(t^2 log n) rounds to broadcast the smallest leader they
//     hold a key for, together with that key's hash. A node adopts the
//     smallest leader for which it verified t+1 distinct reporters — and
//     since the smallest complete leader is reported by at least t+1
//     honest reporters and incomplete leaders' hashes are unforgeable
//     (their keys never circulate), all n-t key holders converge.
package groupkey

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"

	"securadio/internal/core"
	"securadio/internal/fault"
	"securadio/internal/feedback"
	"securadio/internal/graph"
	"securadio/internal/radio"
	"securadio/internal/wcrypto"
)

// Params configures group-key establishment.
type Params struct {
	// N, C, T mirror the radio network parameters.
	N, C, T int

	// Kappa is the whp repetition multiplier shared by f-AME feedback and
	// the dissemination epochs; non-positive selects feedback.DefaultKappa.
	Kappa float64

	// Group is the Diffie-Hellman group; zero value selects
	// wcrypto.DefaultGroup.
	Group wcrypto.DHGroup

	// Regime forwards to the underlying f-AME execution.
	Regime core.Regime

	// Trace, when non-nil, streams every round's observation out of the
	// underlying radio run (see radio.Config.Trace). Purely observational.
	Trace func(radio.RoundObservation)

	// Faults, when non-nil, forwards a compiled fault plan to the radio
	// engine (node churn and channel loss; see internal/fault). A churned
	// node simply ends setup keyless — the same tolerated, quorum-counted
	// outcome as a node the agreement phase excluded.
	Faults *fault.Plan

	// Transport, when non-nil, routes the run's physical layer through a
	// pluggable backend (see radio.Transport). nil selects the native
	// in-memory medium.
	Transport radio.Transport
}

// ErrBadParams reports an invalid configuration.
var ErrBadParams = errors.New("groupkey: invalid parameters")

func (p Params) group() wcrypto.DHGroup {
	if p.Group.P == nil {
		return wcrypto.DefaultGroup
	}
	return p.Group
}

func (p Params) kappa() float64 {
	if p.Kappa <= 0 {
		return feedback.DefaultKappa
	}
	return p.Kappa
}

func (p Params) fameParams() core.Params {
	return core.Params{N: p.N, C: p.C, T: p.T, Kappa: p.Kappa, Regime: p.Regime}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	fp := p.fameParams()
	if err := fp.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	if p.N < 3*p.T+2 {
		return fmt.Errorf("%w: need n >= 3t+2 for the reporter set (n=%d t=%d)", ErrBadParams, p.N, p.T)
	}
	return nil
}

// Leaders returns the leader set: the t+1 lowest node IDs.
func (p Params) Leaders() []int {
	out := make([]int, p.T+1)
	for i := range out {
		out[i] = i
	}
	return out
}

// Reporters returns the 2t+1 lowest-numbered non-leaders (the set S of
// Part 3).
func (p Params) Reporters() []int {
	out := make([]int, 2*p.T+1)
	for i := range out {
		out[i] = p.T + 1 + i
	}
	return out
}

// Part2EpochRounds returns the per-pair epoch length of Part 2:
// ceil(kappa * (t+1) * log2 n).
func (p Params) Part2EpochRounds() int {
	r := int(math.Ceil(p.kappa() * float64(p.T+1) * logN(p.N)))
	if r < 1 {
		r = 1
	}
	return r
}

// Part3EpochRounds returns the per-reporter epoch length of Part 3:
// ceil(kappa * (t+1)^2 * log2 n).
func (p Params) Part3EpochRounds() int {
	r := int(math.Ceil(p.kappa() * float64((p.T+1)*(p.T+1)) * logN(p.N)))
	if r < 1 {
		r = 1
	}
	return r
}

func logN(n int) float64 {
	l := math.Log2(float64(n))
	if l < 1 {
		return 1
	}
	return l
}

// dhMsg carries one party's Diffie-Hellman public value through f-AME.
type dhMsg struct {
	From int
	Pub  *big.Int
}

// leaderKeyMsg is the Part 2 plaintext.
const incompleteMarker = "incomplete"

// Report is the Part 3 broadcast: reporter claims to hold leader Leader's
// key with the given hash. Reports are deliberately unauthenticated — the
// agreement rule has to survive forged ones.
type Report struct {
	Reporter int
	Leader   int
	Hash     [32]byte
}

// NodeResult is one node's outcome.
type NodeResult struct {
	// GroupKey is the adopted group key; nil when the node ended without
	// one (it "correctly identifies its lack of knowledge").
	GroupKey *wcrypto.Key

	// Leader is the adopted leader's ID, or -1.
	Leader int

	// PairKeys holds this node's established pairwise keys (by peer).
	PairKeys map[int]wcrypto.Key

	// LeaderKeys holds the leader keys received in Part 2 (by leader).
	LeaderKeys map[int]wcrypto.Key

	// Complete reports, for a leader node, whether it considered itself
	// complete.
	Complete bool

	// Err reports a local failure.
	Err error
}

// KeyHolders counts the nodes that finished setup holding the group key.
// It is the single quorum-counting rule shared by the fleet secure-group
// path and the public Runner.SecureGroup: a node that failed setup
// locally (NodeResult.Err != nil) is simply keyless — tolerated like a
// node the agreement phase excluded — and a run fails only when fewer
// than n-t nodes hold the key. Keeping both paths on this one function is
// what pins them to identical quorum behavior.
func KeyHolders(results []NodeResult) int {
	holders := 0
	for i := range results {
		if results[i].GroupKey != nil {
			holders++
		}
	}
	return holders
}

// Proc returns the node program. All nodes must start it simultaneously.
func Proc(p Params, out *NodeResult) radio.Process {
	return func(env radio.Env) {
		RunNode(env, p, out)
	}
}

// RunNode executes the protocol inline on an Env (for composition with the
// long-lived channel of Section 7).
func RunNode(env radio.Env, p Params, out *NodeResult) {
	me := env.ID()
	out.Leader = -1
	out.PairKeys = make(map[int]wcrypto.Key)
	out.LeaderKeys = make(map[int]wcrypto.Key)

	if err := p.Validate(); err != nil {
		out.Err = err
		return
	}
	leaders := p.Leaders()
	isLeader := me <= p.T

	// --- Part 1: pairwise keys over the leader spanner ---
	kp := wcrypto.GenerateDH(p.group(), env.Rand())
	spanner := graph.LeaderSpanner(p.N, leaders)
	myValues := make(map[int]radio.Message)
	for _, e := range spanner {
		if e.Src == me {
			myValues[e.Dst] = dhMsg{From: me, Pub: kp.Public}
		}
	}
	var fameOut core.Result
	core.Run(env, p.fameParams(), spanner, myValues, &fameOut)
	if fameOut.Err != nil {
		out.Err = fmt.Errorf("groupkey: part 1: %w", fameOut.Err)
		return
	}
	// Lock-step barrier: any desynchronization between replicas fails
	// loudly here instead of silently corrupting the epochs below.
	env.Checkpoint("groupkey/part1")

	// A pair's key exists iff both directions survived; the disruption
	// graph is common knowledge, so both endpoints agree.
	failed := make(map[graph.Edge]bool, len(fameOut.Failed))
	for _, e := range fameOut.Failed {
		failed[e] = true
	}
	established := func(a, b int) bool {
		return !failed[graph.Edge{Src: a, Dst: b}] && !failed[graph.Edge{Src: b, Dst: a}]
	}
	for _, e := range spanner {
		if e.Dst != me || !established(e.Src, me) {
			continue
		}
		msg, ok := fameOut.Delivered[e].(dhMsg)
		if !ok || msg.From != e.Src {
			continue // malformed (cannot happen inside the model)
		}
		key, err := kp.SharedKey(msg.Pub, me, e.Src)
		if err != nil {
			continue
		}
		out.PairKeys[e.Src] = key
	}

	// --- Part 2: leader-key dissemination ---
	var myLeaderKey wcrypto.Key
	if isLeader {
		out.Complete = len(out.PairKeys) >= p.N-1-p.T
		if out.Complete {
			// Draw the leader key from the node's private randomness.
			var buf [wcrypto.KeySize]byte
			for i := range buf {
				buf[i] = byte(env.Rand().Intn(256))
			}
			myLeaderKey = wcrypto.KeyFromBytes("leader-key", buf[:])
			out.LeaderKeys[me] = myLeaderKey
		}
	}

	plain := []byte(incompleteMarker) // this node's Part 2 plaintext as a sender
	if out.Complete {
		plain = append([]byte("key:"), myLeaderKey[:]...)
	}
	epochLen := p.Part2EpochRounds()
	epoch := 0
	for _, l := range leaders {
		for w := 0; w < p.N; w++ {
			if w == l {
				continue
			}
			iAmSender := me == l
			iAmReceiver := me == w
			if !iAmSender && !iAmReceiver {
				env.SleepFor(epochLen)
				epoch++
				continue
			}
			peer := l
			if iAmSender {
				peer = w
			}
			pairKey, ok := out.PairKeys[peer]
			if !ok {
				env.SleepFor(epochLen) // no shared secret: stay silent
				epoch++
				continue
			}
			hopper := wcrypto.NewHopper(pairKey, fmt.Sprintf("part2/%d", epoch), p.C)
			sealer := wcrypto.NewSealer(pairKey)
			for i := 0; i < epochLen; i++ {
				ch := hopper.Channel(uint64(i))
				if iAmSender {
					env.Transmit(ch, sealEpoch(sealer, epoch, i, plain))
					continue
				}
				body, ok := openEpoch(sealer, epoch, i, env.Listen(ch))
				if !ok {
					continue
				}
				if len(body) == len("key:")+wcrypto.KeySize && string(body[:4]) == "key:" {
					var k wcrypto.Key
					copy(k[:], body[4:])
					out.LeaderKeys[l] = k
				}
			}
			epoch++
		}
	}

	env.Checkpoint("groupkey/part2")

	// --- Part 3: agreement ---
	reporters := p.Reporters()
	epoch3 := p.Part3EpochRounds()
	// All distinct reports are retained: keying by the full (leader,
	// reporter, hash) triple means a forged report can never shadow an
	// honest reporter's genuine one, it can only sit uselessly beside it.
	reportsSeen := make(map[Report]bool)
	record := func(r Report) {
		if r.Leader < 0 || r.Leader > p.T || r.Reporter < 0 || r.Reporter >= p.N {
			return
		}
		reportsSeen[r] = true
	}
	for _, reporter := range reporters {
		if me == reporter {
			j, ok := smallestLeaderKey(out.LeaderKeys)
			if !ok {
				env.SleepFor(epoch3)
				continue
			}
			k := out.LeaderKeys[j]
			rep := Report{Reporter: me, Leader: j, Hash: wcrypto.Hash("leader-key-hash", k[:])}
			record(rep)
			for i := 0; i < epoch3; i++ {
				env.Transmit(env.Rand().Intn(p.C), rep)
			}
			continue
		}
		for i := 0; i < epoch3; i++ {
			if rep, ok := env.Listen(env.Rand().Intn(p.C)).(Report); ok {
				record(rep)
			}
		}
	}

	// Adoption rule: smallest leader with >= t+1 distinct verifiable
	// reporters whose hash matches a leader key this node actually holds.
	for l := 0; l <= p.T; l++ {
		k, holds := out.LeaderKeys[l]
		if !holds {
			continue
		}
		wantHash := wcrypto.Hash("leader-key-hash", k[:])
		verifiedReporters := make(map[int]bool)
		for rep := range reportsSeen {
			if rep.Leader == l && rep.Hash == wantHash {
				verifiedReporters[rep.Reporter] = true
			}
		}
		verified := len(verifiedReporters)
		if verified >= p.T+1 {
			key := k
			out.GroupKey = &key
			out.Leader = l
			break
		}
	}
}

func smallestLeaderKey(keys map[int]wcrypto.Key) (int, bool) {
	best, found := -1, false
	for l := range keys {
		if !found || l < best {
			best, found = l, true
		}
	}
	return best, found
}

// sealEpoch / openEpoch bind Part 2 ciphertexts to their epoch and round,
// defeating cross-epoch replay. The sealer holds the epoch's pairwise key.
func sealEpoch(s *wcrypto.Sealer, epoch, round int, plain []byte) []byte {
	nonce := epochNonce(epoch, round)
	return s.Seal(nonce[:], plain)
}

func openEpoch(s *wcrypto.Sealer, epoch, round int, msg radio.Message) ([]byte, bool) {
	ct, ok := msg.([]byte)
	if !ok {
		return nil, false
	}
	body, nonce, err := s.Open(16, ct)
	if err != nil {
		return nil, false
	}
	want := epochNonce(epoch, round)
	for i := range want {
		if nonce[i] != want[i] {
			return nil, false
		}
	}
	return body, true
}

func epochNonce(epoch, round int) [16]byte {
	var nonce [16]byte
	binary.BigEndian.PutUint64(nonce[:8], uint64(epoch))
	binary.BigEndian.PutUint64(nonce[8:], uint64(round))
	return nonce
}
