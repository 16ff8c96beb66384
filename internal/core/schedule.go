package core

import (
	"fmt"
	"slices"

	"securadio/internal/bitset"
	"securadio/internal/game"
)

// schedule is the deterministic per-move broadcast plan derived from a
// proposal. Every honest node computes an identical schedule from the
// shared game state (Invariant 1 of Theorem 6), which is what makes the
// protocol authenticated: each live channel carries exactly one scheduled
// honest broadcaster, so the adversary can collide with it but can never
// be mistaken for it.
//
// A node keeps one schedule for the whole run and rebuilds it in place
// every move, so the slices below (witness pools included) are only valid
// until the next build.
type schedule struct {
	items []game.Item

	// Per live channel i (= index of items):
	broadcaster []int // transmitting node
	vectorOwner []int // whose value vector is transmitted
	dest        []int // destination node, or -1 for node items
	witnesses   [][]int

	pool []int   // backing store of the witness pools
	fw   [][]int // feedbackWitnesses result

	// Per-node duties of the move being built.
	reserved  bitset.Set // proposal participants: node items, sources, destinations
	listening bitset.Set // edge destinations: they must listen this move
	assigned  bitset.Set // nodes transmitting this move
}

// live returns the number of live channels this move.
func (s *schedule) live() int { return len(s.items) }

// roleOf classifies a node's duty this move.
type role struct {
	kind    roleKind
	channel int
}

type roleKind int

const (
	roleIdle roleKind = iota + 1
	roleBroadcast
	roleDest
	roleWitness
)

func (s *schedule) roleOf(id int) role {
	for c := range s.items {
		if s.broadcaster[c] == id {
			return role{kind: roleBroadcast, channel: c}
		}
		if s.dest[c] == id {
			return role{kind: roleDest, channel: c}
		}
	}
	for c, ws := range s.witnesses {
		for _, w := range ws {
			if w == id {
				return role{kind: roleWitness, channel: c}
			}
		}
	}
	return role{kind: roleIdle}
}

// build derives the transmission-phase schedule for a proposal:
//
//   - item i is assigned live channel i (canonical order);
//   - a node item broadcasts its own vector;
//   - an edge item's source broadcasts directly when it is free this move;
//     if it is busy (it must listen as another edge's destination, or an
//     earlier edge already claimed it) the lowest-numbered free surrogate
//     from its recruitment set broadcasts instead (Section 5.4);
//   - each live channel then receives omega witnesses, assigned in
//     descending node order from the pool of uninvolved nodes.
//
// Witness assignment runs from the top of the ID space so that low
// node IDs — the ones experiment workloads give AME edges to — never pull
// double duty as witnesses; any deterministic rule shared by all nodes
// works, and this one keeps the adversarial-scheduling experiments sharp.
func (s *schedule) build(p Params, items []game.Item, surrogates map[int][]int) error {
	l := len(items)
	s.items = items
	s.broadcaster = slices.Grow(s.broadcaster[:0], l)[:l]
	s.vectorOwner = slices.Grow(s.vectorOwner[:0], l)[:l]
	s.dest = slices.Grow(s.dest[:0], l)[:l]
	s.witnesses = slices.Grow(s.witnesses[:0], l)[:l]
	s.reserved = bitset.Sized(s.reserved, p.N)
	s.listening = bitset.Sized(s.listening, p.N)
	s.assigned = bitset.Sized(s.assigned, p.N)

	// Reserve every proposal participant: node items, sources and
	// destinations. Reserved nodes never serve as witnesses or surrogates
	// this move.
	for _, it := range items {
		if it.IsEdge {
			s.reserved.Add(it.Edge.Src)
			s.reserved.Add(it.Edge.Dst)
			s.listening.Add(it.Edge.Dst)
		} else {
			s.reserved.Add(it.Node)
		}
	}

	for c, it := range items {
		if !it.IsEdge {
			v := it.Node
			s.broadcaster[c] = v
			s.vectorOwner[c] = v
			s.dest[c] = -1
			s.assigned.Add(v)
			continue
		}
		v, w := it.Edge.Src, it.Edge.Dst
		s.vectorOwner[c] = v
		s.dest[c] = w
		if !s.assigned.Get(v) && !s.listening.Get(v) {
			s.broadcaster[c] = v
			s.assigned.Add(v)
			continue
		}
		// The source is busy: recruit the lowest-numbered free surrogate.
		sur := -1
		for _, cand := range surrogates[v] {
			if !s.reserved.Get(cand) && !s.assigned.Get(cand) {
				sur = cand
				break
			}
		}
		if sur < 0 {
			return fmt.Errorf("%w: no free surrogate for starred source %d", ErrSchedule, v)
		}
		s.broadcaster[c] = sur
		s.assigned.Add(sur)
	}

	// Witnesses: omega per live channel, descending IDs, skipping every
	// node with a duty this move.
	omega := p.WitnessesPerChannel()
	s.pool = slices.Grow(s.pool[:0], l*omega)[:l*omega]
	next := p.N - 1
	for c := 0; c < l; c++ {
		ws := s.pool[c*omega : c*omega : (c+1)*omega]
		for len(ws) < omega && next >= 0 {
			if !s.reserved.Get(next) && !s.assigned.Get(next) {
				ws = append(ws, next)
			}
			next--
		}
		if len(ws) < omega {
			return fmt.Errorf("%w: ran out of witnesses (channel %d: %d of %d)",
				ErrSchedule, c, len(ws), omega)
		}
		s.witnesses[c] = ws
	}
	return nil
}

// recruits returns the recruitment set to record when the node item on
// live channel c is starred: a copy of the first 3L members of the
// channel's witness pool (L = p.LiveChannels()). When build later recruits
// a surrogate for the starred node, at most 3L-1 nodes are busy: the
// move's at most L items reserve at most two nodes each, and each earlier
// item recruited at most one surrogate. Its first-free scan therefore
// stops within the first 3L members, so the rest of the pool would never
// be read; this is the bound for which Params.WitnessesPerChannel sizes
// every pool at no less than 3L.
func (s *schedule) recruits(p Params, c int) []int {
	return slices.Clone(s.witnesses[c][:3*p.LiveChannels()])
}

// feedbackWitnesses trims the witness pools to the shape the feedback
// routine needs: exactly C members per monitored channel for the
// sequential routine, the full pool for the parallel one.
func (s *schedule) feedbackWitnesses(p Params) [][]int {
	if p.EffectiveRegime() == Regime2T2 {
		return s.witnesses
	}
	s.fw = s.fw[:0]
	for _, ws := range s.witnesses {
		s.fw = append(s.fw, ws[:p.C])
	}
	return s.fw
}

// proposalFor derives the current move's proposal from the game state.
func proposalFor(p Params, st *game.State) []game.Item {
	minSize := p.T + 1
	maxSize := p.LiveChannels()
	if p.mode() == ModeDirect {
		return st.GreedyMatchingProposal(minSize, maxSize)
	}
	return st.Greedy(minSize, maxSize)
}
