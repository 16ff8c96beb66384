// Package game implements the (G,t)-starred-edge removal game of Section
// 5.1 and the greedy-removal strategy of Section 5.2.
//
// The game isolates the scheduling core of f-AME from the distributed
// concerns: a player repeatedly proposes a set of nodes and edges subject
// to the proposal restrictions; a referee (in the distributed simulation,
// the adversary's jamming pattern) picks a non-empty subset; chosen nodes
// become "starred" (they have recruited surrogates) and chosen edges are
// removed. The game ends when the remaining graph has a vertex cover of
// size at most t — which the greedy strategy guarantees at the moment it
// can no longer form a legal proposal (Lemma 3).
package game

import (
	"fmt"
	"sort"

	"securadio/internal/bitset"
	"securadio/internal/graph"
)

// Item is one element of a proposal: either a node (a non-starred source
// recruiting surrogates) or an edge (a message transmission).
type Item struct {
	IsEdge bool
	Node   int        // valid when !IsEdge
	Edge   graph.Edge // valid when IsEdge
}

// NodeItem returns a node proposal item.
func NodeItem(v int) Item { return Item{Node: v} }

// EdgeItem returns an edge proposal item.
func EdgeItem(e graph.Edge) Item { return Item{IsEdge: true, Edge: e} }

// String renders the item.
func (it Item) String() string {
	if it.IsEdge {
		return it.Edge.String()
	}
	return fmt.Sprintf("node(%d)", it.Node)
}

// less imposes the canonical proposal order: node items by ID first, then
// edge items by (Src, Dst). Every honest node sorts proposals identically,
// which is what makes the distributed schedule consistent (Invariant 1).
func (it Item) less(o Item) bool {
	if it.IsEdge != o.IsEdge {
		return !it.IsEdge
	}
	if !it.IsEdge {
		return it.Node < o.Node
	}
	return it.Edge.Less(o.Edge)
}

// SortItems sorts items into the canonical order.
func SortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].less(items[j]) })
}

// State is the shared game state: the remaining graph G, the starred set
// S, and the resilience parameter t. It also holds the scratch that Greedy
// and GreedyMatchingProposal reuse from move to move, so a State is not
// safe for concurrent use; every replica owns its own.
type State struct {
	G *graph.DSet
	S map[int]bool
	T int

	nodes []int        // proposal scratch: node items
	edges []graph.Edge // proposal scratch: edge items
	taken bitset.Set   // proposal scratch: vertices a chosen edge uses
}

// NewState starts a game over the given edge set.
func NewState(g *graph.DSet, t int) *State {
	return &State{G: g, S: make(map[int]bool), T: t}
}

// Clone returns an independent copy of the state.
func (st *State) Clone() *State {
	s := make(map[int]bool, len(st.S))
	for k, v := range st.S {
		s[k] = v
	}
	return &State{G: st.G.Clone(), S: s, T: st.T}
}

// proposal copies scratch node and edge items into a fresh proposal, or
// returns nil when it would have fewer than minSize items.
func proposal(nodes []int, edges []graph.Edge, minSize int) []Item {
	if len(nodes)+len(edges) < minSize {
		return nil
	}
	items := make([]Item, 0, len(nodes)+len(edges))
	for _, v := range nodes {
		items = append(items, NodeItem(v))
	}
	for _, e := range edges {
		items = append(items, EdgeItem(e))
	}
	return items
}

// Star marks node v as starred.
func (st *State) Star(v int) { st.S[v] = true }

// RemoveEdge deletes an edge from the game graph.
func (st *State) RemoveEdge(e graph.Edge) { st.G.Remove(e) }

// P1 returns the set of non-starred nodes that are the source of some
// remaining edge, ascending (Section 5.2).
func (st *State) P1() []int {
	var out []int
	for _, v := range st.G.Sources() {
		if !st.S[v] {
			out = append(out, v)
		}
	}
	return out
}

// P2 returns the edges whose source and destination are both outside P1,
// in canonical order (Section 5.2). By construction every such edge has a
// starred source.
func (st *State) P2() []graph.Edge {
	inP1 := make(map[int]bool)
	for _, v := range st.P1() {
		inP1[v] = true
	}
	var out []graph.Edge
	for _, e := range st.G.Edges() {
		if !inP1[e.Src] && !inP1[e.Dst] {
			out = append(out, e)
		}
	}
	return out
}

// CheckProposal verifies the proposal restrictions of Section 5.1 for a
// proposal of the exact size k (the paper's game fixes k = t+1; the
// C >= 2t optimization plays the same game with k = 2t, and the protocol
// additionally accepts partial proposals of size >= t+1 near the end of
// the game — see CheckProposalRelaxed).
//
// Restrictions:
//  1. exactly k items, nodes in V or edges in E;
//  2. every node item is distinct from every endpoint of every edge item
//     (and node items are pairwise distinct);
//  3. no two edge items share a destination;
//  4. two edge items share a source v only if v is starred.
func (st *State) CheckProposal(items []Item, k int) error {
	if len(items) != k {
		return fmt.Errorf("game: proposal has %d items, want exactly %d", len(items), k)
	}
	return st.checkRestrictions(items)
}

// CheckProposalRelaxed verifies restrictions 2-4 and a size in
// [minSize, maxSize]. The distributed protocol uses minSize = t+1 (the
// smallest size for which the adversary cannot jam every channel) once
// fewer than maxSize legal items remain.
func (st *State) CheckProposalRelaxed(items []Item, minSize, maxSize int) error {
	if len(items) < minSize || len(items) > maxSize {
		return fmt.Errorf("game: proposal has %d items, want between %d and %d",
			len(items), minSize, maxSize)
	}
	return st.checkRestrictions(items)
}

func (st *State) checkRestrictions(items []Item) error {
	nodeSeen := make(map[int]bool)
	dstSeen := make(map[int]bool)
	srcSeen := make(map[int]bool)
	for _, it := range items {
		if it.IsEdge {
			e := it.Edge
			if !st.G.Has(e) {
				return fmt.Errorf("game: proposed edge %v not in graph", e)
			}
			if dstSeen[e.Dst] {
				return fmt.Errorf("game: restriction 3 violated: destination %d repeated", e.Dst)
			}
			dstSeen[e.Dst] = true
			if srcSeen[e.Src] && !st.S[e.Src] {
				return fmt.Errorf("game: restriction 4 violated: unstarred source %d repeated", e.Src)
			}
			srcSeen[e.Src] = true
		} else {
			v := it.Node
			if v < 0 || v >= st.G.N() {
				return fmt.Errorf("game: proposed node %d out of range", v)
			}
			if nodeSeen[v] {
				return fmt.Errorf("game: restriction 2 violated: node %d repeated", v)
			}
			nodeSeen[v] = true
		}
	}
	// Restriction 2: node items disjoint from all edge endpoints.
	for _, it := range items {
		if !it.IsEdge {
			continue
		}
		if nodeSeen[it.Edge.Src] || nodeSeen[it.Edge.Dst] {
			return fmt.Errorf("game: restriction 2 violated: node item overlaps edge %v", it.Edge)
		}
	}
	return nil
}

// Greedy computes the canonical greedy-removal proposal of up to maxSize
// items: all of P1 (in ascending node order), then destination-disjoint P2
// edges (in canonical edge order). It returns nil when fewer than minSize
// legal items exist — the strategy has terminated, and by Lemma 3 the
// graph's minimum vertex cover is at most minSize-1 (i.e. at most t when
// minSize = t+1).
//
// It walks the canonical edge order once, source by source, and stops as
// soon as P1 alone fills the proposal. An unstarred source is in P1 (it
// has an out-edge); an edge with a starred source is in P2 unless its
// destination is an unstarred source. Destination-disjoint selection keeps
// a prefix when cut short, so collecting up to maxSize P2 edges and
// trimming them to the room P1 leaves gives the same proposal as P1 then P2.
func (st *State) Greedy(minSize, maxSize int) []Item {
	g := st.G
	nodes, edges := st.nodes[:0], st.edges[:0]
	st.taken = bitset.Sized(st.taken, g.N()) // P2 destinations chosen
	for i, n := 0, g.Len(); i < n && len(nodes) < maxSize; {
		src := g.At(i).Src
		end := i + 1
		for end < n && g.At(end).Src == src {
			end++
		}
		if !st.S[src] {
			nodes = append(nodes, src)
		} else {
			for ; i < end && len(edges) < maxSize; i++ {
				e := g.At(i)
				if st.taken.Get(e.Dst) || (!st.S[e.Dst] && g.HasSource(e.Dst)) {
					continue
				}
				st.taken.Add(e.Dst)
				edges = append(edges, e)
			}
		}
		i = end
	}
	st.nodes, st.edges = nodes, edges
	if room := maxSize - len(nodes); len(edges) > room {
		edges = edges[:max(room, 0)]
	}
	return proposal(nodes, edges, minSize)
}

// GreedyMatchingProposal is the direct/Byzantine variant (Section 8,
// extension (1)): no surrogates, so proposals consist only of pairwise
// vertex-disjoint edges (every source transmits its own message, every
// destination listens, and no node may hold two roles). It returns nil
// when fewer than minSize disjoint edges remain, at which point the
// remaining graph's maximum matching is below minSize and its vertex cover
// is therefore below 2*minSize (2t-disruptability for minSize = t+1).
func (st *State) GreedyMatchingProposal(minSize, maxSize int) []Item {
	g := st.G
	edges := st.edges[:0]
	st.taken = bitset.Sized(st.taken, g.N()) // matched endpoints
	for i, n := 0, g.Len(); i < n && len(edges) < maxSize; i++ {
		e := g.At(i)
		if st.taken.Get(e.Src) || st.taken.Get(e.Dst) {
			continue
		}
		st.taken.Add(e.Src)
		st.taken.Add(e.Dst)
		edges = append(edges, e)
	}
	st.edges = edges
	return proposal(nil, edges, minSize)
}

// Apply replays a referee response: every chosen node is starred, every
// chosen edge removed.
func (st *State) Apply(chosen []Item) {
	for _, it := range chosen {
		if it.IsEdge {
			st.RemoveEdge(it.Edge)
		} else {
			st.Star(it.Node)
		}
	}
}

// Referee chooses a non-empty subset of a proposal (the game's adversary).
type Referee interface {
	Choose(st *State, proposal []Item) []Item
}

// Play runs the centralized game to termination with the given strategy
// sizes and referee, returning the number of moves. Used by the Theorem 4
// experiments; the distributed f-AME protocol simulates exactly this loop.
func Play(st *State, minSize, maxSize int, ref Referee) (moves int, err error) {
	for {
		proposal := st.Greedy(minSize, maxSize)
		if proposal == nil {
			return moves, nil
		}
		if cerr := st.CheckProposalRelaxed(proposal, minSize, maxSize); cerr != nil {
			return moves, fmt.Errorf("game: greedy produced an illegal proposal: %w", cerr)
		}
		chosen := ref.Choose(st, proposal)
		if len(chosen) == 0 {
			return moves, fmt.Errorf("game: referee returned an empty subset at move %d", moves)
		}
		st.Apply(chosen)
		moves++
	}
}
