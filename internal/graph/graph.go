// Package graph provides the directed-graph substrate used throughout the
// reproduction: edge sets for the AME pair set E and the disruption graph,
// minimum vertex cover computation (the d-disruptability metric of
// Definition 1), and the (t+1)-leader spanner of Section 6.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is an ordered pair (Src, Dst): Src wants to send a message to Dst.
type Edge struct {
	Src, Dst int
}

// String renders the edge as "src->dst".
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.Src, e.Dst) }

// Less imposes the canonical (Src, Dst) lexicographic order used wherever
// the protocols need all nodes to enumerate edges identically.
func (e Edge) Less(o Edge) bool {
	if e.Src != o.Src {
		return e.Src < o.Src
	}
	return e.Dst < o.Dst
}

// DSet is a mutable set of directed edges over vertices [0, n). It keeps
// its edges in canonical (Src, Dst) order without duplicates, so every
// enumeration (Edges, Sources, OutEdges, At) is in that order and costs no
// sort; Has, Add and Remove are binary searches. The zero value is not
// ready to use; construct with NewDSet.
type DSet struct {
	n     int
	edges []Edge // canonical order, no duplicates
}

// NewDSet returns an empty edge set over n vertices.
func NewDSet(n int) *DSet {
	return &DSet{n: n}
}

// FromEdges builds a DSet over n vertices containing the given edges.
// It returns an error for the first edge, in input order, that is out of
// range or a self-loop.
func FromEdges(n int, edges []Edge) (*DSet, error) {
	s := NewDSet(n)
	for _, e := range edges {
		if err := s.check(e); err != nil {
			return nil, err
		}
	}
	s.edges = append(make([]Edge, 0, len(edges)), edges...)
	slices.SortFunc(s.edges, compareEdges)
	s.edges = slices.Compact(s.edges)
	return s, nil
}

// compareEdges is the canonical (Src, Dst) order as a comparison.
func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// search returns the index of the first edge not below e in canonical
// order, and whether that edge is e itself.
func (s *DSet) search(e Edge) (int, bool) {
	return slices.BinarySearchFunc(s.edges, e, compareEdges)
}

// N returns the number of vertices.
func (s *DSet) N() int { return s.n }

// Len returns the number of edges.
func (s *DSet) Len() int { return len(s.edges) }

// At returns the i-th edge in canonical order, 0 <= i < Len(). Together
// with Len it walks the set without copying it.
func (s *DSet) At(i int) Edge { return s.edges[i] }

// Has reports whether the edge is present.
func (s *DSet) Has(e Edge) bool {
	_, ok := s.search(e)
	return ok
}

// HasSource reports whether v is the source of some edge.
func (s *DSet) HasSource(v int) bool {
	i, _ := s.search(Edge{Src: v, Dst: math.MinInt})
	return i < len(s.edges) && s.edges[i].Src == v
}

func (s *DSet) check(e Edge) error {
	if e.Src < 0 || e.Src >= s.n || e.Dst < 0 || e.Dst >= s.n {
		return fmt.Errorf("graph: edge %v out of range [0,%d)", e, s.n)
	}
	if e.Src == e.Dst {
		return fmt.Errorf("graph: self-loop %v", e)
	}
	return nil
}

// Add inserts an edge. Self-loops and out-of-range endpoints are rejected.
func (s *DSet) Add(e Edge) error {
	if err := s.check(e); err != nil {
		return err
	}
	if i, ok := s.search(e); !ok {
		s.edges = slices.Insert(s.edges, i, e)
	}
	return nil
}

// Remove deletes an edge; removing an absent edge is a no-op.
func (s *DSet) Remove(e Edge) {
	if i, ok := s.search(e); ok {
		s.edges = slices.Delete(s.edges, i, i+1)
	}
}

// Edges returns the edges in canonical (Src, Dst) order. The returned
// slice is freshly allocated.
func (s *DSet) Edges() []Edge {
	return append(make([]Edge, 0, len(s.edges)), s.edges...)
}

// Clone returns an independent copy.
func (s *DSet) Clone() *DSet {
	return &DSet{n: s.n, edges: s.Edges()}
}

// Sources returns the distinct edge sources in ascending order.
func (s *DSet) Sources() []int {
	out := make([]int, 0)
	for i, e := range s.edges {
		if i == 0 || e.Src != s.edges[i-1].Src {
			out = append(out, e.Src)
		}
	}
	return out
}

// OutEdges returns the edges with the given source, in canonical order
// (nil when there are none).
func (s *DSet) OutEdges(src int) []Edge {
	lo, _ := s.search(Edge{Src: src, Dst: math.MinInt})
	hi := lo
	for hi < len(s.edges) && s.edges[hi].Src == src {
		hi++
	}
	if hi == lo {
		return nil
	}
	return append([]Edge(nil), s.edges[lo:hi]...)
}

// VertexCoverAtMost reports whether the edge set has a vertex cover of
// size at most k (a vertex covers every edge it touches, as source or
// destination). It uses the classic O(2^k * |E|) bounded search tree: pick
// an uncovered edge and branch on covering it by its source or destination.
// This is exact, and fast for the small k = t values of the model.
func (s *DSet) VertexCoverAtMost(k int) bool {
	if k < 0 {
		return false
	}
	return coverBranch(s.edges, k, make(map[int]bool))
}

func coverBranch(edges []Edge, k int, covered map[int]bool) bool {
	// Find the first uncovered edge.
	var pick Edge
	found := false
	for _, e := range edges {
		if !covered[e.Src] && !covered[e.Dst] {
			pick = e
			found = true
			break
		}
	}
	if !found {
		return true // everything covered
	}
	if k == 0 {
		return false
	}
	for _, v := range [2]int{pick.Src, pick.Dst} {
		covered[v] = true
		if coverBranch(edges, k-1, covered) {
			delete(covered, v)
			return true
		}
		delete(covered, v)
	}
	return false
}

// MinVertexCover returns the size of a minimum vertex cover. Exponential
// in the answer; intended for the small disruption graphs produced by the
// protocols (answer <= 2t).
func (s *DSet) MinVertexCover() int {
	for k := 0; ; k++ {
		if s.VertexCoverAtMost(k) {
			return k
		}
	}
}

// MinVertexCoverSet returns an actual minimum vertex cover, ascending.
// The experiments use it to name the nodes the adversary managed to
// disrupt (the d nodes of Definition 1's d-disruptability).
func (s *DSet) MinVertexCoverSet() []int {
	k := s.MinVertexCover()
	cover := make(map[int]bool, k)
	if !coverSearch(s.edges, k, cover) {
		return nil // unreachable: MinVertexCover found this k feasible
	}
	out := make([]int, 0, len(cover))
	for v := range cover {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// coverSearch is coverBranch, but leaves the successful cover in covered.
func coverSearch(edges []Edge, k int, covered map[int]bool) bool {
	var pick Edge
	found := false
	for _, e := range edges {
		if !covered[e.Src] && !covered[e.Dst] {
			pick = e
			found = true
			break
		}
	}
	if !found {
		return true
	}
	if k == 0 {
		return false
	}
	for _, v := range [2]int{pick.Src, pick.Dst} {
		covered[v] = true
		if coverSearch(edges, k-1, covered) {
			return true
		}
		delete(covered, v)
	}
	return false
}

// IsVertexCover reports whether the given vertex set covers every edge.
func (s *DSet) IsVertexCover(vs []int) bool {
	in := make(map[int]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	for _, e := range s.edges {
		if !in[e.Src] && !in[e.Dst] {
			return false
		}
	}
	return true
}

// GreedyMatching returns a maximal set of pairwise vertex-disjoint edges in
// canonical order. Any vertex cover must contain at least one endpoint per
// matched edge, and the matching's endpoints form a cover, so:
// len(matching) <= MinVertexCover() <= 2*len(matching). Tests use this as
// a fast sandwich cross-check, and the direct/Byzantine f-AME variant uses
// it for its 2t-disruptability scheduling.
func (s *DSet) GreedyMatching() []Edge {
	used := make(map[int]bool)
	var out []Edge
	for _, e := range s.edges {
		if used[e.Src] || used[e.Dst] {
			continue
		}
		used[e.Src] = true
		used[e.Dst] = true
		out = append(out, e)
	}
	return out
}

// LeaderSpanner returns the pair set E_l of Section 6 Part 1 for the given
// leader set: every ordered pair (v, w), v != w, in which at least one
// endpoint is a leader. With t+1 leaders this is the sparse
// (t+1)-connected "(t+1)-leader spanner" with Theta(n*t) edges that seeds
// the group-key establishment.
func LeaderSpanner(n int, leaders []int) []Edge {
	isLeader := make(map[int]bool, len(leaders))
	for _, l := range leaders {
		isLeader[l] = true
	}
	var out []Edge
	for _, l := range leaders {
		for w := 0; w < n; w++ {
			if w == l {
				continue
			}
			out = append(out, Edge{Src: l, Dst: w})
			if !isLeader[w] {
				out = append(out, Edge{Src: w, Dst: l})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Complete returns all n*(n-1) ordered pairs over [0, n).
func Complete(n int) []Edge {
	out := make([]Edge, 0, n*(n-1))
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if v != w {
				out = append(out, Edge{Src: v, Dst: w})
			}
		}
	}
	return out
}

// DisjointPairs returns the t disjoint ordered pairs {(i, i+t)} of the
// Theorem 2 lower-bound construction, over nodes [0, 2t).
func DisjointPairs(t int) []Edge {
	out := make([]Edge, 0, t)
	for i := 0; i < t; i++ {
		out = append(out, Edge{Src: i, Dst: i + t})
	}
	return out
}

// RandomPairs returns k distinct random ordered pairs over [0, n) drawn
// with the given next function (e.g. rand.Intn). Used by workload
// generators.
func RandomPairs(n, k int, intn func(int) int) []Edge {
	if k > n*(n-1) {
		k = n * (n - 1)
	}
	seen := make(map[Edge]bool, k)
	out := make([]Edge, 0, k)
	for len(out) < k {
		e := Edge{Src: intn(n), Dst: intn(n)}
		if e.Src == e.Dst || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
