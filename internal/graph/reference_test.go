package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refDSet is the map-based edge set DSet replaced: every query sorts or
// scans the map. It stays as the reference the sorted-slice DSet must
// match operation for operation.
type refDSet struct {
	n     int
	edges map[Edge]bool
}

func refFromEdges(n int, edges []Edge) (*refDSet, error) {
	s := &refDSet{n: n, edges: make(map[Edge]bool)}
	for _, e := range edges {
		if err := s.Add(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *refDSet) Add(e Edge) error {
	if e.Src < 0 || e.Src >= s.n || e.Dst < 0 || e.Dst >= s.n {
		return fmt.Errorf("graph: edge %v out of range [0,%d)", e, s.n)
	}
	if e.Src == e.Dst {
		return fmt.Errorf("graph: self-loop %v", e)
	}
	s.edges[e] = true
	return nil
}

func (s *refDSet) Remove(e Edge) { delete(s.edges, e) }

func (s *refDSet) Edges() []Edge {
	out := make([]Edge, 0, len(s.edges))
	for e := range s.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (s *refDSet) Sources() []int {
	seen := make(map[int]bool)
	for e := range s.edges {
		seen[e.Src] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (s *refDSet) OutEdges(src int) []Edge {
	var out []Edge
	for e := range s.edges {
		if e.Src == src {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (s *refDSet) GreedyMatching() []Edge {
	used := make(map[int]bool)
	var out []Edge
	for _, e := range s.Edges() {
		if used[e.Src] || used[e.Dst] {
			continue
		}
		used[e.Src] = true
		used[e.Dst] = true
		out = append(out, e)
	}
	return out
}

// randomEdge draws an edge that is sometimes out of range or a self-loop.
func randomEdge(rng *rand.Rand, n int) Edge {
	v := func() int { return rng.Intn(n+2) - 1 } // -1 .. n
	return Edge{Src: v(), Dst: v()}
}

// sameSet compares every query of got against the reference.
func sameSet(t *testing.T, step string, got *DSet, want *refDSet) {
	t.Helper()
	if got.Len() != len(want.edges) {
		t.Fatalf("%s: Len = %d, reference %d", step, got.Len(), len(want.edges))
	}
	edges := want.Edges()
	if g := got.Edges(); !reflect.DeepEqual(g, edges) {
		t.Fatalf("%s: Edges = %v, reference %v", step, g, edges)
	}
	for i, e := range edges {
		if got.At(i) != e {
			t.Fatalf("%s: At(%d) = %v, reference %v", step, i, got.At(i), e)
		}
	}
	if g, w := got.Sources(), want.Sources(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Sources = %v, reference %v", step, g, w)
	}
	if g, w := got.GreedyMatching(), want.GreedyMatching(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: GreedyMatching = %v, reference %v", step, g, w)
	}
	for v := -1; v <= want.n; v++ {
		if g, w := got.OutEdges(v), want.OutEdges(v); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: OutEdges(%d) = %v, reference %v", step, v, g, w)
		}
		if g, w := got.HasSource(v), len(want.OutEdges(v)) > 0; g != w {
			t.Fatalf("%s: HasSource(%d) = %t, reference %t", step, v, g, w)
		}
		for u := -1; u <= want.n; u++ {
			e := Edge{Src: v, Dst: u}
			if got.Has(e) != want.edges[e] {
				t.Fatalf("%s: Has(%v) = %t, reference %t", step, e, got.Has(e), want.edges[e])
			}
		}
	}
}

// TestDSetMatchesMapReference replays random edge sets (with duplicates,
// self-loops and out-of-range endpoints) and random Add/Remove sequences
// through DSet and the map-based reference, comparing every query after
// every step and FromEdges' error (the first bad edge in input order).
func TestDSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		input := make([]Edge, rng.Intn(3*n))
		bad := trial%4 == 0 // a quarter of the inputs may hold bad edges
		for i := range input {
			if bad && rng.Intn(8) == 0 {
				input[i] = randomEdge(rng, n)
			} else if n > 1 {
				src := rng.Intn(n)
				input[i] = Edge{Src: src, Dst: (src + 1 + rng.Intn(n-1)) % n}
			}
		}
		got, gerr := FromEdges(n, input)
		want, werr := refFromEdges(n, input)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("trial %d: FromEdges error %v, reference %v", trial, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		checked++
		sameSet(t, fmt.Sprintf("trial %d FromEdges", trial), got, want)
		clone, snapshot := got.Clone(), want.Edges()
		for op := 0; op < 40; op++ {
			e := randomEdge(rng, n)
			if rng.Intn(3) == 0 && len(want.edges) > 0 {
				edges := want.Edges()
				e = edges[rng.Intn(len(edges))]
			}
			if rng.Intn(2) == 0 {
				gerr, werr := got.Add(e), want.Add(e)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("trial %d op %d: Add(%v) error %v, reference %v", trial, op, e, gerr, werr)
				}
			} else {
				got.Remove(e)
				want.Remove(e)
			}
			sameSet(t, fmt.Sprintf("trial %d op %d", trial, op), got, want)
		}
		if !reflect.DeepEqual(clone.Edges(), snapshot) {
			t.Fatalf("trial %d: Clone = %v after the original changed, want %v", trial, clone.Edges(), snapshot)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d of 300 inputs built a set", checked)
	}
}
