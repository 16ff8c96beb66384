package game

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"securadio/internal/graph"
)

// refGreedy is the Greedy that builds P1 and P2 in full, with maps and
// sorts, before trimming them to maxSize. It stays as the reference the
// single-walk Greedy must match.
func refGreedy(st *State, minSize, maxSize int) []Item {
	items := make([]Item, 0, maxSize)
	for _, v := range st.P1() {
		if len(items) == maxSize {
			break
		}
		items = append(items, NodeItem(v))
	}
	if len(items) < maxSize {
		dstSeen := make(map[int]bool)
		for _, e := range st.P2() {
			if len(items) == maxSize {
				break
			}
			if dstSeen[e.Dst] {
				continue
			}
			dstSeen[e.Dst] = true
			items = append(items, EdgeItem(e))
		}
	}
	if len(items) < minSize {
		return nil
	}
	return items
}

// refGreedyMatchingProposal is the map-based matching proposal.
func refGreedyMatchingProposal(st *State, minSize, maxSize int) []Item {
	used := make(map[int]bool)
	items := make([]Item, 0, maxSize)
	for _, e := range st.G.Edges() {
		if len(items) == maxSize {
			break
		}
		if used[e.Src] || used[e.Dst] {
			continue
		}
		used[e.Src] = true
		used[e.Dst] = true
		items = append(items, EdgeItem(e))
	}
	if len(items) < minSize {
		return nil
	}
	return items
}

// TestGreedyMatchesReference plays random graphs (n <= 40) through random
// Add/Remove and starring sequences on one State, so its scratch is reused
// from call to call, and compares both proposal strategies against the
// references at every (minSize, maxSize) up to 8.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(39)
		g, err := graph.FromEdges(n, graph.RandomPairs(n, rng.Intn(3*n), rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(g, 1)
		for step := 0; step < 12; step++ {
			for minSize := 0; minSize <= 8; minSize++ {
				for maxSize := 0; maxSize <= 8; maxSize++ {
					at := fmt.Sprintf("trial %d step %d (min %d, max %d)", trial, step, minSize, maxSize)
					if got, want := st.Greedy(minSize, maxSize), refGreedy(st, minSize, maxSize); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Greedy = %v, reference %v", at, got, want)
					}
					if got, want := st.GreedyMatchingProposal(minSize, maxSize), refGreedyMatchingProposal(st, minSize, maxSize); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: GreedyMatchingProposal = %v, reference %v", at, got, want)
					}
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				st.Star(rng.Intn(n))
			}
			for k := rng.Intn(6); k > 0; k-- {
				src := rng.Intn(n)
				e := graph.Edge{Src: src, Dst: (src + 1 + rng.Intn(n-1)) % n}
				if rng.Intn(3) == 0 {
					if err := st.G.Add(e); err != nil {
						t.Fatal(err)
					}
				} else if st.G.Len() > 0 {
					st.RemoveEdge(st.G.At(rng.Intn(st.G.Len())))
				}
			}
		}
	}
}
