package game

import (
	"math/rand"
	"testing"
	"testing/quick"

	"securadio/internal/graph"
)

func newState(t *testing.T, n int, edges []graph.Edge, tt int) *State {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return NewState(g, tt)
}

func TestP1ExcludesStarred(t *testing.T) {
	st := newState(t, 6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, 1)
	if got := st.P1(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("P1 = %v, want [0 2]", got)
	}
	st.Star(0)
	if got := st.P1(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("P1 after starring = %v, want [2]", got)
	}
}

func TestP2RequiresEndpointsOutsideP1(t *testing.T) {
	// 0->1 with 0 starred: P1 empty for that edge's endpoints, so it is in
	// P2. 2->3 with 2 unstarred keeps 2 in P1, excluding both its own edge
	// and any edge touching node 2.
	st := newState(t, 6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 4, Dst: 2}}, 1)
	st.Star(0)
	st.Star(4)
	got := st.P2()
	if len(got) != 1 || got[0] != (graph.Edge{Src: 0, Dst: 1}) {
		t.Fatalf("P2 = %v, want [0->1]", got)
	}
}

func TestP2SourcesAreStarred(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		g, err := graph.FromEdges(n, graph.RandomPairs(n, rng.Intn(2*n), rng.Intn))
		if err != nil {
			return false
		}
		st := NewState(g, 2)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				st.Star(v)
			}
		}
		for _, e := range st.P2() {
			if !st.S[e.Src] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckProposalRestrictions(t *testing.T) {
	base := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 1}, {Src: 3, Dst: 4}, {Src: 5, Dst: 6}}
	cases := []struct {
		name    string
		starred []int
		items   []Item
		k       int
		wantOK  bool
	}{
		{
			name:   "size mismatch",
			items:  []Item{NodeItem(0)},
			k:      2,
			wantOK: false,
		},
		{
			name:   "duplicate node",
			items:  []Item{NodeItem(0), NodeItem(0)},
			k:      2,
			wantOK: false,
		},
		{
			name:   "node overlaps edge endpoint",
			items:  []Item{NodeItem(1), EdgeItem(graph.Edge{Src: 0, Dst: 1})},
			k:      2,
			wantOK: false,
		},
		{
			name:   "shared destination",
			items:  []Item{EdgeItem(graph.Edge{Src: 0, Dst: 1}), EdgeItem(graph.Edge{Src: 3, Dst: 1})},
			k:      2,
			wantOK: false,
		},
		{
			name:   "shared unstarred source",
			items:  []Item{EdgeItem(graph.Edge{Src: 0, Dst: 1}), EdgeItem(graph.Edge{Src: 0, Dst: 2})},
			k:      2,
			wantOK: false,
		},
		{
			name:    "shared starred source",
			starred: []int{0},
			items:   []Item{EdgeItem(graph.Edge{Src: 0, Dst: 1}), EdgeItem(graph.Edge{Src: 0, Dst: 2})},
			k:       2,
			wantOK:  true,
		},
		{
			name:   "edge not in graph",
			items:  []Item{EdgeItem(graph.Edge{Src: 1, Dst: 0}), NodeItem(5)},
			k:      2,
			wantOK: false,
		},
		{
			name:   "legal mixed proposal",
			items:  []Item{NodeItem(5), EdgeItem(graph.Edge{Src: 0, Dst: 1})},
			k:      2,
			wantOK: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newState(t, 8, base, 1)
			for _, v := range tc.starred {
				st.Star(v)
			}
			err := st.CheckProposal(tc.items, tc.k)
			if (err == nil) != tc.wantOK {
				t.Fatalf("CheckProposal = %v, wantOK = %v", err, tc.wantOK)
			}
		})
	}
}

// TestGreedyProposalsAlwaysLegal: whatever the state, a non-nil greedy
// proposal satisfies the restrictions.
func TestGreedyProposalsAlwaysLegal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		tt := 1 + rng.Intn(3)
		g, err := graph.FromEdges(n, graph.RandomPairs(n, rng.Intn(3*n), rng.Intn))
		if err != nil {
			return false
		}
		st := NewState(g, tt)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				st.Star(v)
			}
		}
		items := st.Greedy(tt+1, tt+1)
		if items == nil {
			return true
		}
		return st.CheckProposal(items, tt+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyTerminationImpliesCoverBound is Lemma 3: when greedy cannot
// form a proposal of size minSize, the graph's vertex cover is < minSize.
func TestGreedyTerminationImpliesCoverBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		tt := 1 + rng.Intn(3)
		g, err := graph.FromEdges(n, graph.RandomPairs(n, rng.Intn(3*n), rng.Intn))
		if err != nil {
			return false
		}
		st := NewState(g, tt)
		ref := RandomSubsetReferee{Rng: rng}
		if _, err := Play(st, tt+1, tt+1, ref); err != nil {
			return false
		}
		return st.G.VertexCoverAtMost(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPlayMoveBound is Theorem 4: the game completes in O(|E|) moves —
// concretely at most |E| + #sources moves, even against the stalling
// referee.
func TestPlayMoveBound(t *testing.T) {
	refs := map[string]Referee{
		"stall":  StallReferee{},
		"first":  FirstItemReferee{},
		"all":    AllItemsReferee{},
		"jammer": JammerReferee{T: 2},
	}
	for name, ref := range refs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n, tt := 20, 2
			edges := graph.RandomPairs(n, 40, rng.Intn)
			st := newState(t, n, edges, tt)
			bound := len(edges) + len(st.G.Sources())
			moves, err := Play(st, tt+1, tt+1, ref)
			if err != nil {
				t.Fatalf("Play: %v", err)
			}
			if moves > bound {
				t.Fatalf("moves = %d exceeds bound %d", moves, bound)
			}
			if !st.G.VertexCoverAtMost(tt) {
				t.Fatalf("final cover exceeds t = %d", tt)
			}
		})
	}
}

// TestPlayWiderProposals exercises the C >= 2t regime: proposals of up to
// 2t items with at least t granted per move finish in roughly |E|/t moves.
func TestPlayWiderProposals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, tt := 30, 3
	edges := graph.RandomPairs(n, 60, rng.Intn)
	st := newState(t, n, edges, tt)
	movesWide, err := Play(st, tt+1, 2*tt, JammerReferee{T: tt})
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	st2 := newState(t, n, edges, tt)
	movesNarrow, err := Play(st2, tt+1, tt+1, JammerReferee{T: tt})
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if movesWide >= movesNarrow {
		t.Fatalf("wide proposals (%d moves) not faster than narrow (%d moves)", movesWide, movesNarrow)
	}
	if !st.G.VertexCoverAtMost(tt) {
		t.Fatal("wide game ended above the cover bound")
	}
}

// TestMatchingProposalTermination: the direct/Byzantine variant ends with
// vertex cover at most 2t.
func TestMatchingProposalTermination(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		tt := 1 + rng.Intn(2)
		g, err := graph.FromEdges(n, graph.RandomPairs(n, rng.Intn(3*n), rng.Intn))
		if err != nil {
			return false
		}
		st := NewState(g, tt)
		for {
			items := st.GreedyMatchingProposal(tt+1, tt+1)
			if items == nil {
				break
			}
			// Matching proposals are legal by construction.
			if err := st.CheckProposal(items, tt+1); err != nil {
				return false
			}
			st.Apply(items[:1]) // worst-case referee grants one
		}
		return st.G.VertexCoverAtMost(2 * tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingProposalVertexDisjoint(t *testing.T) {
	st := newState(t, 8, graph.Complete(8), 2)
	items := st.GreedyMatchingProposal(3, 3)
	if items == nil {
		t.Fatal("expected a proposal on K8")
	}
	used := make(map[int]bool)
	for _, it := range items {
		if !it.IsEdge {
			t.Fatal("matching proposal contains a node item")
		}
		if used[it.Edge.Src] || used[it.Edge.Dst] {
			t.Fatalf("proposal %v not vertex-disjoint", items)
		}
		used[it.Edge.Src] = true
		used[it.Edge.Dst] = true
	}
}

func TestApply(t *testing.T) {
	st := newState(t, 6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, 1)
	st.Apply([]Item{NodeItem(0), EdgeItem(graph.Edge{Src: 2, Dst: 3})})
	if !st.S[0] {
		t.Fatal("node 0 not starred")
	}
	if st.G.Has(graph.Edge{Src: 2, Dst: 3}) {
		t.Fatal("edge 2->3 not removed")
	}
	if !st.G.Has(graph.Edge{Src: 0, Dst: 1}) {
		t.Fatal("edge 0->1 unexpectedly removed")
	}
}

func TestCloneIndependence(t *testing.T) {
	st := newState(t, 4, []graph.Edge{{Src: 0, Dst: 1}}, 1)
	c := st.Clone()
	c.Star(2)
	c.RemoveEdge(graph.Edge{Src: 0, Dst: 1})
	if st.S[2] || !st.G.Has(graph.Edge{Src: 0, Dst: 1}) {
		t.Fatal("Clone shares state")
	}
}

func TestSortItemsCanonical(t *testing.T) {
	items := []Item{
		EdgeItem(graph.Edge{Src: 1, Dst: 0}),
		NodeItem(7),
		EdgeItem(graph.Edge{Src: 0, Dst: 2}),
		NodeItem(3),
	}
	SortItems(items)
	want := []Item{
		NodeItem(3),
		NodeItem(7),
		EdgeItem(graph.Edge{Src: 0, Dst: 2}),
		EdgeItem(graph.Edge{Src: 1, Dst: 0}),
	}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("order = %v", items)
		}
	}
}

func TestGreedyNilWhenEmpty(t *testing.T) {
	st := newState(t, 6, nil, 1)
	if got := st.Greedy(2, 2); got != nil {
		t.Fatalf("Greedy on empty graph = %v, want nil", got)
	}
}

// TestGreedyStarsBeforeEdges: with a fresh state all proposals are node
// items (nothing starred yet), matching the paper's recruit-then-relay
// progression.
func TestGreedyStarsBeforeEdges(t *testing.T) {
	st := newState(t, 10, graph.Complete(5), 2)
	items := st.Greedy(3, 3)
	for _, it := range items {
		if it.IsEdge {
			t.Fatalf("fresh state proposed edge %v before starring", it.Edge)
		}
	}
}

// TestGreedyAllocations pins both proposal strategies at one allocation
// per call, the proposal itself, once the State's scratch is warm.
func TestGreedyAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.FromEdges(150, graph.RandomPairs(150, 400, rng.Intn))
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(g, 1)
	for v := 3; v < 150; v++ {
		st.Star(v) // P1 is at most {0, 1, 2}: the proposal needs P2 edges
	}
	for _, tc := range []struct {
		name string
		f    func() []Item
	}{
		{"Greedy", func() []Item { return st.Greedy(2, 8) }},
		{"GreedyMatchingProposal", func() []Item { return st.GreedyMatchingProposal(2, 8) }},
	} {
		if items := tc.f(); len(items) != 8 || !items[len(items)-1].IsEdge {
			t.Fatalf("%s: proposal %v, want 8 items ending in an edge", tc.name, items)
		}
		if allocs := testing.AllocsPerRun(100, func() { tc.f() }); allocs > 1 {
			t.Errorf("%s: %v allocs per call, want at most 1", tc.name, allocs)
		}
	}
}
