package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"securadio/internal/game"
	"securadio/internal/graph"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildSchedule builds a fresh schedule for one proposal.
func buildSchedule(p Params, items []game.Item, surrogates map[int][]int) (*schedule, error) {
	s := new(schedule)
	if err := s.build(p, items, surrogates); err != nil {
		return nil, err
	}
	return s, nil
}

func TestBuildScheduleNodeItems(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{game.NodeItem(0), game.NodeItem(1), game.NodeItem(2)}
	s, err := buildSchedule(p, items, nil)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	for c := 0; c < 3; c++ {
		if s.broadcaster[c] != c || s.vectorOwner[c] != c || s.dest[c] != -1 {
			t.Fatalf("channel %d: broadcaster=%d owner=%d dest=%d",
				c, s.broadcaster[c], s.vectorOwner[c], s.dest[c])
		}
	}
}

func TestBuildScheduleDirectSourceWhenFree(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.EdgeItem(graph.Edge{Src: 2, Dst: 3}),
		game.NodeItem(4),
	}
	surro := map[int][]int{0: {30, 31}, 2: {32, 33}}
	s, err := buildSchedule(p, items, surro)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	if s.broadcaster[0] != 0 || s.broadcaster[1] != 2 {
		t.Fatalf("free sources not scheduled directly: %v", s.broadcaster)
	}
}

func TestBuildScheduleSurrogateForListeningSource(t *testing.T) {
	// 0->1 and 1->2: node 1 must listen as a destination, so its own edge
	// needs a surrogate.
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.EdgeItem(graph.Edge{Src: 1, Dst: 2}),
		game.NodeItem(5),
	}
	surro := map[int][]int{1: {30, 31, 32}, 0: {33}}
	s, err := buildSchedule(p, items, surro)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	if s.broadcaster[1] != 30 {
		t.Fatalf("edge 1->2 broadcaster = %d, want surrogate 30", s.broadcaster[1])
	}
	if s.vectorOwner[1] != 1 {
		t.Fatalf("vector owner = %d, want 1", s.vectorOwner[1])
	}
}

func TestBuildScheduleSharedSourceUsesDistinctSurrogates(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.EdgeItem(graph.Edge{Src: 0, Dst: 2}),
		game.EdgeItem(graph.Edge{Src: 0, Dst: 3}),
	}
	surro := map[int][]int{0: {30, 31, 32, 33}}
	s, err := buildSchedule(p, items, surro)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	if s.broadcaster[0] != 0 {
		t.Fatalf("first edge should use the source itself, got %d", s.broadcaster[0])
	}
	if s.broadcaster[1] == s.broadcaster[2] || s.broadcaster[1] == 0 || s.broadcaster[2] == 0 {
		t.Fatalf("later edges must use distinct surrogates: %v", s.broadcaster)
	}
}

func TestBuildScheduleNoSurrogateFails(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.EdgeItem(graph.Edge{Src: 0, Dst: 2}),
		game.NodeItem(5),
	}
	// The only surrogate candidate is reserved (it is a destination).
	surro := map[int][]int{0: {2}}
	if _, err := buildSchedule(p, items, surro); !errors.Is(err, ErrSchedule) {
		t.Fatalf("err = %v, want ErrSchedule", err)
	}
}

func TestBuildScheduleWitnessesDisjointFromParticipants(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.EdgeItem(graph.Edge{Src: 0, Dst: 2}),
		game.NodeItem(4),
	}
	surro := map[int][]int{0: {20, 21}}
	s, err := buildSchedule(p, items, surro)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	busy := map[int]bool{0: true, 1: true, 2: true, 4: true}
	for _, b := range s.broadcaster {
		busy[b] = true
	}
	seen := make(map[int]bool)
	for c, ws := range s.witnesses {
		if len(ws) != p.WitnessesPerChannel() {
			t.Fatalf("channel %d has %d witnesses, want %d", c, len(ws), p.WitnessesPerChannel())
		}
		for _, w := range ws {
			if busy[w] {
				t.Fatalf("witness %d is a participant", w)
			}
			if seen[w] {
				t.Fatalf("witness %d serves two channels", w)
			}
			seen[w] = true
		}
	}
}

func TestBuildScheduleRunsOutOfWitnesses(t *testing.T) {
	p := Params{N: 12, C: 3, T: 2, Regime: RegimeBase} // far below MinNodes
	items := []game.Item{game.NodeItem(0), game.NodeItem(1), game.NodeItem(2)}
	if _, err := buildSchedule(p, items, nil); !errors.Is(err, ErrSchedule) {
		t.Fatalf("err = %v, want ErrSchedule", err)
	}
}

func TestRoleOfCoversEverybody(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.NodeItem(2),
		game.NodeItem(3),
	}
	s, err := buildSchedule(p, items, nil)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	counts := map[roleKind]int{}
	for id := 0; id < p.N; id++ {
		counts[s.roleOf(id).kind]++
	}
	if counts[roleBroadcast] != 3 {
		t.Fatalf("broadcasters = %d, want 3", counts[roleBroadcast])
	}
	if counts[roleDest] != 1 {
		t.Fatalf("destinations = %d, want 1", counts[roleDest])
	}
	if counts[roleWitness] != 3*p.WitnessesPerChannel() {
		t.Fatalf("witnesses = %d, want %d", counts[roleWitness], 3*p.WitnessesPerChannel())
	}
	wantIdle := p.N - 3 - 1 - 3*p.WitnessesPerChannel()
	if counts[roleIdle] != wantIdle {
		t.Fatalf("idle = %d, want %d", counts[roleIdle], wantIdle)
	}
}

func TestFeedbackWitnessShape(t *testing.T) {
	p := Params{N: 80, C: 4, T: 2, Regime: Regime2T}
	items := []game.Item{game.NodeItem(0), game.NodeItem(1), game.NodeItem(2), game.NodeItem(3)}
	s, err := buildSchedule(p, items, nil)
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	fw := s.feedbackWitnesses(p)
	for c, ws := range fw {
		if len(ws) != p.C {
			t.Fatalf("channel %d feedback set has %d members, want C=%d", c, len(ws), p.C)
		}
	}
}

func TestProposalForModes(t *testing.T) {
	g, err := graph.FromEdges(10, graph.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	st := game.NewState(g, 1)
	pSur := Params{N: 30, C: 2, T: 1, Mode: ModeSurrogate}
	items := proposalFor(pSur, st)
	for _, it := range items {
		if it.IsEdge {
			t.Fatalf("surrogate mode proposed edge %v before starring", it.Edge)
		}
	}
	pDir := Params{N: 30, C: 2, T: 1, Mode: ModeDirect}
	items = proposalFor(pDir, st)
	for _, it := range items {
		if !it.IsEdge {
			t.Fatal("direct mode proposed a node item")
		}
	}
}

// randomRecruits draws a recruitment set for starred node v: between 3L
// and active+3L-1 distinct nodes other than v, in random order, from
// [0, active+3L). That range holds the active range [0, active) where
// every proposal's endpoints lie, so the first candidates are often busy.
func randomRecruits(rng *rand.Rand, v, l, active int) []int {
	var set []int
	for _, u := range rng.Perm(active + 3*l) {
		if u != v {
			set = append(set, u)
		}
	}
	return set[:3*l+rng.Intn(len(set)-3*l+1)]
}

// TestRecruitmentPrefixSchedulesAlike plays random pair graphs through
// game.State and builds every move twice: once from full recruitment sets
// of random length and once from their first 3L members. The schedules
// must agree, since build never recruits past position 3L-1.
func TestRecruitmentPrefixSchedulesAlike(t *testing.T) {
	for _, p := range []Params{
		{N: 80, C: 3, T: 2, Regime: RegimeBase},
		{N: 80, C: 8, T: 2, Regime: Regime2T},
		{N: 80, C: 8, T: 2, Regime: Regime2T2},
	} {
		l := p.LiveChannels()
		active := 2*l + 2
		rng := newTestRand(int64(p.Regime))
		deepest := 0
		for trial := 0; trial < 200; trial++ {
			g, err := graph.FromEdges(p.N, graph.RandomPairs(active, 2*active, rng.Intn))
			if err != nil {
				t.Fatal(err)
			}
			st := game.NewState(g, p.T)
			full, prefix := map[int][]int{}, map[int][]int{}
			var a, b schedule
			for move := 0; move < 100; move++ {
				items := proposalFor(p, st)
				if items == nil {
					break
				}
				if err := a.build(p, items, full); err != nil {
					t.Fatalf("%v: full sets: %v", p.Regime, err)
				}
				if err := b.build(p, items, prefix); err != nil {
					t.Fatalf("%v: 3L prefixes: %v", p.Regime, err)
				}
				if !slices.Equal(a.broadcaster, b.broadcaster) || !slices.Equal(a.vectorOwner, b.vectorOwner) ||
					!slices.Equal(a.dest, b.dest) || !slices.EqualFunc(a.witnesses, b.witnesses, slices.Equal) {
					t.Fatalf("%v: move %d of %v: schedules differ:\nfull   %v %v %v %v\nprefix %v %v %v %v",
						p.Regime, move, items, a.broadcaster, a.vectorOwner, a.dest, a.witnesses,
						b.broadcaster, b.vectorOwner, b.dest, b.witnesses)
				}
				for c, it := range items {
					if it.IsEdge && a.broadcaster[c] != it.Edge.Src {
						deepest = max(deepest, slices.Index(full[it.Edge.Src], a.broadcaster[c]))
					}
				}
				// A random referee response: about two items in three
				// succeed; every starring records a fresh set.
				for c, it := range items {
					if rng.Intn(3) == 0 {
						continue
					}
					if it.IsEdge {
						st.RemoveEdge(it.Edge)
						continue
					}
					if got, want := a.recruits(p, c), a.witnesses[c][:3*l]; !slices.Equal(got, want) {
						t.Fatalf("%v: recruits = %v, want the pool's first 3L %v", p.Regime, got, want)
					}
					st.Star(it.Node)
					set := randomRecruits(rng, it.Node, l, active)
					full[it.Node], prefix[it.Node] = set, set[:3*l]
				}
			}
		}
		if deepest < 2 {
			t.Fatalf("%v: deepest recruit at position %d; the sets never made build scan past position 1", p.Regime, deepest)
		}
		t.Logf("%v: deepest recruit at position %d of the 3L = %d prefix", p.Regime, deepest, 3*l)
	}
}

// TestRecruitPastBusyCandidates: the starred source's first candidates are
// its own destinations (reserved) or an earlier surrogate (assigned), so
// its recruits sit at positions 3 and 4 of the set; the 3L prefix
// schedules the same move.
func TestRecruitPastBusyCandidates(t *testing.T) {
	p := Params{N: 40, C: 3, T: 2, Regime: RegimeBase}
	items := []game.Item{
		game.EdgeItem(graph.Edge{Src: 0, Dst: 1}),
		game.EdgeItem(graph.Edge{Src: 0, Dst: 2}),
		game.EdgeItem(graph.Edge{Src: 0, Dst: 3}),
	}
	set := []int{1, 2, 3, 30, 31, 32, 33, 34, 35, 36, 37, 38}
	full, err := buildSchedule(p, items, map[int][]int{0: set})
	if err != nil {
		t.Fatalf("buildSchedule: %v", err)
	}
	if want := []int{0, 30, 31}; !slices.Equal(full.broadcaster, want) {
		t.Fatalf("broadcasters = %v, want %v", full.broadcaster, want)
	}
	prefix, err := buildSchedule(p, items, map[int][]int{0: set[:3*p.LiveChannels()]})
	if err != nil {
		t.Fatalf("buildSchedule with the 3L prefix: %v", err)
	}
	if !slices.Equal(prefix.broadcaster, full.broadcaster) || !slices.EqualFunc(prefix.witnesses, full.witnesses, slices.Equal) {
		t.Fatalf("3L prefix scheduled %v %v, full set %v %v",
			prefix.broadcaster, prefix.witnesses, full.broadcaster, full.witnesses)
	}
}
