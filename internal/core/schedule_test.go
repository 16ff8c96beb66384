package core

import (
	"errors"
	"math/rand"
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
