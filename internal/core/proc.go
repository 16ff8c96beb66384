package core

import (
	"fmt"
	"slices"

	"securadio/internal/feedback"
	"securadio/internal/game"
	"securadio/internal/graph"
	"securadio/internal/radio"
)

// Proc returns the f-AME node program for one node. edges is the shared
// AME pair set E (every node receives the same set, sorted canonically by
// the caller or not — Proc normalizes); myValues maps destination node to
// the message this node wants delivered there (consulted only for this
// node's out-edges). The node's view of the outcome is written into out
// when the protocol terminates.
//
// All nodes must start Proc in the same round with identical edges and
// Params; the protocol keeps them in lock-step by construction.
func Proc(p Params, edges []graph.Edge, myValues map[int]radio.Message, out *Result) radio.Process {
	return func(env radio.Env) {
		Run(env, p, edges, myValues, out)
	}
}

// Run executes the distributed game simulation inline on one node's Env,
// so higher-level protocols (group-key establishment, the message-size
// optimization) can compose f-AME with their own phases. All nodes must
// call Run in the same round with identical edges and Params.
func Run(env radio.Env, p Params, edges []graph.Edge, myValues map[int]radio.Message, out *Result) {
	me := env.ID()
	startRound := env.Round()
	out.Delivered = make(map[graph.Edge]radio.Message)
	out.SenderOK = make(map[graph.Edge]bool)

	if err := p.Validate(); err != nil {
		out.Err = err
		return
	}
	g, err := graph.FromEdges(p.N, edges)
	if err != nil {
		out.Err = fmt.Errorf("core: bad edge set: %w", err)
		return
	}
	st := game.NewState(g, p.T)

	// surrogates[v] is the witness set recorded when v was starred; every
	// member holds v's full value vector (Invariant 2).
	surrogates := make(map[int][]int)

	// vectors[v] is v's value vector as far as this node knows it. A node
	// always knows its own vector; witnesses and destinations learn others'
	// vectors from successful broadcasts.
	vectors := map[int]*VectorMsg{
		me: {Owner: me, Values: myValues},
	}

	reps := feedback.Reps(p.N, p.C, p.T, p.Kappa)
	mergeReps := feedback.MergeReps(p.N, p.Kappa)

	// The node's schedule and feedback scratch, reused move after move.
	sched := new(schedule)
	var fb feedback.Scratch

	// playMove simulates one game move: one transmission round plus one
	// feedback phase, then applies the agreed referee response. The
	// cleanup extension tolerates moves without progress (the adversary
	// may own every edge channel there); the main game does not.
	playMove := func(items []game.Item, requireProgress bool) error {
		if err := sched.build(p, items, surrogates); err != nil {
			return err
		}

		// --- Message-transmission phase (one round) ---
		myRole := sched.roleOf(me)
		var heard radio.Message
		switch myRole.kind {
		case roleBroadcast:
			owner := sched.vectorOwner[myRole.channel]
			vec := vectors[owner]
			if vec == nil {
				// A surrogate can only be scheduled if it witnessed the
				// owner's starring; missing data means replica divergence.
				return fmt.Errorf("%w: scheduled to relay for %d without its vector", ErrDiverged, owner)
			}
			env.Transmit(myRole.channel, vec)
		case roleDest, roleWitness:
			heard = env.Listen(myRole.channel)
		default:
			env.Sleep()
		}

		// Record any authentic vector we received. The schedule guarantees
		// the channel's only scheduled transmitter is honest, so a
		// delivered message on channel c is the scheduled vector; anything
		// else (wrong type or owner) could only arise outside the model
		// and is dropped.
		flag := false
		if myRole.kind == roleDest || myRole.kind == roleWitness {
			if vec, ok := heard.(*VectorMsg); ok && vec.Owner == sched.vectorOwner[myRole.channel] {
				vectors[vec.Owner] = vec
				flag = true
			}
		}

		// --- Feedback phase: agree on the referee's response ---
		fw := sched.feedbackWitnesses(p)
		var d []bool
		var err error
		if p.EffectiveRegime() == Regime2T2 {
			d, err = fb.RunParallel(env, fw, flag, mergeReps, reps)
		} else {
			d, err = fb.Run(env, fw, flag, reps)
		}
		if err != nil {
			return fmt.Errorf("core: feedback: %w", err)
		}

		// --- Referee simulation: apply the agreed response ---
		progress := false
		for c, it := range items {
			if !d[c] {
				continue
			}
			progress = true
			if it.IsEdge {
				st.RemoveEdge(it.Edge)
				if it.Edge.Dst == me {
					if vec := vectors[it.Edge.Src]; vec != nil {
						out.Delivered[it.Edge] = vec.Values[me]
					}
				}
				if it.Edge.Src == me {
					out.SenderOK[it.Edge] = true
				}
			} else {
				st.Star(it.Node)
				// The pool is rebuilt next move; the recruitment set lasts.
				surrogates[it.Node] = slices.Clone(sched.witnesses[c])
			}
		}
		if requireProgress && !progress {
			// The model guarantees at least one undisrupted channel; an
			// empty referee response means feedback failed everywhere.
			return fmt.Errorf("%w: empty referee response", ErrDiverged)
		}
		out.GameRounds++
		return nil
	}

	maxMoves := p.MaxGameRounds
	if maxMoves == 0 {
		maxMoves = 4*len(edges) + 16
	}

	for move := 0; ; move++ {
		items := proposalFor(p, st)
		if items == nil {
			break // greedy terminated: cover is within bound (Lemma 3)
		}
		if move >= maxMoves {
			out.Err = fmt.Errorf("%w: exceeded %d moves", ErrDiverged, maxMoves)
			return
		}
		if err := playMove(items, true); err != nil {
			out.Err = err
			return
		}
	}

	// --- Best-effort cleanup extension (Section 8, open question 3) ---
	for extra := 0; extra < p.Cleanup; extra++ {
		items := cleanupProposal(p, st)
		if items == nil {
			break // graph empty, or no safely schedulable residue remains
		}
		if err := playMove(items, false); err != nil {
			out.Err = err
			return
		}
		out.CleanupMoves++
	}

	// Termination: everything still in the replica graph outputs fail.
	out.Failed = st.G.Edges()
	for _, e := range out.Failed {
		if e.Src == me {
			out.SenderOK[e] = false
		}
	}
	out.Starred = len(st.S)
	out.TotalRounds = env.Round() - startRound
	out.FeedbackRounds = out.TotalRounds - out.GameRounds
}

// cleanupProposal assembles a best-effort proposal from the stranded
// residue: as many schedulable surviving edges as fit, padded with
// recruitment (node) items up to the t+1 channel floor. All selection is
// deterministic, so every replica builds the same proposal.
func cleanupProposal(p Params, st *game.State) []game.Item {
	if st.G.Len() == 0 {
		return nil
	}
	maxSize := p.LiveChannels()
	items := make([]game.Item, 0, maxSize)
	dstSeen := make(map[int]bool)
	srcSeen := make(map[int]bool)
	unstarredDirect := make(map[int]bool) // unstarred sources broadcasting themselves
	endpoint := make(map[int]bool)

	for _, e := range st.G.Edges() {
		if len(items) == maxSize {
			break
		}
		switch {
		case dstSeen[e.Dst]:
			continue // restriction 3
		case srcSeen[e.Src] && !st.S[e.Src]:
			continue // restriction 4
		case !st.S[e.Src] && dstSeen[e.Src]:
			continue // unstarred source would have to listen and broadcast
		case unstarredDirect[e.Dst]:
			continue // destination is an unstarred source already committed to broadcast
		}
		items = append(items, game.EdgeItem(e))
		dstSeen[e.Dst] = true
		srcSeen[e.Src] = true
		endpoint[e.Src] = true
		endpoint[e.Dst] = true
		if !st.S[e.Src] {
			unstarredDirect[e.Src] = true
		}
	}
	if len(items) == 0 {
		return nil
	}

	// Pad to the t+1 floor with recruitment items: unstarred bystanders
	// first (their starring is real progress), then starred ones (pure
	// channel occupancy).
	need := p.T + 1
	for pass := 0; pass < 2 && len(items) < need; pass++ {
		for v := 0; v < p.N && len(items) < need; v++ {
			if endpoint[v] {
				continue
			}
			if (pass == 0) != !st.S[v] {
				continue
			}
			items = append(items, game.NodeItem(v))
			endpoint[v] = true
		}
	}
	if len(items) < need {
		return nil
	}
	game.SortItems(items)
	return items
}
