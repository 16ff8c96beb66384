package core

import (
	"securadio/internal/feedback"
	"securadio/internal/game"
	"securadio/internal/graph"
	"securadio/internal/radio"
)

// ScheduleAwareJammer is a worst-case adversary that stays *inside* the
// paper's information model: it never sees current-round choices. It
// exploits the fact that f-AME's transmission schedule is a deterministic
// function of common knowledge — the pair set E, the parameters, and the
// history of disrupted channels, all of which a listening adversary
// observes. The jammer maintains its own replica of the starred-edge
// removal game, recomputes every move's proposal and schedule exactly as
// the honest nodes do, and jams t of the live channels (preferring edge
// deliveries over starrings). During feedback phases it jams a fixed set
// of channels, which is the strongest model-compliant strategy against
// uniformly random listeners.
//
// Against the deterministic transmission phase this adversary is exactly
// as strong as the omniscient GreedyJammer; the experiments use it to
// confirm that the worst-case Figure 3 measurements do not depend on
// out-of-model omniscience.
type ScheduleAwareJammer struct {
	params Params
	st     *game.State
	surro  map[int][]int

	// Phase bookkeeping: number of feedback rounds remaining before the
	// next transmission round; the schedule planned for the pending move.
	feedbackLeft int
	sched        schedule  // rebuilt in place every transmission round
	pending      *schedule // &sched while its move awaits Observe
	reps         int
	mergeReps    int
	done         bool
}

var _ radio.Adversary = (*ScheduleAwareJammer)(nil)

// NewScheduleAwareJammer builds the replica jammer for a known workload.
// The adversary is assumed to know the protocol and its inputs (pairs and
// params) — the standard worst-case assumption; only the honest nodes'
// in-round random choices are hidden from it.
func NewScheduleAwareJammer(p Params, pairs []graph.Edge) (*ScheduleAwareJammer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g, err := graph.FromEdges(p.N, pairs)
	if err != nil {
		return nil, err
	}
	return &ScheduleAwareJammer{
		params:    p,
		st:        game.NewState(g, p.T),
		surro:     make(map[int][]int),
		reps:      feedback.Reps(p.N, p.C, p.T, p.Kappa),
		mergeReps: feedback.MergeReps(p.N, p.Kappa),
	}, nil
}

// Plan implements radio.Adversary.
func (j *ScheduleAwareJammer) Plan(int) []radio.Transmission {
	if j.done {
		return nil
	}
	if j.feedbackLeft > 0 {
		// Feedback phase: all C channels are manned by witnesses; jam a
		// fixed t-subset. Listeners evade with probability (C-t)/C, the
		// Lemma 5 bound — no model-compliant strategy does better.
		out := make([]radio.Transmission, j.params.T)
		for i := range out {
			out[i] = radio.Transmission{Channel: i}
		}
		return out
	}

	// Transmission round: recompute the move exactly like an honest node.
	items := proposalFor(j.params, j.st)
	if items == nil {
		j.done = true
		return nil
	}
	sched := &j.sched
	if err := sched.build(j.params, items, j.surro); err != nil {
		// Replica diverged (a whp feedback failure happened); back off.
		j.done = true
		return nil
	}
	j.pending = sched

	// Jam t live channels, edge deliveries first.
	out := make([]radio.Transmission, 0, j.params.T)
	for c, it := range sched.items {
		if len(out) == j.params.T {
			break
		}
		if it.IsEdge {
			out = append(out, radio.Transmission{Channel: c})
		}
	}
	for c, it := range sched.items {
		if len(out) == j.params.T {
			break
		}
		if !it.IsEdge {
			out = append(out, radio.Transmission{Channel: c})
		}
	}
	return out
}

// Observe implements radio.Adversary: after a transmission round it
// derives the referee response exactly as the honest nodes' feedback will
// (a channel succeeded iff it carried exactly one transmitter) and applies
// it to the replica.
func (j *ScheduleAwareJammer) Observe(obs radio.RoundObservation) {
	if j.done {
		return
	}
	if j.feedbackLeft > 0 {
		j.feedbackLeft--
		return
	}
	if j.pending == nil {
		return
	}
	sched := j.pending
	j.pending = nil
	for c, it := range sched.items {
		if c >= len(obs.Transmitters) || obs.Transmitters[c] != 1 {
			continue // jammed (or impossible silence): referee denies
		}
		if it.IsEdge {
			j.st.RemoveEdge(it.Edge)
		} else {
			j.st.Star(it.Node)
			j.surro[it.Node] = sched.recruits(j.params, c)
		}
	}
	// The feedback phase that follows this move.
	if j.params.EffectiveRegime() == Regime2T2 {
		j.feedbackLeft = feedback.ParallelRounds(sched.live(), j.mergeReps, j.reps)
	} else {
		j.feedbackLeft = feedback.Rounds(sched.live(), j.reps)
	}
}
