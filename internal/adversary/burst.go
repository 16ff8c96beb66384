package adversary

import (
	"math/rand"
	"slices"

	"securadio/internal/radio"
)

// BurstJammer is a bursty on/off interferer: it jams t random channels for
// On consecutive rounds, then stays silent for Off rounds, modeling duty-
// cycled interference sources (microwave ovens, frequency-agile radars,
// energy-constrained jammers). Within a burst the jammed set is frozen, so
// a burst suppresses the same slice of spectrum for its whole duration.
type BurstJammer struct {
	T   int
	C   int
	On  int // burst length in rounds (>= 1)
	Off int // silence length in rounds (>= 0)
	Rng *rand.Rand

	burst []int // channels jammed during the current burst
}

var _ radio.Adversary = (*BurstJammer)(nil)

// NewBurstJammer returns a duty-cycled jammer with budget t over c
// channels. Non-positive on defaults to 8 rounds; negative off defaults to
// an equal silence window.
func NewBurstJammer(t, c, on, off int, seed int64) *BurstJammer {
	if on <= 0 {
		on = 8
	}
	if off < 0 {
		off = on
	}
	return &BurstJammer{T: t, C: c, On: on, Off: off, Rng: rand.New(rand.NewSource(seed))}
}

// Plan implements radio.Adversary.
func (j *BurstJammer) Plan(round int) []radio.Transmission {
	period := j.On + j.Off
	if period <= 0 {
		period = 1
	}
	phase := round % period
	if phase >= j.On {
		return nil
	}
	// Re-roll at the start of every period so back-to-back bursts
	// (Off = 0) still hop rather than degenerating into a static jam.
	if phase == 0 || j.burst == nil {
		perm := j.Rng.Perm(j.C)
		n := j.T
		if n > len(perm) {
			n = len(perm)
		}
		j.burst = perm[:n]
	}
	out := make([]radio.Transmission, 0, len(j.burst))
	for _, c := range j.burst {
		out = append(out, radio.Transmission{Channel: c})
	}
	return out
}

// Observe implements radio.Adversary.
func (j *BurstJammer) Observe(radio.RoundObservation) {}

// HopJammer is an adaptive channel-hopping jammer: it scores each channel
// by an exponentially decayed count of observed activity (deliveries and
// attempted transmissions from completed rounds) and jams the t currently
// hottest channels. It is fully model-compliant — it only ever uses
// information from finished rounds — yet it tracks protocols whose channel
// usage is locally persistent, such as the per-channel witness pools of
// f-AME and the hopping sequences of the group-key dissemination phase.
type HopJammer struct {
	T     int
	C     int
	Decay float64 // per-round score decay in (0, 1); 0 selects 0.9
	Rng   *rand.Rand

	score []float64
	order []int                // Plan's channel ranking, reused every round
	out   []radio.Transmission // Plan's result, reused every round
}

var _ radio.Adversary = (*HopJammer)(nil)

// NewHopJammer returns an adaptive hopping jammer with budget t over c
// channels.
func NewHopJammer(t, c int, seed int64) *HopJammer {
	return &HopJammer{T: t, C: c, Rng: rand.New(rand.NewSource(seed)), score: make([]float64, c)}
}

func (j *HopJammer) decay() float64 {
	if j.Decay <= 0 || j.Decay >= 1 {
		return 0.9
	}
	return j.Decay
}

// Plan implements radio.Adversary. The returned slice is reused by the
// next call.
func (j *HopJammer) Plan(int) []radio.Transmission {
	if j.score == nil {
		j.score = make([]float64, j.C)
	}
	// Rank channels by score; random tie-break keeps cold starts (all
	// scores zero) from always hammering the low channels. The shuffle
	// replays rand.Perm's draws one for one, the i = 0 draw included, so
	// a seeded jammer plans exactly as it did with a fresh Perm.
	order := slices.Grow(j.order[:0], j.C)[:j.C]
	for i := range order {
		k := j.Rng.Intn(i + 1)
		order[i] = order[k]
		order[k] = i
	}
	j.order = order
	// Partial selection sort: step i fixes order[i] for good, so stopping
	// after the t emitted positions yields the full sort's prefix at
	// O(C*t) rather than O(C^2) comparisons.
	limit := min(j.T, len(order))
	for i := 0; i < limit; i++ {
		best := i
		for k := i + 1; k < len(order); k++ {
			if j.score[order[k]] > j.score[order[best]] {
				best = k
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	out := j.out[:0]
	for i := 0; i < limit; i++ {
		out = append(out, radio.Transmission{Channel: order[i]})
	}
	j.out = out
	return out
}

// Observe implements radio.Adversary.
func (j *HopJammer) Observe(obs radio.RoundObservation) {
	if j.score == nil {
		j.score = make([]float64, j.C)
	}
	d := j.decay()
	for c := range j.score {
		j.score[c] *= d
	}
	// Score honest activity only: counting our own jamming transmissions
	// (obs.Transmitters includes them) would lock the jammer onto whatever
	// channels it happened to jam first.
	for _, a := range obs.Actions {
		if a.Channel < 0 || a.Channel >= len(j.score) {
			continue
		}
		switch a.Op {
		case radio.OpTransmit:
			j.score[a.Channel]++
		case radio.OpListen:
			j.score[a.Channel] += 0.5
		}
	}
}
