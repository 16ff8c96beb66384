// Package fault is the deterministic fault-injection layer: seed-derived
// node-churn schedules and time-varying lossy channels, compiled into a
// Plan the radio engine consults once per round.
//
// The package models two fault families on top of the paper's idealized
// radio network:
//
//   - Node churn. A Profile names fractions of the node population that
//     crash permanently, crash and later recover, or join late. Compile
//     turns the fractions into concrete per-node silence windows. A
//     silenced node keeps executing its Process in lock-step — the model's
//     rounds still pass — but its radio is dead: transmissions are
//     suppressed before they reach the air and listens return nothing.
//     Protocols therefore degrade exactly like they do against jamming (a
//     dead node is a keyless, quorum-countable node), never by hanging.
//
//   - Channel impairment. A Gilbert–Elliott two-state (good/bad) Markov
//     chain per channel produces bursty, time-correlated loss: each round
//     every channel's state advances and a delivery-drop decision is
//     drawn, with separate drop probabilities per state. Correlated mode
//     drives all channels from one shared fade state (a wideband fade).
//
// Everything derives from a single seed through a splitmix64 substream,
// and the per-round random consumption is fixed (one transition draw per
// fade state plus one drop draw per channel) regardless of traffic — so
// a Plan's schedule is a pure function of (Profile, N, C, seed), identical
// across worker counts and process topologies.
//
// A Plan is bound to one radio run at a time: the engine resets its
// runtime state at run start and owns it until the run completes.
package fault

import (
	"errors"
	"fmt"
	"math"

	"securadio/internal/bitset"
)

// DefaultHorizon is the round window churn events are scheduled in when
// Profile.Horizon is zero. It is sized to land crashes and recoveries
// inside the early phases of the built-in protocols.
const DefaultHorizon = 240

// ErrBadProfile reports an invalid fault profile.
var ErrBadProfile = errors.New("fault: invalid fault profile")

// LossModel parameterizes the Gilbert–Elliott burst-loss channel: a
// two-state Markov chain (good/bad) advanced once per round per fade
// state, with a state-dependent delivery-drop probability.
type LossModel struct {
	// PGoodBad is the per-round probability of a good→bad transition.
	PGoodBad float64 `json:"p_good_bad"`

	// PBadGood is the per-round probability of a bad→good transition.
	PBadGood float64 `json:"p_bad_good"`

	// DropGood is the delivery-drop probability while in the good state.
	DropGood float64 `json:"drop_good,omitempty"`

	// DropBad is the delivery-drop probability while in the bad state.
	DropBad float64 `json:"drop_bad"`

	// Correlated drives every channel from one shared fade state — a
	// wideband fade — instead of independent per-channel chains.
	Correlated bool `json:"correlated,omitempty"`
}

// Validate reports whether the loss model's probabilities are well formed.
func (m LossModel) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"p_good_bad", m.PGoodBad},
		{"p_bad_good", m.PBadGood},
		{"drop_good", m.DropGood},
		{"drop_bad", m.DropBad},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("%w: loss %s = %v, want 0..1", ErrBadProfile, p.name, p.v)
		}
	}
	return nil
}

// DefaultLoss returns a loss model whose long-run mean drop probability is
// approximately rate: a quiet good state (no drops) punctuated by bad
// bursts that drop 90% of deliveries, with the bad-state dwell chosen so
// the stationary loss matches rate. rate is clamped to [0, 0.85].
func DefaultLoss(rate float64) *LossModel {
	const dropBad, pBadGood = 0.9, 0.25
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	if rate > 0.85 {
		rate = 0.85
	}
	piBad := rate / dropBad // stationary bad probability hitting the target
	if piBad > 0.95 {
		piBad = 0.95
	}
	return &LossModel{
		PGoodBad: pBadGood * piBad / (1 - piBad),
		PBadGood: pBadGood,
		DropBad:  dropBad,
	}
}

// Profile is a declarative fault specification: churn fractions plus an
// optional channel loss model. The zero Profile injects nothing.
type Profile struct {
	// CrashFrac is the fraction of nodes that crash permanently at a
	// seed-chosen round inside the horizon.
	CrashFrac float64 `json:"crash,omitempty"`

	// RecoverFrac is the fraction of nodes that crash and later recover
	// (a bounded silence window).
	RecoverFrac float64 `json:"recover,omitempty"`

	// LateFrac is the fraction of nodes that join late: silent from round
	// 0 until a seed-chosen round early in the horizon.
	LateFrac float64 `json:"late,omitempty"`

	// Horizon is the round window churn events are scheduled in; zero
	// selects DefaultHorizon.
	Horizon int `json:"horizon,omitempty"`

	// Loss, when non-nil, enables the Gilbert–Elliott channel model.
	Loss *LossModel `json:"loss,omitempty"`
}

// FromFractions is the scalar shorthand used by sweep axes and CLI flags:
// churn is the total churned-node fraction (split 2:1:1 across permanent
// crashes, crash-recoveries and late joins) and loss is the target
// long-run mean delivery-drop probability (see DefaultLoss). Zero for
// both returns the inert zero Profile.
func FromFractions(churn, loss float64) Profile {
	var p Profile
	if churn > 0 {
		p.CrashFrac = churn / 2
		p.RecoverFrac = churn / 4
		p.LateFrac = churn - p.CrashFrac - p.RecoverFrac
	}
	if loss > 0 {
		p.Loss = DefaultLoss(loss)
	}
	return p
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.CrashFrac > 0 || p.RecoverFrac > 0 || p.LateFrac > 0 || p.Loss != nil
}

// Validate reports whether the profile is well formed.
func (p Profile) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"crash", p.CrashFrac},
		{"recover", p.RecoverFrac},
		{"late", p.LateFrac},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("%w: %s = %v, want 0..1", ErrBadProfile, f.name, f.v)
		}
	}
	if sum := p.CrashFrac + p.RecoverFrac + p.LateFrac; sum > 1 {
		return fmt.Errorf("%w: churn fractions sum to %v, want <= 1", ErrBadProfile, sum)
	}
	if p.Horizon < 0 {
		return fmt.Errorf("%w: horizon = %d, want >= 0", ErrBadProfile, p.Horizon)
	}
	if p.Loss != nil {
		return p.Loss.Validate()
	}
	return nil
}

// horizon resolves the effective scheduling window.
func (p Profile) horizon() int {
	if p.Horizon > 0 {
		return p.Horizon
	}
	return DefaultHorizon
}

// Counters is the snapshot of a plan's degradation statistics for one run.
type Counters struct {
	// Drops counts deliveries lost to faults: transmissions suppressed
	// because their node was down, plus deliveries erased by the channel
	// loss model.
	Drops int

	// DegradedRounds counts rounds in which the fault layer perturbed the
	// network: at least one node down, one channel in the bad fade state,
	// or one delivery dropped.
	DegradedRounds int

	// NodesLost is the number of nodes scheduled to crash permanently —
	// a static property of the compiled plan.
	NodesLost int
}

// neverDown marks a node with no silence window.
const neverDown = int32(-1)

// Plan is a compiled fault schedule bound to a concrete (n, c) network.
// The radio engine drives it: Reset at run start, BeginRound before each
// round resolves, the mask accessors during resolution, EndRound after.
// All mutating methods are called from the engine's single-threaded
// resolution path; a Plan must not be shared by concurrent runs.
type Plan struct {
	n, c    int
	profile Profile

	// Compiled churn schedule: node id -> [from, to) silence window.
	// churned lists exactly the nodes with a window, so BeginRound's churn
	// step costs O(churned nodes) instead of O(n) — nodes without a window
	// can never change state.
	downFrom, downTo []int32
	churned          []int32
	churn            bool
	lost             int // permanent crashes

	// Compiled loss model.
	hasLoss bool
	loss    LossModel
	states  int        // fade-state count: c, or 1 when correlated
	badInit bitset.Set // initial fade states
	rngInit uint64     // rng state right after compilation

	// Runtime state, rewound by Reset. The masks are multi-word bitsets
	// (shared with the radio engine's observation surface), so a
	// hundreds-of-channels spectrum costs a handful of words per mask and
	// the correlated wideband fade is a word fill, not a per-channel loop.
	rng        splitmix64
	bad        bitset.Set // current fade states
	fade       bitset.Set // per-channel view of bad (c bits)
	down       bitset.Set // per-node silence mask for the current round
	drop       bitset.Set // per-channel drop decision for the current round
	applied    bitset.Set // per-channel: a delivery was actually dropped
	downCount  int
	badCount   int
	roundDrops int
	deaths     int
	recoveries int
	counters   Counters
}

// Compile derives a concrete fault plan for an n-node, c-channel network
// from the profile and the run seed. Identical arguments always yield an
// identical plan: node selection, silence windows, fade trajectories and
// drop decisions all come from one splitmix64 substream of seed.
func Compile(p Profile, n, c int, seed int64) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || c <= 0 {
		return nil, fmt.Errorf("%w: network n = %d, c = %d, want > 0", ErrBadProfile, n, c)
	}
	pl := &Plan{n: n, c: c, profile: p}
	rng := newSplitmix64(seed)

	h := p.horizon()
	nCrash := round(p.CrashFrac * float64(n))
	nRecover := round(p.RecoverFrac * float64(n))
	nLate := round(p.LateFrac * float64(n))
	if total := nCrash + nRecover + nLate; total > n {
		nLate -= total - n // rounding pushed past the population; trim late joiners first
		if nLate < 0 {
			nRecover += nLate
			nLate = 0
		}
	}
	pl.downFrom = make([]int32, n)
	pl.downTo = make([]int32, n)
	for i := range pl.downFrom {
		pl.downFrom[i] = neverDown
	}
	if nCrash+nRecover+nLate > 0 {
		pl.churn = true
		pl.lost = nCrash
		// Seed-derived node selection: a Fisher-Yates prefix shuffle picks
		// the churned nodes, then kinds are assigned in selection order.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < nCrash+nRecover+nLate; i++ {
			j := i + rng.intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		k := 0
		for i := 0; i < nCrash; i++ {
			id := perm[k]
			k++
			pl.downFrom[id] = int32(h/4 + rng.intn(h-h/4)) // crash in [h/4, h)
			pl.downTo[id] = math.MaxInt32
		}
		for i := 0; i < nRecover; i++ {
			id := perm[k]
			k++
			from := h/8 + rng.intn(h/2-h/8) // down in [h/8, h/2)
			pl.downFrom[id] = int32(from)
			pl.downTo[id] = int32(from + 1 + rng.intn(h/2)) // for 1..h/2 rounds
		}
		for i := 0; i < nLate; i++ {
			id := perm[k]
			k++
			pl.downFrom[id] = 0
			pl.downTo[id] = int32(1 + rng.intn(h/4)) // joins by h/4
		}
		for i, from := range pl.downFrom {
			if from != neverDown {
				pl.churned = append(pl.churned, int32(i))
			}
		}
	}
	pl.counters.NodesLost = pl.lost

	if p.Loss != nil {
		pl.hasLoss = true
		pl.loss = *p.Loss
		pl.states = c
		if pl.loss.Correlated {
			pl.states = 1
		}
		pl.badInit = bitset.New(pl.states)
		// Warm start: draw each fade state from its stationary
		// distribution so short runs see representative loss.
		if denom := pl.loss.PGoodBad + pl.loss.PBadGood; denom > 0 {
			piBad := pl.loss.PGoodBad / denom
			for s := 0; s < pl.states; s++ {
				pl.badInit.SetTo(s, rng.float64() < piBad)
			}
		}
		pl.bad = bitset.New(pl.states)
		pl.fade = bitset.New(c)
		pl.drop = bitset.New(c)
		pl.applied = bitset.New(c)
	}
	pl.down = bitset.New(n)
	pl.rngInit = rng.state
	pl.Reset()
	return pl, nil
}

// round is arithmetic rounding of a non-negative float.
func round(v float64) int { return int(v + 0.5) }

// MustCompile is Compile for static profiles known to be valid; it panics
// on error.
func MustCompile(p Profile, n, c int, seed int64) *Plan {
	pl, err := Compile(p, n, c, seed)
	if err != nil {
		panic(err)
	}
	return pl
}

// N returns the node count the plan was compiled for.
func (pl *Plan) N() int { return pl.n }

// C returns the channel count the plan was compiled for.
func (pl *Plan) C() int { return pl.c }

// Profile returns the profile the plan was compiled from.
func (pl *Plan) Profile() Profile { return pl.profile }

// Reset rewinds the plan's runtime state and counters to the freshly
// compiled state. The radio engine calls it at run start, so one plan
// value can drive sequential runs reproducibly.
func (pl *Plan) Reset() {
	pl.rng.state = pl.rngInit
	copy(pl.bad, pl.badInit)
	pl.down.ClearAll()
	pl.fade.ClearAll()
	pl.drop.ClearAll()
	pl.applied.ClearAll()
	pl.downCount, pl.badCount = 0, 0
	pl.roundDrops, pl.deaths, pl.recoveries = 0, 0, 0
	pl.counters = Counters{NodesLost: pl.lost}
	if pl.hasLoss && pl.loss.Correlated {
		pl.syncFade()
	}
}

// BeginRound advances the plan to the given round: churn windows open and
// close, every fade state takes one Markov step, and this round's drop
// decisions are drawn. The per-round random consumption is fixed — one
// draw per fade state plus one per channel — independent of traffic.
func (pl *Plan) BeginRound(round int) {
	pl.deaths, pl.recoveries, pl.roundDrops = 0, 0, 0
	if pl.churn {
		// Only scheduled nodes can transition, so the scan is over the
		// churned list, and the down population updates incrementally from
		// the transitions — identical to recounting the whole mask.
		for _, id := range pl.churned {
			i := int(id)
			d := int32(round) >= pl.downFrom[i] && int32(round) < pl.downTo[i]
			if d != pl.down.Get(i) {
				if d {
					pl.deaths++
				} else {
					pl.recoveries++
				}
				pl.down.SetTo(i, d)
			}
		}
		pl.downCount += pl.deaths - pl.recoveries
	}
	if pl.hasLoss {
		n := 0
		for s := 0; s < pl.states; s++ {
			u := pl.rng.float64()
			b := pl.bad.Get(s)
			if b {
				if u < pl.loss.PBadGood {
					b = false
					pl.bad.SetTo(s, false)
				}
			} else if u < pl.loss.PGoodBad {
				b = true
				pl.bad.SetTo(s, true)
			}
			if b {
				n++
			}
		}
		pl.badCount = n
		if pl.loss.Correlated {
			pl.syncFade()
			if pl.bad.Get(0) {
				pl.badCount = pl.c
			}
		} else {
			copy(pl.fade, pl.bad) // word-for-word: states == c here
		}
		for c := 0; c < pl.c; c++ {
			dp := pl.loss.DropGood
			if pl.fade.Get(c) {
				dp = pl.loss.DropBad
			}
			pl.drop.SetTo(c, dp > 0 && pl.rng.float64() < dp)
		}
		pl.applied.ClearAll()
	}
}

// syncFade mirrors the single correlated fade state across the
// per-channel view — a word fill either way, not a per-channel loop.
func (pl *Plan) syncFade() {
	if pl.bad.Get(0) {
		pl.fade.SetFirst(pl.c)
	} else {
		pl.fade.ClearAll()
	}
}

// NodeDown reports whether the node's radio is silenced this round.
func (pl *Plan) NodeDown(id int) bool { return pl.down.Get(id) }

// DropNow reports this round's loss-model drop decision for the channel.
func (pl *Plan) DropNow(c int) bool { return pl.hasLoss && pl.drop.Get(c) }

// ApplyDrop records that the channel's delivery was actually dropped this
// round.
func (pl *Plan) ApplyDrop(c int) {
	pl.applied.Add(c)
	pl.roundDrops++
}

// NoteSuppressed records a transmission suppressed because its node was
// down.
func (pl *Plan) NoteSuppressed() { pl.roundDrops++ }

// EndRound folds this round's events into the run counters. The engine
// calls it after collision resolution, before releasing the round.
func (pl *Plan) EndRound() {
	pl.counters.Drops += pl.roundDrops
	if pl.downCount > 0 || pl.badCount > 0 || pl.roundDrops > 0 {
		pl.counters.DegradedRounds++
	}
}

// DownMask returns the per-node silence mask for the current round (nil
// when the profile has no churn). The engine exposes it to observers;
// callers must not retain it across rounds.
func (pl *Plan) DownMask() bitset.Set {
	if !pl.churn {
		return nil
	}
	return pl.down
}

// FadeMask returns the per-channel bad-state mask for the current round
// (nil without a loss model).
func (pl *Plan) FadeMask() bitset.Set {
	if !pl.hasLoss {
		return nil
	}
	return pl.fade
}

// DropMask returns the per-channel applied-drop mask for the current
// round (nil without a loss model).
func (pl *Plan) DropMask() bitset.Set {
	if !pl.hasLoss {
		return nil
	}
	return pl.applied
}

// RoundDrops returns the number of deliveries lost to faults this round.
func (pl *Plan) RoundDrops() int { return pl.roundDrops }

// RoundDeaths returns the number of nodes newly silenced this round.
func (pl *Plan) RoundDeaths() int { return pl.deaths }

// RoundRecoveries returns the number of nodes restored this round.
func (pl *Plan) RoundRecoveries() int { return pl.recoveries }

// EverDown reports whether the node is silenced at any point in the
// schedule — the accounting layers use it to exclude churned nodes from
// cross-node consistency checks.
func (pl *Plan) EverDown(id int) bool { return pl.downFrom[id] != neverDown }

// Counters returns the degradation statistics accumulated since Reset.
func (pl *Plan) Counters() Counters { return pl.counters }

// splitmix64 is the same generator the radio engine derives per-node
// seeds with: a 64-bit counter stream through the splitmix64 finalizer.
// It gives the fault layer an independent, traffic-blind random stream.
type splitmix64 struct{ state uint64 }

func newSplitmix64(seed int64) splitmix64 {
	// Offset the stream constant so a fault plan never tracks a node RNG
	// derived from the same master seed.
	return splitmix64{state: uint64(seed) ^ 0xf4011759d7d8f1a7}
}

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0, n), or 0 when n <= 0 (degenerate
// windows from tiny horizons collapse to their lower bound).
func (s *splitmix64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next() % uint64(n))
}
