package feedback

import (
	"fmt"

	"securadio/internal/bitset"
	"securadio/internal/radio"
)

// The parallel-prefix feedback merge of Section 5.5, case 2 (C >= 2t^2).
//
// Instead of broadcasting the feedback for each monitored channel to the
// whole network sequentially (O(t log n) with C >= 2t channels), witness
// groups merge their knowledge pairwise over disjoint channel *bands*,
// doubling the per-group knowledge each level, and a final full-spectrum
// broadcast disseminates everything to every node. Levels cost O(log n)
// rounds each, there are O(log C') levels, and the final broadcast is
// another O(log n): O(log^2 n) in total.
//
// Band size (documented deviation from the paper): the
// paper assigns each pair of groups t channels, but a focused adversary
// can jam all t channels of one band in every round and permanently starve
// that pair. We use bands of 2t channels — exactly what the C >= 2t^2
// budget affords with C'/2 = t simultaneous merges — so at least half of
// every band is always clean and each merge completes in O(log n) rounds
// regardless of how the adversary concentrates its budget.

// group is a set of monitored channels whose witnesses share knowledge.
type group struct {
	channels []int // monitored channel indices covered by this group
	pool     []int // witness IDs in canonical (concatenated rank) order
}

// ParallelRounds returns the number of rounds consumed by RunParallel for
// the given number of monitored channels and per-phase repetition counts.
func ParallelRounds(monitored, mergeReps, finalReps int) int {
	levels := 0
	for g := monitored; g > 1; g = (g + 1) / 2 {
		levels++
	}
	return levels*2*mergeReps + finalReps
}

// bandSize returns the per-pair channel band width: 2t, but never wider
// than the spectrum.
func bandSize(c, t int) int {
	b := 2 * t
	if b < 2 {
		b = 2
	}
	if b > c {
		b = c
	}
	return b
}

// RunParallel executes the parallel-prefix feedback of Section 5.5 case 2.
// Preconditions: witnesses[i] are disjoint sets of at least bandSize(C, t)
// nodes each (rank order); the union must contain at least C nodes; every
// node calls RunParallel in the same round with the same arguments. The
// call consumes ParallelRounds(len(witnesses), mergeReps, finalReps)
// rounds on every node.
func RunParallel(env radio.Env, witnesses [][]int, myFlag bool, mergeReps, finalReps int) ([]bool, error) {
	return new(Scratch).RunParallel(env, witnesses, myFlag, mergeReps, finalReps)
}

// RunParallel is the package-level RunParallel on the node's own scratch.
func (s *Scratch) RunParallel(env radio.Env, witnesses [][]int, myFlag bool, mergeReps, finalReps int) ([]bool, error) {
	n, c, t := env.N(), env.C(), env.T()
	band := bandSize(c, t)
	L := len(witnesses)
	if L == 0 {
		return nil, fmt.Errorf("%w: no monitored channels", ErrBadWitnesses)
	}
	if mergeReps < 1 || finalReps < 1 {
		return nil, fmt.Errorf("%w: non-positive repetition counts", ErrBadWitnesses)
	}
	s.seen = bitset.Sized(s.seen, n)
	total := 0
	for i, ws := range witnesses {
		if len(ws) < band {
			return nil, fmt.Errorf("%w: channel %d has %d witnesses, want >= %d",
				ErrBadWitnesses, i, len(ws), band)
		}
		for _, w := range ws {
			if w < 0 || w >= n {
				return nil, fmt.Errorf("%w: witness %d out of range", ErrBadWitnesses, w)
			}
			if s.seen.Get(w) {
				return nil, fmt.Errorf("%w: node %d witnesses two channels", ErrBadWitnesses, w)
			}
			s.seen.Add(w)
			total++
		}
	}
	if total < c {
		return nil, fmt.Errorf("%w: %d total witnesses cannot man %d channels",
			ErrBadWitnesses, total, c)
	}
	if L*band > 2*c {
		// C'/2 pairs of width-band bands must fit in the spectrum.
		return nil, fmt.Errorf("%w: %d monitored channels with band %d exceed spectrum %d",
			ErrBadWitnesses, L, band, c)
	}

	// Local knowledge: my own channel's flag if I am a witness.
	known := make([]bool, L)
	flags := make([]bool, L)
	myChannel, _ := membership(witnesses, env.ID())
	if myChannel >= 0 {
		known[myChannel] = true
		flags[myChannel] = myFlag
	}

	// Initial groups: one per monitored channel.
	groups := make([]group, L)
	for i, ws := range witnesses {
		groups[i] = group{channels: []int{i}, pool: append([]int(nil), ws...)}
	}

	merge := func(m MergeMsg) {
		for i := range m.Known {
			if i < L && m.Known[i] {
				known[i] = true
				flags[i] = m.Flags[i]
			}
		}
	}
	knowledge := func() MergeMsg {
		return MergeMsg{
			Known: append([]bool(nil), known...),
			Flags: append([]bool(nil), flags...),
		}
	}

	// Merge levels.
	for len(groups) > 1 {
		pairs := len(groups) / 2
		// Two sub-phases: even group broadcasts to odd partner, then back.
		for phase := 0; phase < 2; phase++ {
			// Determine my role for this sub-phase.
			role := roleNone
			myBand := -1
			for p := 0; p < pairs; p++ {
				sender, receiver := &groups[2*p], &groups[2*p+1]
				if phase == 1 {
					sender, receiver = receiver, sender
				}
				if r := indexOf(sender.pool, env.ID()); r >= 0 && r < band {
					role, myBand = roleSender(r), p
				} else if indexOf(receiver.pool, env.ID()) >= 0 {
					role, myBand = roleReceiver, p
				}
			}
			for i := 0; i < mergeReps; i++ {
				switch {
				case role >= 0: // sender with rank = role
					env.Transmit(myBand*band+int(role), knowledge())
				case role == roleReceiver:
					k := myBand*band + env.Rand().Intn(band)
					if m, ok := env.Listen(k).(MergeMsg); ok {
						merge(m)
					}
				default:
					env.Sleep()
				}
			}
		}
		// Collapse pairs.
		next := make([]group, 0, (len(groups)+1)/2)
		for p := 0; p < pairs; p++ {
			a, b := groups[2*p], groups[2*p+1]
			next = append(next, group{
				channels: append(append([]int(nil), a.channels...), b.channels...),
				pool:     append(append([]int(nil), a.pool...), b.pool...),
			})
		}
		if len(groups)%2 == 1 {
			next = append(next, groups[len(groups)-1])
		}
		groups = next
	}

	// Final dissemination: the surviving group's first C witnesses occupy
	// every physical channel; everyone else listens on random channels.
	final := groups[0]
	myRank := indexOf(final.pool, env.ID())
	for i := 0; i < finalReps; i++ {
		if myRank >= 0 && myRank < c {
			env.Transmit(myRank, knowledge())
		} else {
			k := env.Rand().Intn(c)
			if m, ok := env.Listen(k).(MergeMsg); ok {
				merge(m)
			}
		}
	}

	out := make([]bool, L)
	for i := range out {
		out[i] = known[i] && flags[i]
	}
	return out, nil
}

// Role encoding for merge sub-phases: senders are identified by their
// non-negative band rank; receivers and bystanders by negative sentinels.
type mergeRole = int

const (
	roleReceiver mergeRole = -1
	roleNone     mergeRole = -2
)

func roleSender(rank int) mergeRole { return mergeRole(rank) }

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
