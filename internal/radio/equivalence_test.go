package radio_test

// Cross-scheduler equivalence suite. The golden digests in
// testdata/equivalence.golden were captured from the seed engine (the
// per-node channel-rendezvous scheduler that predates the pump) and pin
// down every observable output of a run: the full Trace stream — every
// action, adversarial transmission, delivery and transmitter count of
// every round — plus the final Result and error. Any scheduler rewrite
// must reproduce these byte-for-byte.
//
// Regenerate (only when intentionally changing observable semantics):
//
//	go test ./internal/radio -run TestSchedulerEquivalence -update

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"securadio/internal/bitset"
	"securadio/internal/fault"
	"securadio/internal/radio"
)

var update = flag.Bool("update", false, "rewrite testdata/equivalence.golden from the current engine")

// maskBit reads one bit of a fault mask, treating an absent mask as
// all-false — exactly bitset.Set's nil-safe Get, so the digest bytes are
// unchanged from the []bool-mask era.
func maskBit(m bitset.Set, i int) bool { return m.Get(i) }

// digestTrace canonically encodes one round observation into the digest.
func digestObservation(h hash.Hash, o radio.RoundObservation) {
	fmt.Fprintf(h, "round=%d\n", o.Round)
	for id, a := range o.Actions {
		fmt.Fprintf(h, "  act[%d]=%d ch=%d msg=%v tag=%q\n", id, int(a.Op), a.Channel, a.Msg, a.Tag)
	}
	for _, tx := range o.Adversarial {
		fmt.Fprintf(h, "  adv ch=%d msg=%v\n", tx.Channel, tx.Msg)
	}
	for c, m := range o.Delivered {
		fmt.Fprintf(h, "  del[%d]=%v n=%d\n", c, m, o.Transmitters[c])
	}
	// Fault observability is digested only when a fault plan is active, so
	// the fault-free cells keep the exact digests captured from the seed
	// engine (which predates the fault layer).
	if o.Down != nil || o.Faded != nil || o.Dropped != nil {
		fmt.Fprintf(h, "  faults drops=%d deaths=%d rec=%d\n", o.FaultDrops, o.Deaths, o.Recoveries)
		for id := range o.Actions {
			fmt.Fprintf(h, "  down[%d]=%v\n", id, maskBit(o.Down, id))
		}
		for c := range o.Delivered {
			fmt.Fprintf(h, "  ch[%d] faded=%v dropped=%v\n", c, maskBit(o.Faded, c), maskBit(o.Dropped, c))
		}
	}
}

// jamSpoofAdversary is a self-contained seeded adversary for the
// equivalence grid: it mixes jamming, spoofing, over-budget plans and
// out-of-range channels (exercising the engine's clipping), and it folds
// every observation it receives into its own running digest so the
// Observe contract is pinned too.
type jamSpoofAdversary struct {
	t, c int
	rng  *rand.Rand
	h    hash.Hash
}

func (a *jamSpoofAdversary) Plan(round int) []radio.Transmission {
	k := a.rng.Intn(2*a.t + 2) // routinely exceeds the budget
	txs := make([]radio.Transmission, 0, k)
	for i := 0; i < k; i++ {
		ch := a.rng.Intn(a.c+2) - 1 // occasionally out of range on both sides
		txs = append(txs, radio.Transmission{Channel: ch, Msg: fmt.Sprintf("spoof/%d/%d", round, i)})
	}
	return txs
}

func (a *jamSpoofAdversary) Observe(o radio.RoundObservation) { digestObservation(a.h, o) }

// omniJammer jams the first pending honest transmission it sees,
// exercising the omniscient planning path.
type omniJammer struct{ h hash.Hash }

func (o *omniJammer) Plan(int) []radio.Transmission      { return nil }
func (o *omniJammer) Observe(obs radio.RoundObservation) { digestObservation(o.h, obs) }
func (o *omniJammer) PlanOmniscient(round int, pending []radio.NodeAction) []radio.Transmission {
	for _, a := range pending {
		if a.Op == radio.OpTransmit {
			return []radio.Transmission{{Channel: a.Channel, Msg: "omni-jam"}}
		}
	}
	return nil
}

// equivCase is one cell of the (N, C, T, adversary, faults, seed) grid.
type equivCase struct {
	name      string
	n, c, t   int
	seed      int64
	rounds    int
	adversary func(h hash.Hash) radio.Adversary // nil => no interference
	faults    func(tc equivCase) *fault.Plan    // nil => fault-free
	procs     func(tc equivCase) []radio.Process
}

// mixedProcs is the generic workload: every node drives its private RNG
// through transmit/listen/sleep decisions for a fixed number of rounds.
func mixedProcs(tc equivCase) []radio.Process {
	procs := make([]radio.Process, tc.n)
	for i := 0; i < tc.n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r < tc.rounds; r++ {
				switch e.Rand().Intn(3) {
				case 0:
					e.Transmit(e.Rand().Intn(e.C()), i*1000+r)
				case 1:
					e.Listen(e.Rand().Intn(e.C()))
				default:
					e.Sleep()
				}
			}
		}
	}
	return procs
}

// staggeredProcs makes node i live for i+1 rounds, so the live-node set
// shrinks every round and the engine's done-node bookkeeping is pinned.
func staggeredProcs(tc equivCase) []radio.Process {
	procs := make([]radio.Process, tc.n)
	for i := 0; i < tc.n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r <= i; r++ {
				if r%2 == 0 {
					e.Transmit((i+r)%e.C(), fmt.Sprintf("s/%d/%d", i, r))
				} else {
					e.Listen(r % e.C())
				}
			}
		}
	}
	return procs
}

// checkpointProcs interleaves checkpoint barriers with mixed traffic.
func checkpointProcs(tc equivCase) []radio.Process {
	procs := make([]radio.Process, tc.n)
	for i := 0; i < tc.n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for phase := 0; phase < 3; phase++ {
				for r := 0; r < 4; r++ {
					if (i+r)%2 == 0 {
						e.Transmit(r%e.C(), i)
					} else {
						e.Listen(r % e.C())
					}
				}
				e.Checkpoint(fmt.Sprintf("phase-%d", phase))
			}
		}
	}
	return procs
}

// listenerProcs is the spoof-heavy workload: almost everyone listens.
func listenerProcs(tc equivCase) []radio.Process {
	procs := make([]radio.Process, tc.n)
	for i := 0; i < tc.n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r < tc.rounds; r++ {
				if i == 0 && r%3 == 0 {
					e.Transmit(e.Rand().Intn(e.C()), "beacon")
				} else {
					e.Listen(e.Rand().Intn(e.C()))
				}
			}
		}
	}
	return procs
}

func equivGrid() []equivCase {
	jam := func(t, c int, seed int64) func(hash.Hash) radio.Adversary {
		return func(h hash.Hash) radio.Adversary {
			return &jamSpoofAdversary{t: t, c: c, rng: rand.New(rand.NewSource(seed)), h: h}
		}
	}
	omni := func(h hash.Hash) radio.Adversary { return &omniJammer{h: h} }
	// churnLoss compiles a wide churn + independent-fade loss plan for the
	// cell; correlatedLoss drives every channel from one shared fade state.
	// Both are pure functions of the cell, so each runDigest call gets an
	// equivalent freshly compiled plan.
	churnLoss := func(tc equivCase) *fault.Plan {
		return fault.MustCompile(fault.Profile{
			CrashFrac: 0.2, RecoverFrac: 0.15, LateFrac: 0.1, Horizon: 40,
			Loss: &fault.LossModel{PGoodBad: 0.2, PBadGood: 0.4, DropGood: 0.02, DropBad: 0.8},
		}, tc.n, tc.c, tc.seed+0x66)
	}
	correlatedLoss := func(tc equivCase) *fault.Plan {
		return fault.MustCompile(fault.Profile{
			LateFrac: 0.3, Horizon: 30,
			Loss: &fault.LossModel{PGoodBad: 0.3, PBadGood: 0.3, DropBad: 0.9, Correlated: true},
		}, tc.n, tc.c, tc.seed+0x77)
	}
	return []equivCase{
		{name: "solo/N=1", n: 1, c: 2, t: 0, seed: 3, rounds: 10, procs: mixedProcs},
		{name: "mixed/N=8/C=3/T=1/silent", n: 8, c: 3, t: 1, seed: 1, rounds: 40, procs: mixedProcs},
		{name: "mixed/N=8/C=3/T=1/jam", n: 8, c: 3, t: 1, seed: 2, rounds: 40, adversary: jam(1, 3, 1001), procs: mixedProcs},
		{name: "mixed/N=16/C=5/T=3/jam", n: 16, c: 5, t: 3, seed: 7, rounds: 32, adversary: jam(3, 5, 1002), procs: mixedProcs},
		{name: "mixed/N=32/C=4/T=2/omni", n: 32, c: 4, t: 2, seed: 11, rounds: 24, adversary: omni, procs: mixedProcs},
		{name: "staggered/N=12/C=3/T=1/jam", n: 12, c: 3, t: 1, seed: 5, adversary: jam(1, 3, 1003), procs: staggeredProcs},
		{name: "staggered/N=7/C=2/T=1/silent", n: 7, c: 2, t: 1, seed: 9, procs: staggeredProcs},
		{name: "checkpoint/N=6/C=2/T=1/jam", n: 6, c: 2, t: 1, seed: 13, adversary: jam(1, 2, 1004), procs: checkpointProcs},
		{name: "spoof/N=5/C=4/T=3/jam", n: 5, c: 4, t: 3, seed: 17, rounds: 30, adversary: jam(3, 4, 1005), procs: listenerProcs},
		{name: "wide/N=6/C=70/T=10/jam", n: 6, c: 70, t: 10, seed: 19, rounds: 25, adversary: jam(10, 70, 1006), procs: mixedProcs},
		{name: "wide/N=4/C=96/T=40/jam", n: 4, c: 96, t: 40, seed: 23, rounds: 20, adversary: jam(40, 96, 1007), procs: listenerProcs},
		{name: "wide/N=6/C=128/T=12/jam", n: 6, c: 128, t: 12, seed: 29, rounds: 24, adversary: jam(12, 128, 1008), procs: mixedProcs},
		{name: "wide/N=5/C=512/T=64/jam", n: 5, c: 512, t: 64, seed: 31, rounds: 16, adversary: jam(64, 512, 1009), procs: listenerProcs},
		{name: "wide/N=8/C=200/T=20/omni", n: 8, c: 200, t: 20, seed: 37, rounds: 20, adversary: omni, procs: mixedProcs},
		{name: "faulted/N=12/C=96/T=8/jam", n: 12, c: 96, t: 8, seed: 41, rounds: 60, adversary: jam(8, 96, 1010), faults: churnLoss, procs: mixedProcs},
		{name: "faulted/N=10/C=80/T=0/correlated", n: 10, c: 80, t: 0, seed: 43, rounds: 50, faults: correlatedLoss, procs: mixedProcs},
	}
}

// runDigest executes one grid cell and returns the hex digest of its
// complete observable output.
func runDigest(tc equivCase) (string, error) {
	h := sha256.New()
	cfg := radio.Config{
		N: tc.n, C: tc.c, T: tc.t, Seed: tc.seed,
		Trace: func(o radio.RoundObservation) { digestObservation(h, o) },
	}
	if tc.adversary != nil {
		cfg.Adversary = tc.adversary(h)
	}
	if tc.faults != nil {
		cfg.Faults = tc.faults(tc)
	}
	res, err := radio.Run(cfg, tc.procs(tc))
	// The Result fields are enumerated (in their original declaration
	// order) rather than rendered with %+v so that adding fields to
	// radio.Result does not silently invalidate the stored seed-engine
	// digests. Transport drops are asserted zero instead of hashed: the
	// equivalence grid runs only the native medium.
	if res.TransportDrops != 0 {
		err = fmt.Errorf("native run reported %d transport drops", res.TransportDrops)
	}
	fmt.Fprintf(h, "result={Rounds:%d HonestTransmissions:%d AdversarialTransmissions:%d Collisions:%d SpoofDeliveries:%d} err=%v\n",
		res.Rounds, res.HonestTransmissions, res.AdversarialTransmissions, res.Collisions, res.SpoofDeliveries, err)
	return hex.EncodeToString(h.Sum(nil)), err
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "equivalence.golden")
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath(t))
	if err != nil {
		t.Fatalf("golden file missing (run with -update to capture): %v", err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestSchedulerEquivalence replays the grid and compares every digest
// against the goldens captured from the seed engine.
func TestSchedulerEquivalence(t *testing.T) {
	grid := equivGrid()
	if *update {
		var b strings.Builder
		b.WriteString("# Golden trace digests captured from the seed (channel-rendezvous) engine.\n")
		b.WriteString("# One line per grid cell: <case-name> <sha256 of the full Trace stream + Result>.\n")
		names := make([]string, 0, len(grid))
		byName := make(map[string]equivCase, len(grid))
		for _, tc := range grid {
			names = append(names, tc.name)
			byName[tc.name] = tc
		}
		sort.Strings(names)
		for _, name := range names {
			d, err := runDigest(byName[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "%s %s\n", name, d)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath(t)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(t), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests", len(grid))
		return
	}

	golden := readGolden(t)
	if len(golden) != len(grid) {
		t.Fatalf("golden file has %d entries, grid has %d (regenerate with -update)", len(golden), len(grid))
	}
	// The pump must reproduce the seed engine's digests.
	for _, tc := range grid {
		tc := tc
		t.Run("pump/"+tc.name, func(t *testing.T) {
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden digest for %q (regenerate with -update)", tc.name)
			}
			got, err := runDigest(tc)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if got != want {
				t.Fatalf("trace digest diverged from the seed engine:\n got %s\nwant %s", got, want)
			}
			// The digest must also be stable across repeated runs of
			// the same engine (determinism, not just equivalence).
			again, _ := runDigest(tc)
			if again != got {
				t.Fatalf("engine is nondeterministic: %s then %s", got, again)
			}
		})
	}
}
