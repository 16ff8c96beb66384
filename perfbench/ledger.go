package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"securadio/internal/radio"
)

// The per-layer ledger. A traced run executes the same simulation as an
// untraced one, reassembled from the protocol's node programs (core.Proc,
// groupkey.RunNode, secure.Attach and Step) on radio.RunContext, with
// timing wrappers at the three layer boundaries the public seams expose:
//
//   - timedEnv wraps each node's radio.Env: the time between two round
//     operations is the node program's own work, booked to the protocol
//     layer the node is in;
//   - timedAdversary wraps the interferer's Plan and Observe calls;
//   - timedTransport wraps a pluggable transport's Open and Commit.
//
// The ledger runs at GOMAXPROCS=1, where the engine resumes the node
// programs as coroutines one at a time, so the self times never overlap
// and the engine's share is what remains of the run's wall time. Every
// boundary costs clock reads; calibrate measures that cost on no-op inner
// layers and the ledger subtracts it per boundary, so the corrected layer
// times add up to the untraced wall time (bench.ledger_residual_frac says
// how closely).

// layer names the protocol layer a node's own work is booked to.
type layer int

const (
	layerCore     layer = iota // f-AME node program (core.Run)
	layerGroupKey              // group-key parts 2-3, DH set-up and key derivation
	layerSecure                // long-lived secure channel
	numLayers
)

// groupKeyPart1 is the checkpoint tag the group-key protocol passes when
// its f-AME part ends; a traced node moves from the core layer to the
// group-key layer there.
const groupKeyPart1 = "groupkey/part1"

var clockBase = time.Now()

// clock reads the monotonic clock in nanoseconds.
func clock() int64 { return int64(time.Since(clockBase)) }

// timedEnv wraps one node's Env. A gap (the node's own work between two
// round operations) is booked to layer, then layer becomes next: a
// keyed node starts in the group-key layer (DH key generation precedes
// f-AME) and enters the core layer at its first round operation.
type timedEnv struct {
	radio.Env
	layer, next layer
	last        int64
	ops         int64 // wrapped round operations
	marks       int64 // clock reads outside round operations
	self        [numLayers]int64
	gaps        [numLayers]int64
	rounds      [numLayers]int64 // node-rounds taken while in the layer
}

func (e *timedEnv) enter(rounds int) {
	now := clock()
	e.self[e.layer] += now - e.last
	e.gaps[e.layer]++
	e.layer = e.next
	e.rounds[e.layer] += int64(max(rounds, 0))
	e.ops++
}

func (e *timedEnv) exit() { e.last = clock() }

// mark closes the current gap and moves the node to layer l.
func (e *timedEnv) mark(l layer) {
	now := clock()
	e.self[e.layer] += now - e.last
	e.gaps[e.layer]++
	e.last = now
	e.layer, e.next = l, l
	e.marks++
}

func (e *timedEnv) Transmit(ch int, m radio.Message) { e.enter(1); e.Env.Transmit(ch, m); e.exit() }

func (e *timedEnv) Listen(ch int) radio.Message {
	e.enter(1)
	m := e.Env.Listen(ch)
	e.exit()
	return m
}

func (e *timedEnv) Sleep() { e.enter(1); e.Env.Sleep(); e.exit() }

func (e *timedEnv) SleepFor(rounds int) { e.enter(rounds); e.Env.SleepFor(rounds); e.exit() }

func (e *timedEnv) Checkpoint(tag string) {
	e.enter(1)
	e.Env.Checkpoint(tag)
	e.exit()
	if tag == groupKeyPart1 {
		e.layer, e.next = layerGroupKey, layerGroupKey
	}
}

// markLayer moves a traced node to layer l; on an untraced Env it does
// nothing, so one node program serves both kinds of run.
func markLayer(env radio.Env, l layer) {
	if te, ok := env.(*timedEnv); ok {
		te.mark(l)
	}
}

// timedAdversary times an interferer's calls. Only the round's resolving
// goroutine calls an adversary, so the counters need no lock.
type timedAdversary struct {
	inner radio.Adversary
	ns    int64
	calls int64
}

func (a *timedAdversary) Plan(round int) []radio.Transmission {
	t0 := clock()
	tx := a.inner.Plan(round)
	a.ns += clock() - t0
	a.calls++
	return tx
}

func (a *timedAdversary) Observe(o radio.RoundObservation) {
	t0 := clock()
	a.inner.Observe(o)
	a.ns += clock() - t0
	a.calls++
}

// timedOmniscient keeps an omniscient interferer omniscient: the engine
// picks PlanOmniscient by interface assertion.
type timedOmniscient struct {
	*timedAdversary
	omni radio.OmniscientAdversary
}

func (a timedOmniscient) PlanOmniscient(round int, pending []radio.NodeAction) []radio.Transmission {
	t0 := clock()
	tx := a.omni.PlanOmniscient(round, pending)
	a.ns += clock() - t0
	a.calls++
	return tx
}

// timedTransport times a transport's Open and every Commit of its Conns.
// Close is passed through untimed: the engine may call it from a context
// watcher concurrently with Commit.
type timedTransport struct {
	inner   radio.Transport
	ns      int64
	calls   int64
	commits int64
}

func (t *timedTransport) Name() string { return t.inner.Name() }

func (t *timedTransport) Open(cfg radio.Config) (radio.Conn, error) {
	t0 := clock()
	c, err := t.inner.Open(cfg)
	t.ns += clock() - t0
	t.calls++
	if err != nil {
		return nil, err
	}
	return &timedConn{t: t, inner: c}, nil
}

type timedConn struct {
	t     *timedTransport
	inner radio.Conn
}

func (c *timedConn) Commit(round int, txs []radio.WireTx) ([]radio.ChannelOutcome, error) {
	t0 := clock()
	out, err := c.inner.Commit(round, txs)
	c.t.ns += clock() - t0
	c.t.calls++
	c.t.commits++
	return out, err
}

func (c *timedConn) Close() error { return c.inner.Close() }

// runTrace is the wrapper set of one traced run.
type runTrace struct {
	envs []*timedEnv
	adv  timedAdversary
	x    timedTransport
}

// nodes wraps every node program so it runs on a timedEnv that starts in
// layer start and books its first gap there before moving to next.
func (rt *runTrace) nodes(procs []radio.Process, start, next layer) []radio.Process {
	rt.envs = make([]*timedEnv, len(procs))
	out := make([]radio.Process, len(procs))
	for i, proc := range procs {
		out[i] = func(env radio.Env) {
			te := &timedEnv{Env: env, layer: start, next: next, last: clock()}
			rt.envs[i] = te
			proc(te)
			te.mark(te.layer) // book the final gap
		}
	}
	return out
}

// adversary wraps adv; nil stays nil so the engine keeps its
// no-interference path.
func (rt *runTrace) adversary(adv radio.Adversary) radio.Adversary {
	if adv == nil {
		return nil
	}
	rt.adv.inner = adv
	if o, ok := adv.(radio.OmniscientAdversary); ok {
		return timedOmniscient{&rt.adv, o}
	}
	return &rt.adv
}

// transport wraps t; nil stays nil (the native in-memory medium).
func (rt *runTrace) transport(t radio.Transport) radio.Transport {
	if t == nil {
		return nil
	}
	rt.x.inner = t
	return &rt.x
}

// runFacts carries what a traced run reports beyond its outcome string.
type runFacts struct {
	res                  radio.Result
	gameMoves            int
	attempted, delivered int
	keyed                bool
	holders, n           int
}

// simCase is one simulation the ledger runs twice: untraced through the
// entry point the workload measures, and traced through the reassembled
// node programs. Both return a canonical outcome string, and the two must
// be equal — the wrappers have to be transparent.
type simCase struct {
	plain  func(ctx context.Context) (string, error)
	traced func(ctx context.Context, rt *runTrace) (string, runFacts, error)
}

// calibration is the measured cost of each traced boundary, in ns.
type calibration struct {
	opTotal, opGap  float64 // per wrapped round operation: extra wall, and the part inside recorded gaps
	read            float64 // one clock read (a mark)
	advTotal, advIn float64 // per wrapped adversary call: extra wall, and the part inside recorded time
	xTotal, xIn     float64 // per wrapped transport call
}

const calOps = 1 << 17

// calibrate times each wrapper around a no-op inner layer against the
// bare interface call and keeps the median of several repetitions.
func calibrate() calibration {
	const reps = 7
	var s [7][reps]float64
	for r := 0; r < reps; r++ {
		var noop noopEnv
		direct := loopEnv(noop)
		te := &timedEnv{Env: noop, last: clock()}
		wrapped := loopEnv(te)
		s[0][r] = float64(wrapped-direct) / calOps
		s[1][r] = float64(te.self[layerCore]) / calOps

		t0 := clock()
		for i := 0; i < calOps; i++ {
			clock()
		}
		s[2][r] = float64(clock()-t0) / calOps

		var na noopAdversary
		direct = loopAdversary(na)
		ta := &timedAdversary{inner: na}
		wrapped = loopAdversary(ta)
		s[3][r] = float64(wrapped-direct) / calOps
		s[4][r] = float64(ta.ns) / calOps

		var nc noopConn
		direct = loopConn(nc)
		tc := &timedConn{t: &timedTransport{}, inner: nc}
		wrapped = loopConn(tc)
		s[5][r] = float64(wrapped-direct) / calOps
		s[6][r] = float64(tc.t.ns) / calOps
	}
	m := func(i int) float64 { return max(median(s[i][:]), 0) }
	return calibration{
		opTotal: m(0), opGap: m(1), read: m(2),
		advTotal: m(3), advIn: m(4), xTotal: m(5), xIn: m(6),
	}
}

//go:noinline
func loopEnv(env radio.Env) int64 {
	t0 := clock()
	for i := 0; i < calOps; i++ {
		env.Listen(0)
	}
	return clock() - t0
}

//go:noinline
func loopAdversary(adv radio.Adversary) int64 {
	t0 := clock()
	for i := 0; i < calOps; i++ {
		adv.Plan(i)
	}
	return clock() - t0
}

//go:noinline
func loopConn(c radio.Conn) int64 {
	t0 := clock()
	for i := 0; i < calOps; i++ {
		c.Commit(i, nil)
	}
	return clock() - t0
}

type noopEnv struct{}

func (noopEnv) Transmit(int, radio.Message) {}
func (noopEnv) Listen(int) radio.Message    { return nil }
func (noopEnv) Sleep()                      {}
func (noopEnv) SleepFor(int)                {}
func (noopEnv) Checkpoint(string)           {}
func (noopEnv) Round() int                  { return 0 }
func (noopEnv) ID() int                     { return 0 }
func (noopEnv) N() int                      { return 1 }
func (noopEnv) C() int                      { return 2 }
func (noopEnv) T() int                      { return 0 }
func (noopEnv) Rand() *rand.Rand            { return nil }

type noopAdversary struct{}

func (noopAdversary) Plan(int) []radio.Transmission  { return nil }
func (noopAdversary) Observe(radio.RoundObservation) {}

type noopConn struct{}

func (noopConn) Commit(int, []radio.WireTx) ([]radio.ChannelOutcome, error) { return nil, nil }
func (noopConn) Close() error                                               { return nil }

// ledger accumulates the traced and untraced executions of a ledger pass.
type ledger struct {
	cal calibration

	runs               int
	plainNS, tracedNS  int64
	mallocs, allocated uint64

	self       [numLayers]int64
	gaps       [numLayers]int64
	nodeRounds [numLayers]int64
	ops, marks int64

	advNS, advCalls       int64
	xNS, xCalls, xCommits int64

	rounds, advTx, xDrops int64
	gameMoves             int64
	attempted, delivered  int64
	keyedNodes, holders   int64
}

// runLedger executes cases 0, 1, ... untraced and traced, alternating
// which goes first, at GOMAXPROCS=1 until the deadline passes (and at
// least minRuns times). A traced outcome that differs from its untraced
// twin is an error.
func runLedger(ctx context.Context, next func(i int) simCase, deadline time.Time, minRuns int) (*ledger, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lg := &ledger{cal: calibrate()}
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := next(i)
		var (
			want, got          string
			facts              runFacts
			plainNS, traceNS   int64
			mallocs, allocated uint64
			rt                 = &runTrace{}
		)
		plain := func() error {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := clock()
			var err error
			want, err = c.plain(ctx)
			plainNS = clock() - t0
			runtime.ReadMemStats(&ms1)
			mallocs, allocated = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
			return err
		}
		traced := func() error {
			t0 := clock()
			var err error
			got, facts, err = c.traced(ctx, rt)
			traceNS = clock() - t0
			return err
		}
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("ledger run %d: %w", i, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("ledger run %d: %w", i, err)
		}
		if got != want {
			return nil, fmt.Errorf("ledger run %d: traced outcome differs from the untraced one:\n  traced   %s\n  untraced %s", i, got, want)
		}
		lg.fold(rt, facts, plainNS, traceNS, mallocs, allocated)
	}
	return lg, nil
}

func (lg *ledger) fold(rt *runTrace, f runFacts, plainNS, tracedNS int64, mallocs, allocated uint64) {
	lg.runs++
	lg.plainNS += plainNS
	lg.tracedNS += tracedNS
	lg.mallocs += mallocs
	lg.allocated += allocated
	for _, e := range rt.envs {
		for l := range numLayers {
			lg.self[l] += e.self[l]
			lg.gaps[l] += e.gaps[l]
			lg.nodeRounds[l] += e.rounds[l]
		}
		lg.ops += e.ops
		lg.marks += e.marks
	}
	lg.advNS += rt.adv.ns
	lg.advCalls += rt.adv.calls
	lg.xNS += rt.x.ns
	lg.xCalls += rt.x.calls
	lg.xCommits += rt.x.commits
	lg.rounds += int64(f.res.Rounds)
	lg.advTx += int64(f.res.AdversarialTransmissions)
	lg.xDrops += int64(f.res.TransportDrops)
	lg.gameMoves += int64(f.gameMoves)
	lg.attempted += int64(f.attempted)
	lg.delivered += int64(f.delivered)
	if f.keyed {
		lg.keyedNodes += int64(f.n)
		lg.holders += int64(f.holders)
	}
}

// ledgerTimes is a ledger pass reduced to calibrated layer self times.
type ledgerTimes struct {
	wall, engine, adversary, transport float64
	self                               [numLayers]float64
}

func (lg *ledger) times() ledgerTimes {
	c := lg.cal
	var t ledgerTimes
	t.wall = float64(lg.tracedNS) -
		float64(lg.ops)*c.opTotal - float64(lg.marks)*c.read -
		float64(lg.advCalls)*c.advTotal - float64(lg.xCalls)*c.xTotal
	t.adversary = float64(lg.advNS) - float64(lg.advCalls)*c.advIn
	t.transport = float64(lg.xNS) - float64(lg.xCalls)*c.xIn
	t.engine = t.wall - t.adversary - t.transport
	for l := range numLayers {
		t.self[l] = float64(lg.self[l]) - float64(lg.gaps[l])*c.opGap
		t.engine -= t.self[l]
	}
	return t
}

// metrics renders the ledger's per-layer metrics.
func (lg *ledger) metrics(m metricSet) {
	t := lg.times()
	runs := float64(lg.runs)
	var nodeRounds int64
	for _, n := range lg.nodeRounds {
		nodeRounds += n
	}
	m.set("ledger.runs", runs)
	m.set("ledger.run_us", float64(lg.plainNS)/runs/1e3)
	m.set("radio.node_rounds_per_run", float64(nodeRounds)/runs)
	m.set("radio.rounds_per_run", float64(lg.rounds)/runs)
	m.set("radio.engine_ns_per_node_round", ratio(t.engine, float64(nodeRounds)))
	m.set("core.self_ns_per_node_round", ratio(t.self[layerCore], float64(lg.nodeRounds[layerCore])))
	m.set("core.game_moves_per_run", float64(lg.gameMoves)/runs)
	m.set("outcome.delivery_rate", ratio(float64(lg.delivered), float64(lg.attempted)))
	m.set("adversary.ns_per_round", ratio(t.adversary, float64(lg.rounds)))
	m.set("adversary.tx_per_round", ratio(float64(lg.advTx), float64(lg.rounds)))
	m.set("groupkey.self_frac", ratio(t.self[layerGroupKey], t.wall))
	m.set("groupkey.agreed_frac", ratio(float64(lg.holders), float64(lg.keyedNodes)))
	m.set("secure.self_frac", ratio(t.self[layerSecure], t.wall))
	m.set("transport.self_frac", ratio(t.transport, t.wall))
	m.set("transport.commits_per_run", float64(lg.xCommits)/runs)
	m.set("transport.drops_per_run", float64(lg.xDrops)/runs)
	m.set("alloc.objects_per_run", float64(lg.mallocs)/runs)
	m.set("alloc.kb_per_run", float64(lg.allocated)/runs/1024)
	m.set("bench.boundary_ns", lg.cal.opTotal)
	m.set("bench.trace_overhead_frac", float64(lg.tracedNS)/float64(lg.plainNS)-1)
	plain := float64(lg.plainNS)
	diff := plain - t.wall
	if diff < 0 {
		diff = -diff
	}
	m.set("bench.ledger_residual_frac", diff/plain)
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
