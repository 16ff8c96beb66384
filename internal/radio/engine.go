package radio

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"securadio/internal/bitset"
	"securadio/internal/fault"
)

// abortSignal is thrown (via panic) inside a node coroutine when the
// engine tears a run down early; stopNode absorbs it.
type abortSignal struct{}

// engine is the shared state of one run: the per-node action slots, the
// per-channel delivery slots and the resolution state the pump drives.
//
// Each round, the pump (pump.go) resumes every live node's coroutine in ID
// order until the node writes its next NodeAction into actions[id], its
// private slot; resolveCommitted then resolves the round on the Run
// caller's goroutine: it collects the committed actions in ID order,
// merges in the adversary's transmissions, resolves collision semantics
// into delivered and lets the adversary and tracer observe. Each node
// reads its own delivery from the channel slots when the pump next
// resumes it.
//
// Exactly one of the run's coroutines executes at a time, so the slots
// need no locks, resolution is single-threaded, every execution is a pure
// function of Config.Seed, and the steady-state round loop performs no
// allocation at all.
type engine struct {
	cfg       Config
	adv       Adversary
	omni      OmniscientAdversary
	isOmni    bool
	silent    bool // no adversary configured: skip the adversary phases
	maxRounds int

	// Fault injection. flt duplicates cfg.Faults so the hot paths touch
	// one field; faulty gates every fault branch, keeping the disabled
	// engine on its original instruction stream.
	flt    *fault.Plan
	faulty bool

	// Cancellation. ctxDone is nil for an uncancellable context
	// (context.Background and friends), which keeps the steady-state
	// round loop at a single nil comparison per round.
	ctx     context.Context
	ctxDone <-chan struct{}

	// Resolution state.
	round int
	res   Result
	err   error

	// Per-node and per-channel slots.
	//
	// roster is the live-node list: the IDs of every node that has not yet
	// finished its program, ascending. Resolution scans the roster instead
	// of testing all N slots, so a round costs O(live nodes); finished
	// nodes are compacted out in place, which keeps the scan in ID order
	// (error attribution and checkpoint semantics depend on it). Churn-down
	// nodes STAY on the roster — "down" is a fault-layer condition that can
	// recover, "done" is protocol completion.
	//
	// touched lists the channels the CURRENT resolved round wrote
	// (delivered/transmitters/fromAdversary). The slots it names are
	// cleared lazily at the start of the NEXT round's resolution — they
	// must survive the inter-round window because each node reads its
	// delivery from the slots when the pump next resumes it.
	// All other channel slots hold their zero value as an invariant, so
	// phases 1–3 cost O(active transmissions), not O(C).
	actions       []NodeAction
	roster        []int32
	delivered     []Message
	transmitters  []int
	fromAdversary []bool
	touched       []int32
	advClip       []Transmission
	advUsed       bitset.Set // clipAdversary's channel de-duplication scratch

	// Transport state (Config.Transport != nil): the run's bound Conn,
	// the per-round wire buffer the committed transmissions are staged
	// in, the transport's per-round degradation masks (cleared lazily
	// through touched, like the channel slots), and merge scratch for
	// observations that must union a fault plan's masks with the
	// transport's. All nil/empty on native runs, which keeps the
	// in-memory medium on its original instruction stream.
	xconn       Conn
	wireTxs     []WireTx
	xDropped    bitset.Set
	xFaded      bitset.Set
	obsDropped  bitset.Set
	obsFaded    bitset.Set
	xRoundDrops int

	// Pump state (see pump.go).
	exited   []bool // coroutine has returned
	pumpNext []func() (struct{}, bool)
	pumpStop []func()

	envs []env
}

// enginePool recycles engine scratch — slots, scratch buffers, node RNGs
// — across runs. A 10k-run fleet campaign allocates its simulation state
// once per worker instead of once per run.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// sized returns buf resized to n cleared elements, reusing its backing
// array when the capacity allows.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// newEngine checks an engine out of the pool and readies it for cfg.
func newEngine(cfg *Config, adv Adversary, maxRounds int) *engine {
	eng := enginePool.Get().(*engine)
	eng.cfg = *cfg
	eng.adv = adv
	eng.omni, eng.isOmni = adv.(OmniscientAdversary)
	_, eng.silent = adv.(silentAdversary)
	eng.maxRounds = maxRounds
	eng.flt, eng.faulty = cfg.Faults, cfg.Faults != nil
	if eng.faulty {
		eng.flt.Reset()
	}

	eng.actions = sized(eng.actions, cfg.N)
	eng.roster = sized(eng.roster, cfg.N)
	for i := range eng.roster {
		eng.roster[i] = int32(i)
	}
	eng.delivered = sized(eng.delivered, cfg.C)
	eng.transmitters = sized(eng.transmitters, cfg.C)
	eng.fromAdversary = sized(eng.fromAdversary, cfg.C)
	if cap(eng.touched) < cfg.C {
		eng.touched = make([]int32, 0, cfg.C)
	}
	eng.touched = eng.touched[:0]
	if cap(eng.advClip) < cfg.T {
		eng.advClip = make([]Transmission, 0, cfg.T)
	}
	eng.advClip = eng.advClip[:0]
	if w := bitset.Words(cfg.C); cap(eng.advUsed) >= w {
		eng.advUsed = eng.advUsed[:w]
		eng.advUsed.ClearAll()
	} else {
		eng.advUsed = nil // re-made on demand by clipAdversary
	}
	eng.xconn = nil // bound by RunContext after Open
	eng.xRoundDrops = 0
	if cfg.Transport != nil {
		eng.wireTxs = eng.wireTxs[:0]
		eng.xDropped = bitset.Sized(eng.xDropped, cfg.C)
		eng.xFaded = bitset.Sized(eng.xFaded, cfg.C)
	}

	eng.round = 0
	eng.res = Result{}
	eng.err = nil

	if cap(eng.envs) < cfg.N {
		eng.envs = make([]env, cfg.N)
	}
	eng.envs = eng.envs[:cfg.N]
	for i := range eng.envs {
		e := &eng.envs[i]
		e.id = i
		e.eng = eng
		e.round = 0
		if e.rng == nil {
			e.rng = rand.New(newFastSource(deriveSeed(cfg.Seed, uint64(i))))
		} else {
			e.rng.Seed(deriveSeed(cfg.Seed, uint64(i)))
		}
	}
	return eng
}

// recycle scrubs payload references and returns the engine to the pool.
// Callers must not touch eng afterwards.
func (eng *engine) recycle() {
	eng.cfg = Config{}
	eng.adv, eng.omni = nil, nil
	eng.flt, eng.faulty = nil, false
	eng.ctx, eng.ctxDone = nil, nil
	eng.err = nil
	clear(eng.actions)
	clear(eng.delivered)
	clear(eng.pumpNext)
	clear(eng.pumpStop)
	for i := range eng.envs {
		eng.envs[i].yield = nil // drop coroutine/Process references held via yields
	}
	eng.advClip = eng.advClip[:cap(eng.advClip)]
	clear(eng.advClip)
	eng.advClip = eng.advClip[:0]
	eng.xconn = nil
	eng.wireTxs = eng.wireTxs[:cap(eng.wireTxs)]
	clear(eng.wireTxs) // scrub payload references
	eng.wireTxs = eng.wireTxs[:0]
	enginePool.Put(eng)
}

// env implements Env for one node. It is used only by that node's
// coroutine.
type env struct {
	id    int
	eng   *engine
	rng   *rand.Rand
	round int

	// yield suspends this node's coroutine until the pump resumes it.
	yield func(struct{}) bool
}

var _ Env = (*env)(nil)

func (e *env) ID() int          { return e.id }
func (e *env) N() int           { return e.eng.cfg.N }
func (e *env) C() int           { return e.eng.cfg.C }
func (e *env) T() int           { return e.eng.cfg.T }
func (e *env) Round() int       { return e.round }
func (e *env) Rand() *rand.Rand { return e.rng }

// step performs one round: it commits the action into this node's slot,
// suspends until the pump resumes this node — which happens only after the
// round resolved — and serves its own delivery from the engine's channel
// slots. A false yield is the pump cancelling the coroutine during
// teardown.
func (e *env) step(a NodeAction) Message {
	eng := e.eng
	eng.actions[e.id] = a
	if !e.yield(struct{}{}) {
		panic(abortSignal{})
	}
	e.round++
	if a.Op == OpListen {
		// A churn-silenced node's radio is deaf: it consumes the round in
		// lock-step but hears nothing. The down mask is written during
		// resolution and stable until the next round resolves, exactly
		// like the delivery slots.
		if eng.faulty && eng.flt.NodeDown(e.id) {
			return nil
		}
		return eng.delivered[a.Channel]
	}
	return nil
}

func (e *env) Transmit(channel int, msg Message) {
	e.step(NodeAction{Op: OpTransmit, Channel: channel, Msg: msg})
}

func (e *env) Listen(channel int) Message {
	return e.step(NodeAction{Op: OpListen, Channel: channel})
}

func (e *env) Sleep() {
	e.step(NodeAction{Op: OpSleep})
}

func (e *env) SleepFor(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Sleep()
	}
}

func (e *env) Checkpoint(tag string) {
	e.step(NodeAction{Op: OpCheckpoint, Tag: tag})
}

// silentAdversary is the default no-interference adversary.
type silentAdversary struct{}

func (silentAdversary) Plan(int) []Transmission  { return nil }
func (silentAdversary) Observe(RoundObservation) {}

// Run executes the given node programs on a network described by cfg and
// returns the run statistics. It blocks until every Process has returned
// (or the run is aborted), and never leaks goroutines. Run is
// RunContext with an uncancellable context.
func Run(cfg Config, procs []Process) (Result, error) {
	return RunContext(context.Background(), cfg, procs)
}

// RunContext is Run with cancellation: the engine checks ctx once per
// round (before resolving it) and, when the context is done, aborts the
// run through the normal teardown path — no goroutine leaks, no partially
// resolved rounds — returning an error that wraps both ErrCanceled and
// the context's own error. An uncancellable context costs the round loop
// one nil comparison per round, preserving the zero-allocation steady
// state.
func RunContext(ctx context.Context, cfg Config, procs []Process) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("%w before the run started: %w", ErrCanceled, context.Cause(ctx))
	}
	if len(procs) != cfg.N {
		return Result{}, fmt.Errorf("%w: got %d processes for N = %d", ErrProcessCount, len(procs), cfg.N)
	}
	for i, p := range procs {
		if p == nil {
			return Result{}, fmt.Errorf("%w (index %d)", errNilProcess, i)
		}
	}

	adv := cfg.Adversary
	if adv == nil {
		adv = silentAdversary{}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}

	eng := newEngine(&cfg, adv, maxRounds)
	if done := ctx.Done(); done != nil {
		eng.ctx, eng.ctxDone = ctx, done
	}
	var conn Conn
	if cfg.Transport != nil {
		c, terr := cfg.Transport.Open(cfg)
		if terr != nil {
			eng.recycle()
			return Result{}, fmt.Errorf("%w: open %s: %w", ErrTransport, cfg.Transport.Name(), terr)
		}
		conn = c
		eng.xconn = c
		// Close is idempotent by contract; the deferred call is the
		// leak guard for panic unwinds (adversary/trace panics escape
		// through runPump), while the explicit closeConn folds a Close
		// error into the run's result.
		defer conn.Close()
		// The engine observes cancellation at round granularity, which
		// is not enough once a Commit can block on a real medium: a
		// canceled run must not wait out a receive window (or a hung
		// peer) before tearing down. The watcher closes the Conn the
		// moment the context fires — Close unblocks an in-flight Commit
		// by contract — and resolveTransport maps the resulting Commit
		// error back to ErrCanceled.
		if done := ctx.Done(); done != nil {
			stop := make(chan struct{})
			go func() {
				select {
				case <-done:
					conn.Close()
				case <-stop:
				}
			}()
			defer close(stop)
		}
	}
	res, err := eng.runPump(procs)
	err = closeConn(conn, err)
	eng.recycle()
	return res, err
}

// closeConn closes a run's transport Conn (nil-safe) and folds a close
// failure into the run's error unless the run already failed.
func closeConn(conn Conn, err error) error {
	if conn == nil {
		return err
	}
	if cerr := conn.Close(); cerr != nil && err == nil {
		return fmt.Errorf("%w: close: %w", ErrTransport, cerr)
	}
	return err
}

// fail aborts the run from inside resolution: it records the error, and
// the pump tears the run down once resolveCommitted returns false.
func (eng *engine) fail(err error) {
	eng.err = err
}

// resolveCommitted resolves exactly one round from the committed action
// slots. It returns true when the round resolved and the run continues,
// false when the run ended (every node finished, or a violation went
// through fail).
func (eng *engine) resolveCommitted() bool {
	// Cancellation is observed at round granularity: the engine checks the
	// context once per round, before resolving, so a canceled run tears
	// down through the same abort path as any other failure and the
	// aborted round contributes nothing to the statistics.
	if eng.ctxDone != nil {
		select {
		case <-eng.ctxDone:
			eng.fail(fmt.Errorf("%w after %d rounds: %w", ErrCanceled, eng.res.Rounds, context.Cause(eng.ctx)))
			return false
		default:
		}
	}

	cfg := &eng.cfg
	round := eng.round
	actions := eng.actions
	delivered, transmitters, fromAdversary := eng.delivered, eng.transmitters, eng.fromAdversary

	// Fault plans advance at round granularity, before any action is
	// examined: churn windows open/close and the channel fade states take
	// their Markov step, consuming a traffic-independent number of random
	// draws so the schedule does not depend on what the nodes do.
	if eng.faulty {
		eng.flt.BeginRound(round)
	}

	// Lazily clear the channel slots the PREVIOUS round touched. The clear
	// cannot happen when that round resolves — each node reads its delivery
	// from the slots when the pump next resumes it — but by the time this
	// round resolves, every live node has been resumed, so the slots are
	// free. Every other channel already holds its zero value
	// (the invariant touched maintains), making this pass O(previous
	// round's active channels) instead of O(C).
	touched := eng.touched
	if eng.xconn != nil {
		for _, c := range touched {
			eng.xDropped.Remove(int(c))
			eng.xFaded.Remove(int(c))
		}
		clear(eng.wireTxs) // scrub the previous round's payload references
		eng.wireTxs = eng.wireTxs[:0]
	}
	for _, c := range touched {
		delivered[c] = nil
		transmitters[c] = 0
		fromAdversary[c] = false
	}
	touched = touched[:0]

	// Phase 1: collect the committed actions (ID order) and tally the
	// honest transmitters in the same pass, compacting finished nodes out
	// of the roster as they are discovered. In-place compaction preserves
	// ascending-ID iteration, which error attribution (first offender in ID
	// order) and checkpoint tag-precedence depend on. The per-channel
	// scratch may fill before validation finishes, but the Result counters
	// fold in only once the whole round has validated, so an aborted round
	// contributes nothing to the returned statistics.
	sawCheckpoint, sawOther := false, false
	checkpointTag := ""
	honestTx := 0
	roster := eng.roster
	w := 0
	for _, id32 := range roster {
		id := int(id32)
		a := &actions[id]
		switch a.Op {
		case opDone:
			*a = NodeAction{} // finished nodes observe as zero actions
			continue          // drops the node from the roster
		case OpTransmit, OpListen:
			if a.Channel < 0 || a.Channel >= cfg.C {
				eng.fail(fmt.Errorf("%w: node %d round %d: channel %d out of range [0,%d)", ErrBadAction, id, round, a.Channel, cfg.C))
				return false
			}
			if a.Op == OpTransmit {
				if eng.faulty && eng.flt.NodeDown(id) {
					// A down node's transmission never reaches the air.
					eng.flt.NoteSuppressed()
				} else if eng.xconn != nil {
					// Transport runs stage the transmission for Commit
					// instead of writing the channel slots directly.
					eng.wireTxs = append(eng.wireTxs, WireTx{From: id, Channel: a.Channel, Msg: a.Msg})
					honestTx++
				} else {
					if transmitters[a.Channel] == 0 {
						touched = append(touched, int32(a.Channel))
					}
					transmitters[a.Channel]++
					delivered[a.Channel] = a.Msg
					honestTx++
				}
			}
			sawOther = true
		case OpSleep:
			sawOther = true
		case OpCheckpoint:
			if sawCheckpoint && a.Tag != checkpointTag {
				eng.fail(fmt.Errorf("%w: round %d: tag %q vs %q", ErrCheckpoint, round, a.Tag, checkpointTag))
				return false
			}
			sawCheckpoint = true
			checkpointTag = a.Tag
		default:
			eng.fail(fmt.Errorf("%w: node %d round %d: unknown op %v", ErrBadAction, id, round, a.Op))
			return false
		}
		roster[w] = id32
		w++
	}
	eng.roster = roster[:w]
	if w == 0 {
		// Every node finished without starting this round: the run is
		// complete.
		return false
	}
	if sawCheckpoint && sawOther {
		eng.fail(fmt.Errorf("%w: round %d: checkpoint mixed with other operations", ErrCheckpoint, round))
		return false
	}
	eng.res.HonestTransmissions += honestTx

	// Phase 2 (skipped on silent runs — the no-interference default plans
	// nothing): the adversary commits its transmissions. A model-compliant
	// adversary sees only completed rounds; an omniscient one additionally
	// sees this round's honest actions.
	var advTx []Transmission
	if !eng.silent {
		if eng.isOmni {
			advTx = eng.omni.PlanOmniscient(round, actions)
		} else {
			advTx = eng.adv.Plan(round)
		}
		advTx = eng.clipAdversary(advTx)
		if eng.xconn != nil {
			for _, tx := range advTx {
				eng.wireTxs = append(eng.wireTxs, WireTx{From: AdversaryOrigin, Channel: tx.Channel, Msg: tx.Msg})
				eng.res.AdversarialTransmissions++
			}
		} else {
			for _, tx := range advTx {
				if transmitters[tx.Channel] == 0 {
					touched = append(touched, int32(tx.Channel))
				}
				transmitters[tx.Channel]++
				delivered[tx.Channel] = tx.Msg
				fromAdversary[tx.Channel] = true
				eng.res.AdversarialTransmissions++
			}
		}
	}
	eng.touched = touched

	// Phase 3: resolve collision semantics over the touched channels only
	// — every untouched channel has zero transmitters by the invariant
	// above, so skipping it is not an approximation. On silent runs
	// fromAdversary is all-false (never set), so the spoof arm is naturally
	// dead. With a fault plan active, the loss model erases a would-be
	// delivery after collision resolution and before spoof accounting: a
	// dropped spoof never reached any radio, so it does not count as
	// delivered. On transport runs the medium resolves collisions itself
	// (resolveTransport), and the fault plan's loss model still applies on
	// top of whatever the medium delivered, so a fault profile means the
	// same thing over every backend.
	if eng.xconn != nil {
		if !eng.resolveTransport(round) {
			return false
		}
		if eng.faulty {
			eng.flt.EndRound()
		}
	} else if eng.faulty {
		flt := eng.flt
		for _, c := range touched {
			switch {
			case transmitters[c] > 1:
				delivered[c] = nil
				eng.res.Collisions++
			case transmitters[c] == 1:
				if delivered[c] != nil && flt.DropNow(int(c)) {
					delivered[c] = nil
					flt.ApplyDrop(int(c))
				} else if fromAdversary[c] {
					eng.res.SpoofDeliveries++
				}
			}
		}
		flt.EndRound()
	} else {
		for _, c := range touched {
			switch {
			case transmitters[c] > 1:
				delivered[c] = nil
				eng.res.Collisions++
			case transmitters[c] == 1 && fromAdversary[c]:
				eng.res.SpoofDeliveries++
			}
		}
	}

	// Phase 4: the adversary (and any tracer) observes everything. This
	// must precede the next collect: as soon as nodes resume they
	// overwrite their action slots for the next round. Silent untraced
	// runs build no observation at all.
	if !eng.silent || cfg.Trace != nil {
		obs := RoundObservation{
			Round:        round,
			Actions:      actions,
			Adversarial:  advTx,
			Delivered:    delivered,
			Transmitters: transmitters,
		}
		if eng.faulty {
			flt := eng.flt
			obs.Down = flt.DownMask()
			obs.Faded = flt.FadeMask()
			obs.Dropped = flt.DropMask()
			obs.FaultDrops = flt.RoundDrops()
			obs.Deaths = flt.RoundDeaths()
			obs.Recoveries = flt.RoundRecoveries()
		}
		if eng.xconn != nil {
			// Transport-layer degradation (socket loss, jam windows)
			// surfaces through the same masks and counters the fault
			// layer uses, so observers see one uniform picture.
			obs.Dropped = mergeMask(&eng.obsDropped, obs.Dropped, eng.xDropped)
			obs.Faded = mergeMask(&eng.obsFaded, obs.Faded, eng.xFaded)
			obs.FaultDrops += eng.xRoundDrops
		}
		if !eng.silent {
			eng.adv.Observe(obs)
		}
		if cfg.Trace != nil {
			cfg.Trace(obs)
		}
	}
	eng.res.Rounds++
	eng.round++
	return true
}

// resolveTransport runs a transport round: it hands the staged wire
// transmissions to the backend and writes the medium's authoritative
// outcome into the engine's channel slots. Collision counting follows
// the medium's view (a datagram the medium lost does not collide with
// anything), transport drops and fades feed the engine's degradation
// masks, and the fault plan's loss model applies on top of whatever the
// medium delivered.
func (eng *engine) resolveTransport(round int) bool {
	outs, err := eng.xconn.Commit(round, eng.wireTxs)
	if err != nil {
		// A canceled run closes the Conn out from under an in-flight
		// Commit (see the watcher in RunContext); attribute that error
		// to the cancellation, not the transport.
		if eng.ctxDone != nil {
			select {
			case <-eng.ctxDone:
				eng.fail(fmt.Errorf("%w after %d rounds: %w", ErrCanceled, eng.res.Rounds, context.Cause(eng.ctx)))
				return false
			default:
			}
		}
		eng.fail(fmt.Errorf("%w: round %d commit: %w", ErrTransport, round, err))
		return false
	}
	eng.xRoundDrops = 0
	touched := eng.touched
	delivered, transmitters, fromAdversary := eng.delivered, eng.transmitters, eng.fromAdversary
	for i := range outs {
		oc := &outs[i]
		c := oc.Channel
		if c < 0 || c >= eng.cfg.C {
			eng.fail(fmt.Errorf("%w: round %d: outcome channel %d out of range [0,%d)", ErrTransport, round, c, eng.cfg.C))
			return false
		}
		touched = append(touched, int32(c))
		transmitters[c] = oc.Transmitters
		if oc.Transmitters > 1 {
			eng.res.Collisions++
		}
		if oc.Faded {
			eng.xFaded.Add(c)
		}
		if oc.Dropped {
			// The medium erased traffic on this channel. Transmitters
			// and Msg already describe the surviving transmissions, so
			// the drop only feeds the degradation accounting.
			eng.xDropped.Add(c)
			eng.xRoundDrops++
			eng.res.TransportDrops++
		}
		if oc.Transmitters != 1 {
			continue // silence (all erased, or a jam marker) or collision
		}
		// Single uncontested transmission: the fault plan's loss model
		// applies on top of the medium exactly as it does natively — a
		// delivery (non-nil payload) may be dropped; a nil-payload
		// occupation (pure jam) cannot be, and still counts as a spoof
		// when the occupier was the adversary, mirroring the native
		// resolution arms.
		if oc.Msg != nil && eng.faulty && eng.flt.DropNow(c) {
			eng.flt.ApplyDrop(c)
			continue
		}
		delivered[c] = oc.Msg
		if oc.From == AdversaryOrigin {
			fromAdversary[c] = true
			eng.res.SpoofDeliveries++
		}
	}
	eng.touched = touched
	return true
}

// mergeMask returns the union of a fault-plan mask and a transport mask
// for one observation, reusing the engine-owned scratch when both are
// present. A nil base (no fault plan) hands the transport mask through
// directly — engine-owned and stable until the next round resolves,
// exactly like the plan's masks.
func mergeMask(scratch *bitset.Set, base, transport bitset.Set) bitset.Set {
	if base == nil {
		return transport
	}
	*scratch = bitset.Sized(*scratch, 64*len(transport))
	scratch.OrOf(base, transport)
	return *scratch
}

// clipAdversary enforces the model's budget: at most T transmissions, each
// on a distinct in-range channel. Excess or invalid entries are dropped
// (the adversary only harms itself by wasting budget). The result is
// staged in an engine-owned buffer — never the adversary's slice — that
// is reused across rounds, and channel de-duplication uses the engine's
// pooled bitset.Set scratch, so clipping allocates nothing on the steady
// path at any spectrum width. The scratch is allocated at most once per
// engine checkout (newEngine keeps it across pool round-trips when its
// capacity covers the new C), and is left all-zero after every call by
// undoing exactly the bits the accepted transmissions set — an O(T) sweep
// rather than an O(C) clear.
func (eng *engine) clipAdversary(txs []Transmission) []Transmission {
	if len(txs) == 0 {
		return nil
	}
	cfg := &eng.cfg
	used := eng.advUsed
	if used == nil {
		used = bitset.New(cfg.C)
		eng.advUsed = used
	}
	out := eng.advClip[:0]
	for _, tx := range txs {
		if len(out) >= cfg.T {
			break
		}
		if tx.Channel < 0 || tx.Channel >= cfg.C || used.Get(tx.Channel) {
			continue
		}
		used.Add(tx.Channel)
		out = append(out, tx)
	}
	for _, tx := range out { // leave the scratch all-zero for the next round
		used.Remove(tx.Channel)
	}
	eng.advClip = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// deriveSeed expands the master seed into a stream of independent per-node
// seeds using the SplitMix64 finalizer, which has full avalanche behavior
// and keeps adjacent node IDs uncorrelated.
func deriveSeed(master int64, stream uint64) int64 {
	z := uint64(master) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z = z ^ (z >> 31)
	return int64(z)
}
