package radio

// The pump: the engine's drive. Section 3's model is a synchronous round
// in which every node takes exactly one action, so the engine runs every
// node Process as an iter.Pull coroutine and resumes the coroutines in ID
// order from the Run caller's goroutine, resolving the round in between:
// one coroutine switch in and one out per node per round, with no runtime
// scheduling, no locks and no timer checks, which is cheaper than parking
// and unparking a goroutine per node. Node programs therefore run one at a
// time, and a run uses one core at any GOMAXPROCS; callers that want
// parallelism run several runs at once (fleet campaign workers).

import (
	"fmt"
	"iter"
)

// crashProcess re-raises a node Process panic on a fresh goroutine so it
// brings the process down, exactly like a panic on a node goroutine in the
// seed engine, where every node owned a goroutine.
func crashProcess(v any) {
	go panic(v)
	select {} // hold this goroutine while the crash unwinds
}

// runPump executes the run by resuming each live node's coroutine once
// per round, in ID order, and resolving the round in between. Adversary
// and trace panics propagate to Run's caller directly (the pump runs on
// its goroutine); node Process panics crash the process via crashProcess.
func (eng *engine) runPump(procs []Process) (Result, error) {
	n := eng.cfg.N
	eng.exited = sized(eng.exited, n)
	if cap(eng.pumpNext) < n {
		eng.pumpNext = make([]func() (struct{}, bool), n)
		eng.pumpStop = make([]func(), n)
	}
	next, stop := eng.pumpNext[:n], eng.pumpStop[:n]
	for i := 0; i < n; i++ {
		e, proc := &eng.envs[i], procs[i]
		next[i], stop[i] = iter.Pull(func(yield func(struct{}) bool) {
			e.yield = yield
			proc(e)
		})
	}

	// One recover point serves the whole run: a panic while resuming is a
	// node Process failing and crashes the process (matching the seed
	// engine's node goroutines); a panic while resolving is adversary or
	// trace code failing and unwinds to Run's caller (matching the seed
	// engine) after the outstanding coroutines are cancelled so nothing is
	// left suspended.
	resuming := false
	defer func() {
		if r := recover(); r != nil {
			if resuming {
				crashProcess(r)
			}
			for id := 0; id < n; id++ {
				if !eng.exited[id] {
					eng.stopNode(stop[id])
				}
			}
			panic(r)
		}
	}()

	for {
		if eng.round >= eng.maxRounds {
			eng.err = fmt.Errorf("%w (%d rounds)", ErrMaxRounds, eng.maxRounds)
			break
		}
		// Collect: resume every roster node until it commits its next
		// action (or its Process returns, which commits the done marker).
		// The roster is compacted by resolveCommitted, never here, so the
		// iteration is stable while coroutines run; a node that finishes
		// leaves the roster when the round it finished in resolves.
		for _, id := range eng.roster {
			resuming = true
			_, ok := next[id]()
			resuming = false
			if !ok {
				eng.exited[id] = true
				eng.actions[id] = NodeAction{Op: opDone}
			}
		}
		if !eng.resolveCommitted() {
			break
		}
	}

	// Teardown: unwind every coroutine that has not already returned.
	for id := 0; id < n; id++ {
		if !eng.exited[id] {
			eng.stopNode(stop[id])
		}
	}
	return eng.res, eng.err
}

// stopNode cancels a node coroutine during teardown. The coroutine's
// pending yield returns false, env.step raises abortSignal, and iter.Pull
// re-delivers that panic here, where it is absorbed. Any other panic is a
// node Process failing during unwind and crashes the process.
func (eng *engine) stopNode(stop func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); isAbort {
				return
			}
			crashProcess(r)
		}
	}()
	stop()
}
