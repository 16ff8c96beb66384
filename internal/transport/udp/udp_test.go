package udp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"runtime"
	"testing"
	"time"

	"securadio/internal/fault"
	"securadio/internal/radio"
)

func mixedProcs(n, c, rounds int) []radio.Process {
	procs := make([]radio.Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				switch e.Rand().Intn(3) {
				case 0:
					e.Transmit(e.Rand().Intn(c), i*1000+r)
				case 1:
					e.Listen(e.Rand().Intn(c))
				default:
					e.Sleep()
				}
			}
		}
	}
	return procs
}

func digestObs(h hash.Hash, o radio.RoundObservation) {
	fmt.Fprintf(h, "round=%d drops=%d deaths=%d rec=%d\n", o.Round, o.FaultDrops, o.Deaths, o.Recoveries)
	for id, a := range o.Actions {
		fmt.Fprintf(h, "  act[%d]=%d ch=%d msg=%v down=%v\n", id, int(a.Op), a.Channel, a.Msg, o.Down.Get(id))
	}
	for c, m := range o.Delivered {
		fmt.Fprintf(h, "  del[%d]=%v n=%d faded=%v dropped=%v\n", c, m, o.Transmitters[c],
			o.Faded.Get(c), o.Dropped.Get(c))
	}
}

// runDigest runs a mixed workload over the given transport and digests
// the complete observable output plus the Result.
func runDigest(t *testing.T, transport radio.Transport, faults *fault.Plan) (radio.Result, string) {
	t.Helper()
	const n, c, rounds = 8, 3, 40
	h := sha256.New()
	cfg := radio.Config{
		N: n, C: c, T: 0, Seed: 42, Transport: transport, Faults: faults,
		Trace: func(o radio.RoundObservation) { digestObs(h, o) },
	}
	res, err := radio.Run(cfg, mixedProcs(n, c, rounds))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "result=%+v\n", res)
	return res, hex.EncodeToString(h.Sum(nil))
}

// TestLosslessMatchesNative pins the backend's reference behavior: with
// no injected degradation, a run over loopback UDP resolves identically
// to the native in-memory medium — same deliveries, same statistics,
// round for round.
func TestLosslessMatchesNative(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, native := runDigest(t, nil, nil)
	_, overUDP := runDigest(t, tr, nil)
	if native != overUDP {
		t.Fatalf("lossless UDP run diverged from native medium:\n  native %s\n  udp    %s", native, overUDP)
	}
}

// TestInjectedLossDeterministic pins satellite 2's headline: a seeded
// loss-injection run reproduces byte-identical observable output —
// degradation counters included — across invocations, because the drop
// decision is a pure function of (seed, round, channel, origin).
func TestInjectedLossDeterministic(t *testing.T) {
	mk := func() radio.Transport {
		tr, err := New(Config{Loss: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	res1, d1 := runDigest(t, mk(), nil)
	res2, d2 := runDigest(t, mk(), nil)
	if d1 != d2 {
		t.Fatalf("seeded loss run not reproducible:\n  first  %s\n  second %s", d1, d2)
	}
	if res1.TransportDrops == 0 {
		t.Fatal("Loss=0.3 produced no transport drops")
	}
	if res1.TransportDrops != res2.TransportDrops {
		t.Fatalf("TransportDrops diverged: %d vs %d", res1.TransportDrops, res2.TransportDrops)
	}
}

// TestLossSurfacesInDegradationCounters pins that socket-layer drops
// land in the same observation surface the fault layer populates: the
// per-channel Dropped mask and the per-round FaultDrops count.
func TestLossSurfacesInDegradationCounters(t *testing.T) {
	tr, err := New(Config{Loss: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	var maskBits, obsDrops int
	cfg := radio.Config{
		N: 6, C: 3, Seed: 7, Transport: tr,
		Trace: func(o radio.RoundObservation) {
			for c := 0; c < 3; c++ {
				if o.Dropped.Get(c) {
					maskBits++
				}
			}
			obsDrops += o.FaultDrops
		},
	}
	res, err := radio.Run(cfg, mixedProcs(6, 3, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.TransportDrops == 0 || maskBits == 0 {
		t.Fatalf("no drops surfaced: TransportDrops=%d mask bits=%d", res.TransportDrops, maskBits)
	}
	if maskBits != res.TransportDrops {
		t.Errorf("Dropped mask bits = %d, TransportDrops = %d; each dropped channel-round sets one bit", maskBits, res.TransportDrops)
	}
	if obsDrops != res.TransportDrops {
		t.Errorf("FaultDrops sum = %d, TransportDrops = %d", obsDrops, res.TransportDrops)
	}
}

// TestJamWindowsFade pins jam injection: every jammed channel-round
// resolves Faded with nothing delivered, even with no transmitters.
func TestJamWindowsFade(t *testing.T) {
	tr, err := New(Config{Jam: []JamWindow{{Channel: 1, From: 5, To: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	fadedRounds := 0
	cfg := radio.Config{
		N: 4, C: 3, Seed: 11, Transport: tr,
		Trace: func(o radio.RoundObservation) {
			inWindow := o.Round >= 5 && o.Round < 10
			if got := o.Faded.Get(1); got != inWindow {
				t.Errorf("round %d: Faded(1) = %v, want %v", o.Round, got, inWindow)
			}
			if inWindow {
				fadedRounds++
				if o.Delivered[1] != nil {
					t.Errorf("round %d: jammed channel delivered %v", o.Round, o.Delivered[1])
				}
			}
			if o.Faded.Get(0) || o.Faded.Get(2) {
				t.Errorf("round %d: fade leaked to an unjammed channel", o.Round)
			}
		},
	}
	if _, err := radio.Run(cfg, mixedProcs(4, 3, 20)); err != nil {
		t.Fatal(err)
	}
	if fadedRounds != 5 {
		t.Fatalf("observed %d jammed rounds, want 5", fadedRounds)
	}
}

// TestChurnOverUDP pins that a fault plan means the same thing over the
// socket backend: churn silences nodes (Down mask, suppressed
// transmissions) exactly as it does natively.
func TestChurnOverUDP(t *testing.T) {
	plan := func() *fault.Plan {
		return fault.MustCompile(fault.Profile{
			CrashFrac: 0.3, RecoverFrac: 0.1, LateFrac: 0.2, Horizon: 30,
			Loss: &fault.LossModel{PGoodBad: 0.2, PBadGood: 0.4, DropGood: 0.05, DropBad: 0.6},
		}, 8, 3, 23)
	}
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, native := runDigest(t, nil, plan())
	_, overUDP := runDigest(t, tr, plan())
	if native != overUDP {
		t.Fatalf("faulted UDP run diverged from faulted native run:\n  native %s\n  udp    %s", native, overUDP)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// settle polls until pred holds or the deadline lapses — goroutine and
// FD teardown is asynchronous with Close's return on some paths.
func settle(pred func() bool) bool {
	for i := 0; i < 100; i++ {
		if pred() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return pred()
}

// TestNoLeaksAfterRun pins satellite 3 for the socket backend: a
// completed run and a mid-run canceled run both release every goroutine
// and file descriptor they took.
func TestNoLeaksAfterRun(t *testing.T) {
	baseFDs, baseGo := openFDs(t), runtime.NumGoroutine()

	t.Run("completion", func(t *testing.T) {
		tr, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := radio.Run(radio.Config{N: 4, C: 8, Seed: 3, Transport: tr}, mixedProcs(4, 8, 20)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cancel-mid-run", func(t *testing.T) {
		tr, err := New(Config{Window: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err = radio.RunContext(ctx, radio.Config{N: 4, C: 8, Seed: 3, Transport: tr}, mixedProcs(4, 8, 50_000_000))
		if !errors.Is(err, radio.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		// The run must tear down promptly, not wait out the 10s window.
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("canceled run took %v to tear down", waited)
		}
	})

	if !settle(func() bool { return runtime.NumGoroutine() <= baseGo }) {
		t.Errorf("goroutines leaked: %d before, %d after", baseGo, runtime.NumGoroutine())
	}
	if !settle(func() bool { return openFDs(t) <= baseFDs }) {
		t.Errorf("file descriptors leaked: %d before, %d after", baseFDs, openFDs(t))
	}
}

// TestCloseUnblocksCommit pins the Conn contract directly: Close must
// unblock a Commit that is waiting out its receive window.
func TestCloseUnblocksCommit(t *testing.T) {
	tr, err := New(Config{Window: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := tr.Open(radio.Config{N: 2, C: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn := rc.(*Conn)
	// Close channel 0's hub out-of-band: the datagram Commit sends to it
	// vanishes, so the collect loop must wait out the 30s window — unless
	// Close unblocks it.
	conn.hubs[0].Close()
	errc := make(chan error, 1)
	go func() {
		_, err := conn.Commit(0, []radio.WireTx{{From: 0, Channel: 0, Msg: "m"}})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	go conn.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errClosed) {
			t.Fatalf("unblocked Commit returned %v, want errClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the in-flight Commit")
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestWindowCutoffCountsLost pins the receive-window semantics: a
// datagram that never arrives resolves as a transport drop after the
// window, not a hang.
func TestWindowCutoffCountsLost(t *testing.T) {
	tr, err := New(Config{Window: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := tr.Open(radio.Config{N: 2, C: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn := rc.(*Conn)
	defer conn.Close()
	conn.hubs[1].Close() // channel 1's medium eats everything
	outs, err := conn.Commit(0, []radio.WireTx{
		{From: 0, Channel: 0, Msg: "keep"},
		{From: 1, Channel: 1, Msg: "lost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes = %v, want one per touched channel", outs)
	}
	if outs[0].Channel != 0 || outs[0].Msg != "keep" || outs[0].Dropped {
		t.Errorf("surviving channel resolved %+v", outs[0])
	}
	if outs[1].Channel != 1 || !outs[1].Dropped || outs[1].Transmitters != 0 || outs[1].Msg != nil {
		t.Errorf("lost channel resolved %+v, want Dropped with no survivors", outs[1])
	}
}

// TestConfigValidation pins New's rejection of malformed tuning.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Loss: -0.1},
		{Loss: 1.5},
		{Window: -time.Second},
		{ReadBuffer: -1},
		{Jam: []JamWindow{{Channel: -1, From: 0, To: 5}}},
		{Jam: []JamWindow{{Channel: 0, From: 5, To: 2}}},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted a malformed config", cfg)
		}
	}
	if _, err := New(Config{Loss: 0.5, Jam: []JamWindow{{Channel: 2, From: 1, To: 9}}}); err != nil {
		t.Errorf("well-formed config rejected: %v", err)
	}
}

// FuzzParseEnvelope pins the datagram parser every hub runs on whatever
// arrives at its socket: it never panics, rejects every payload that is
// not exactly one 12-byte envelope, and parses every 12-byte payload into
// fields that appendEnvelope encodes back to the same bytes.
func FuzzParseEnvelope(f *testing.F) {
	f.Add(appendEnvelope(nil, 7, 3, 1))
	f.Add(appendEnvelope(nil, 1<<31, radio.AdversaryOrigin, 511))
	f.Add([]byte{})
	f.Add(make([]byte, envelopeSize-1))
	f.Add(make([]byte, envelopeSize+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		env, ok := parseEnvelope(b)
		if ok != (len(b) == envelopeSize) {
			t.Fatalf("parseEnvelope(%d bytes) ok = %v", len(b), ok)
		}
		if !ok {
			return
		}
		if got := appendEnvelope(nil, env[0], env[1], env[2]); !bytes.Equal(got, b) {
			t.Fatalf("parsed %v re-encodes to %x, input %x", env, got, b)
		}
	})
}
