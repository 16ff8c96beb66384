package secure

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"securadio/internal/adversary"
	"securadio/internal/radio"
	"securadio/internal/wcrypto"
)

// runEmulation drives emRounds emulated rounds on n nodes. plan[em] maps
// sender -> body for that emulated round; everyone else listens. Returns
// received[em][node] = messages that node collected.
func runEmulation(t *testing.T, p Params, adv radio.Adversary, key wcrypto.Key, emRounds int, plan map[int]map[int][]byte) [][][]Received {
	t.Helper()
	received := make([][][]Received, emRounds)
	for em := range received {
		received[em] = make([][]Received, p.N)
	}
	procs := make([]radio.Process, p.N)
	for i := 0; i < p.N; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			ch, err := Attach(e, p, key)
			if err != nil {
				t.Errorf("Attach: %v", err)
				return
			}
			for em := 0; em < emRounds; em++ {
				var body []byte
				if m, ok := plan[em][i]; ok {
					body = m
				}
				received[em][i] = ch.Step(body)
			}
		}
	}
	cfg := radio.Config{N: p.N, C: p.C, T: p.T, Seed: 21, Adversary: adv}
	if _, err := radio.Run(cfg, procs); err != nil {
		t.Fatalf("radio.Run: %v", err)
	}
	return received
}

func TestSingleBroadcasterDeliversToAll(t *testing.T) {
	p := Params{N: 10, C: 3, T: 2}
	key := wcrypto.KeyFromBytes("group", []byte("k"))
	plan := map[int]map[int][]byte{
		0: {3: []byte("hello group")},
	}
	got := runEmulation(t, p, nil, key, 1, plan)
	for i := 0; i < p.N; i++ {
		if i == 3 {
			continue // the broadcaster does not listen to itself
		}
		if len(got[0][i]) != 1 || got[0][i][0].Sender != 3 || !bytes.Equal(got[0][i][0].Body, []byte("hello group")) {
			t.Fatalf("node %d received %v", i, got[0][i])
		}
	}
}

func TestReliabilityUnderModelCompliantJamming(t *testing.T) {
	p := Params{N: 12, C: 3, T: 2}
	key := wcrypto.KeyFromBytes("group", []byte("k2"))
	plan := make(map[int]map[int][]byte)
	const emRounds = 6
	for em := 0; em < emRounds; em++ {
		plan[em] = map[int][]byte{em % 5: []byte(fmt.Sprintf("m%d", em))}
	}
	adv := adversary.NewRandomJammer(p.T, p.C, 9)
	got := runEmulation(t, p, adv, key, emRounds, plan)
	for em := 0; em < emRounds; em++ {
		sender := em % 5
		for i := 0; i < p.N; i++ {
			if i == sender {
				continue
			}
			if len(got[em][i]) != 1 {
				t.Fatalf("emulated round %d: node %d received %d messages, want 1", em, i, len(got[em][i]))
			}
			if got[em][i][0].EmRound != em || got[em][i][0].Sender != sender {
				t.Fatalf("emulated round %d: node %d received %+v", em, i, got[em][i][0])
			}
		}
	}
}

func TestAuthenticationRejectsInjections(t *testing.T) {
	// The adversary floods with junk and with ciphertexts under a
	// different key; nobody may accept anything.
	p := Params{N: 8, C: 3, T: 2}
	key := wcrypto.KeyFromBytes("group", []byte("k3"))
	wrongKey := wcrypto.KeyFromBytes("group", []byte("not-k3"))
	forge := func(round int) radio.Message {
		if round%2 == 0 {
			return []byte("garbage")
		}
		return wcrypto.Seal(wrongKey, frameNonce(0, 1), []byte("forged"))
	}
	adv := adversary.NewRandomSpoofer(p.T, p.C, 13, forge)
	got := runEmulation(t, p, adv, key, 2, map[int]map[int][]byte{})
	for em := range got {
		for i, msgs := range got[em] {
			if len(msgs) != 0 {
				t.Fatalf("node %d accepted forged message %v", i, msgs)
			}
		}
	}
}

func TestReplayAcrossEmulatedRoundsRejected(t *testing.T) {
	// The adversary records every frame of emulated round 0 and replays
	// them during round 1. The round-bound nonce must reject them.
	p := Params{N: 8, C: 3, T: 2}
	key := wcrypto.KeyFromBytes("group", []byte("k4"))
	plan := map[int]map[int][]byte{
		0: {2: []byte("round zero secret")},
		// round 1: silence — only the replayer speaks.
	}
	adv := adversary.NewReplaySpoofer(p.T, p.C, 17)
	got := runEmulation(t, p, adv, key, 2, plan)
	for i, msgs := range got[1] {
		if len(msgs) != 0 {
			t.Fatalf("node %d accepted a replayed frame: %v", i, msgs)
		}
	}
}

func TestSecrecyOnAir(t *testing.T) {
	p := Params{N: 8, C: 3, T: 1}
	key := wcrypto.KeyFromBytes("group", []byte("k5"))
	secret := []byte("attack at dawn, channel 7")
	sniffer := &sniffer{}
	plan := map[int]map[int][]byte{0: {0: secret}}
	runEmulation(t, p, sniffer, key, 1, plan)
	if len(sniffer.frames) == 0 {
		t.Fatal("sniffer captured nothing")
	}
	for _, f := range sniffer.frames {
		if bytes.Contains(f, secret[:8]) {
			t.Fatal("plaintext fragment visible on the air")
		}
	}
}

type sniffer struct{ frames [][]byte }

func (s *sniffer) Plan(int) []radio.Transmission { return nil }
func (s *sniffer) Observe(o radio.RoundObservation) {
	for _, m := range o.Delivered {
		if b, ok := m.([]byte); ok {
			s.frames = append(s.frames, append([]byte(nil), b...))
		}
	}
}

func TestNonMemberCannotFollowHops(t *testing.T) {
	// A node holding the wrong key listens on its own (diverged) hop
	// pattern and must receive essentially nothing useful.
	p := Params{N: 8, C: 4, T: 1}
	key := wcrypto.KeyFromBytes("group", []byte("k6"))
	outsiderKey := wcrypto.KeyFromBytes("group", []byte("outsider"))
	var outsiderGot []Received
	procs := make([]radio.Process, p.N)
	for i := 0; i < p.N; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			k := key
			if i == 7 {
				k = outsiderKey
			}
			ch, err := Attach(e, p, k)
			if err != nil {
				t.Errorf("Attach: %v", err)
				return
			}
			var body []byte
			if i == 0 {
				body = []byte("members only")
			}
			got := ch.Step(body)
			if i == 7 {
				outsiderGot = got
			}
		}
	}
	cfg := radio.Config{N: p.N, C: p.C, T: p.T, Seed: 5}
	if _, err := radio.Run(cfg, procs); err != nil {
		t.Fatalf("radio.Run: %v", err)
	}
	if len(outsiderGot) != 0 {
		t.Fatalf("outsider authenticated a frame: %v", outsiderGot)
	}
}

func TestTwoConcurrentSendersBehaveLikeRealChannel(t *testing.T) {
	// Two members broadcasting in the same emulated round collide on every
	// hop (they share the hop sequence): like a real broadcast channel,
	// nothing is delivered.
	p := Params{N: 8, C: 3, T: 1}
	key := wcrypto.KeyFromBytes("group", []byte("k7"))
	plan := map[int]map[int][]byte{
		0: {0: []byte("a"), 1: []byte("b")},
	}
	got := runEmulation(t, p, nil, key, 1, plan)
	for i := 2; i < p.N; i++ {
		if len(got[0][i]) != 0 {
			t.Fatalf("node %d received %v despite collision", i, got[0][i])
		}
	}
}

func TestSlotRoundsShape(t *testing.T) {
	a := Params{N: 64, C: 2, T: 1}
	b := Params{N: 64, C: 4, T: 3}
	if a.SlotRounds() >= b.SlotRounds() {
		t.Fatalf("slot rounds not increasing in t: %d vs %d", a.SlotRounds(), b.SlotRounds())
	}
	small := Params{N: 64, C: 2, T: 1, Kappa: 1}
	big := Params{N: 64, C: 2, T: 1, Kappa: 4}
	if 4*small.SlotRounds() != big.SlotRounds() {
		t.Fatalf("slot rounds not linear in kappa: %d vs %d", small.SlotRounds(), big.SlotRounds())
	}
}

func TestAttachValidates(t *testing.T) {
	bad := []Params{
		{N: 0, C: 2, T: 1},
		{N: 4, C: 1, T: 0},
		{N: 4, C: 2, T: 2},
	}
	for _, p := range bad {
		if _, err := Attach(nil, p, wcrypto.Key{}); !errors.Is(err, ErrBadParams) {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

func frameNonce(em, sender int) []byte {
	nonce := make([]byte, 16)
	putFrameNonce(nonce, em, sender)
	return nonce
}
