package wcrypto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashDomainSeparation(t *testing.T) {
	a := Hash("domain-a", []byte("x"))
	b := Hash("domain-b", []byte("x"))
	if a == b {
		t.Fatal("different domains produced identical digests")
	}
}

func TestHashBoundaryUnambiguous(t *testing.T) {
	// ("ab","c") and ("a","bc") must differ thanks to length prefixes.
	a := Hash("d", []byte("ab"), []byte("c"))
	b := Hash("d", []byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("part boundaries are ambiguous")
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash("d", []byte("x")) != Hash("d", []byte("x")) {
		t.Fatal("hash is not deterministic")
	}
}

func TestPRFDistinctLabelsAndCounters(t *testing.T) {
	p := NewPRF(Key{1})
	if p.Block("a", 0) == p.Block("a", 1) {
		t.Fatal("counter ignored")
	}
	if p.Block("a", 0) == p.Block("b", 0) {
		t.Fatal("label ignored")
	}
	q := NewPRF(Key{2})
	if p.Block("a", 0) == q.Block("a", 0) {
		t.Fatal("key ignored")
	}
}

func TestPRFIntnRange(t *testing.T) {
	p := NewPRF(Key{3})
	for i := uint64(0); i < 200; i++ {
		v := p.Intn("x", i, 7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestHopperDeterministicAndInRange(t *testing.T) {
	h1 := NewHopper(Key{9}, "test", 5)
	h2 := NewHopper(Key{9}, "test", 5)
	counts := make([]int, 5)
	for r := uint64(0); r < 500; r++ {
		c1, c2 := h1.Channel(r), h2.Channel(r)
		if c1 != c2 {
			t.Fatal("hoppers with same key disagree")
		}
		if c1 < 0 || c1 >= 5 {
			t.Fatalf("channel out of range: %d", c1)
		}
		counts[c1]++
	}
	// Roughly uniform: every channel visited.
	for ch, n := range counts {
		if n == 0 {
			t.Fatalf("channel %d never chosen in 500 hops", ch)
		}
	}
}

func TestHopperKeySeparation(t *testing.T) {
	h1 := NewHopper(Key{1}, "test", 16)
	h2 := NewHopper(Key{2}, "test", 16)
	same := 0
	for r := uint64(0); r < 256; r++ {
		if h1.Channel(r) == h2.Channel(r) {
			same++
		}
	}
	if same > 64 { // expectation is 16; 64 is a loose bound
		t.Fatalf("different keys produced %d/256 identical hops", same)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := KeyFromBytes("test", []byte("secret"))
	nonce := []byte("nonce-01")
	pt := []byte("the quick brown fox jumps over the lazy dog")
	ct := Seal(k, nonce, pt)
	got, gotNonce, err := Open(k, len(nonce), ct)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("plaintext mismatch: %q", got)
	}
	if !bytes.Equal(gotNonce, nonce) {
		t.Fatalf("nonce mismatch: %q", gotNonce)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := KeyFromBytes("test", []byte("secret"))
	ct := Seal(k, []byte("nonce-01"), []byte("hello"))
	for i := 0; i < len(ct); i++ {
		mut := append([]byte(nil), ct...)
		mut[i] ^= 0x40
		if _, _, err := Open(k, 8, mut); !errors.Is(err, ErrAuth) {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	ct := Seal(KeyFromBytes("a", nil), []byte("nonce-01"), []byte("hello"))
	if _, _, err := Open(KeyFromBytes("b", nil), 8, ct); !errors.Is(err, ErrAuth) {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	if _, _, err := Open(Key{}, 8, []byte("short")); !errors.Is(err, ErrAuth) {
		t.Fatal("short ciphertext accepted")
	}
}

func TestSealOpenProperty(t *testing.T) {
	f := func(keySeed, nonce, pt []byte) bool {
		if len(nonce) == 0 {
			nonce = []byte{0}
		}
		k := KeyFromBytes("prop", keySeed)
		ct := Seal(k, nonce, pt)
		got, _, err := Open(k, len(nonce), ct)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	k := KeyFromBytes("t", nil)
	pt := bytes.Repeat([]byte("A"), 64)
	ct := Seal(k, []byte("n1"), pt)
	if bytes.Contains(ct, pt[:16]) {
		t.Fatal("ciphertext contains plaintext run")
	}
	// Same plaintext, different nonce => different ciphertext body.
	ct2 := Seal(k, []byte("n2"), pt)
	if bytes.Equal(ct[2:34], ct2[2:34]) {
		t.Fatal("nonce does not affect keystream")
	}
}

func TestGroupConstantsArePrime(t *testing.T) {
	for _, g := range []DHGroup{Group1024, GroupSim512} {
		if !g.P.ProbablyPrime(30) {
			t.Fatalf("group %s modulus is not prime", g.Name)
		}
		q := new(big.Int).Rsh(g.P, 1)
		if !q.ProbablyPrime(30) {
			t.Fatalf("group %s modulus is not a safe prime", g.Name)
		}
	}
}

func TestDHKeyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := GenerateDH(GroupSim512, rng)
	b := GenerateDH(GroupSim512, rng)
	kab, err := a.SharedKey(b.Public, 3, 9)
	if err != nil {
		t.Fatalf("SharedKey: %v", err)
	}
	kba, err := b.SharedKey(a.Public, 9, 3) // party order swapped
	if err != nil {
		t.Fatalf("SharedKey: %v", err)
	}
	if kab != kba {
		t.Fatal("DH key agreement failed: directions disagree")
	}
}

func TestDHDistinctPairsDistinctKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := GenerateDH(GroupSim512, rng)
	b := GenerateDH(GroupSim512, rng)
	c := GenerateDH(GroupSim512, rng)
	kab, _ := a.SharedKey(b.Public, 0, 1)
	kac, _ := a.SharedKey(c.Public, 0, 2)
	if kab == kac {
		t.Fatal("distinct peers produced identical keys")
	}
}

func TestDHRejectsDegenerateValues(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := GenerateDH(GroupSim512, rng)
	pm1 := new(big.Int).Sub(GroupSim512.P, big.NewInt(1))
	bad := []*big.Int{nil, big.NewInt(0), big.NewInt(1), pm1, GroupSim512.P}
	for _, v := range bad {
		if _, err := a.SharedKey(v, 0, 1); !errors.Is(err, ErrBadPublicKey) {
			t.Fatalf("degenerate public value %v accepted", v)
		}
	}
}

func TestDHEavesdropperCannotDeriveFromPublics(t *testing.T) {
	// Sanity check of the simulation's secrecy accounting: the shared key
	// is not a function of public values alone (it differs from hashing
	// the transcript).
	rng := rand.New(rand.NewSource(10))
	a := GenerateDH(GroupSim512, rng)
	b := GenerateDH(GroupSim512, rng)
	k, _ := a.SharedKey(b.Public, 0, 1)
	transcript := KeyFromBytes("dh-shared", a.Public.Bytes(), b.Public.Bytes())
	if k == transcript {
		t.Fatal("shared key equals transcript hash")
	}
}

func TestDeriveKeySeparation(t *testing.T) {
	k := KeyFromBytes("root", nil)
	if DeriveKey(k, "a") == DeriveKey(k, "b") {
		t.Fatal("labels collide")
	}
	if DeriveKey(k, "a") == k {
		t.Fatal("derived key equals parent")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	k := KeyFromBytes("seed", nil)
	r1, r2 := NewRand(k, "x"), NewRand(k, "x")
	for i := 0; i < 16; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("NewRand is not deterministic")
		}
	}
}

func TestSealOpenEmptyPlaintext(t *testing.T) {
	k := KeyFromBytes("t", nil)
	ct := Seal(k, []byte("n"), nil)
	got, _, err := Open(k, 1, ct)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %q, want empty", got)
	}
}

func TestSealOpenMultiBlock(t *testing.T) {
	// Cross the 32-byte keystream block boundary several times.
	k := KeyFromBytes("t", nil)
	pt := bytes.Repeat([]byte{0xAB}, 257)
	ct := Seal(k, []byte("nonce"), pt)
	got, _, err := Open(k, 5, ct)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("multi-block round trip failed")
	}
	// The keystream must not repeat across blocks (a 32-byte period would
	// show as equal ciphertext blocks for constant plaintext).
	body := ct[5 : len(ct)-32]
	if bytes.Equal(body[:32], body[32:64]) {
		t.Fatal("keystream repeats across blocks")
	}
}

func TestOpenWrongNonceLength(t *testing.T) {
	k := KeyFromBytes("t", nil)
	ct := Seal(k, []byte("12345678"), []byte("data"))
	// Declaring the wrong nonce length shifts the MAC boundary; the MAC
	// still covers everything, so authentication must fail... unless the
	// boundary happens to coincide. With a different length it cannot.
	if _, _, err := Open(k, 4, ct); err == nil {
		t.Fatal("wrong nonce length accepted")
	}
}

func TestHopperChiSquare(t *testing.T) {
	// A crude uniformity check: over many hops the per-channel counts
	// should be within a loose chi-square-ish bound.
	const c, hops = 8, 8000
	h := NewHopper(KeyFromBytes("hop", nil), "uniformity", c)
	counts := make([]float64, c)
	for r := 0; r < hops; r++ {
		counts[h.Channel(uint64(r))]++
	}
	expected := float64(hops) / c
	chi2 := 0.0
	for _, n := range counts {
		d := n - expected
		chi2 += d * d / expected
	}
	// 7 degrees of freedom; p=0.001 critical value is ~24.3.
	if chi2 > 24.3 {
		t.Fatalf("chi-square = %.1f, hops look non-uniform: %v", chi2, counts)
	}
}

func TestDHDeterministicPerRng(t *testing.T) {
	a := GenerateDH(GroupSim512, rand.New(rand.NewSource(5)))
	b := GenerateDH(GroupSim512, rand.New(rand.NewSource(5)))
	if a.Secret.Cmp(b.Secret) != 0 {
		t.Fatal("same rng seed produced different keys (simulation determinism broken)")
	}
	c := GenerateDH(GroupSim512, rand.New(rand.NewSource(6)))
	if a.Secret.Cmp(c.Secret) == 0 {
		t.Fatal("different rng seeds produced identical secrets")
	}
}

func TestKeySizesAndGroupBits(t *testing.T) {
	if GroupSim512.P.BitLen() != 512 {
		t.Fatalf("sim group has %d bits", GroupSim512.P.BitLen())
	}
	if Group1024.P.BitLen() != 1024 {
		t.Fatalf("modp1024 group has %d bits", Group1024.P.BitLen())
	}
}

// Known answers, computed before the PRF and the sealer kept their HMAC
// state across calls: the reuse must not change a single output byte.
var (
	katKey   = KeyFromBytes("kat", []byte("known-answer"))
	katNonce = []byte("0123456789abcdef")
	katPRF   = []struct {
		label   string
		counter uint64
		block   string
	}{
		{"hop", 0, "d7b5713323c71af81178f4cef8e3b972c0f9bc646fa05985dfb3fdfc1827960e"},
		{"hop", 1, "985c2486a7487882c5114081ac2e6f41fbc344150493b34490a139efebd025d2"},
		{"stream/nonce-01", 7, "4061166965711ad72f0fcfe5702b42805768d4a58f442ee8440f0c1fcf0e5c5c"},
		{"", 1 << 40, "a82d44f4ef5676e686083d8e00a881724fd0c9b1c34978f547f3ac958ddc3c8a"},
	}
	// One byte per round: Hopper.Channel for rounds 0..63 under
	// NewHopper(katKey, "longlived", c).
	katHops = []struct {
		c    int
		hops string
	}{
		{3, "00010101010002020000020202000101000200000100010102020001000001010001020102000202010200010001000002000001020101010201010000020102"},
		{72, "0c192e163a1e081d2a09412c0e3616190047243c310925073217030112061319182238133b032c4743263c0d3c431b21411e24373e07312b0e101f2103441026"},
	}
	// Seal(katKey, katNonce, plaintext): empty, one block and three blocks.
	katSeal = []struct {
		plaintext  string
		ciphertext string
	}{
		{"", "303132333435363738396162636465660b9e1a8227088448784cba07aa9518ae686b98983b13d7fbd5e556d4255d3f03"},
		{"one block of plaintext", "303132333435363738396162636465660f077500c8e5e8f76fb06b2e59cdcdd287569cc041067bf9bbbb90ab785726b030d596cceb777d72251cd33620feede820b28ae21f2e"},
		{"three blocks of plaintext: the quick brown fox jumps over the lazy dog.", "3031323334353637383961626364656614016245cfa9e5f86bf36f3b59d2c7939e5489cc57062a2b46c77ec5ef2a0b30743d9e18745d263c26471974a8dc658875b16d5f7303b64f309c415c4e1ba08b647ab60dd7aeceb50321008b7946f15dd1cd4d3a2e51bbb954f4561fc5184e9da17c7d35bb6d11"},
	}
)

func TestPRFBlockKnownAnswers(t *testing.T) {
	p := NewPRF(katKey)
	for _, tc := range katPRF {
		got := p.Block(tc.label, tc.counter)
		if hex.EncodeToString(got[:]) != tc.block {
			t.Errorf("Block(%q, %d) = %x, want %s", tc.label, tc.counter, got, tc.block)
		}
	}
}

func TestHopperKnownAnswers(t *testing.T) {
	for _, tc := range katHops {
		h := NewHopper(katKey, "longlived", tc.c)
		got := make([]byte, 64)
		for r := range got {
			got[r] = byte(h.Channel(uint64(r)))
		}
		if hex.EncodeToString(got) != tc.hops {
			t.Errorf("c=%d: hops %x, want %s", tc.c, got, tc.hops)
		}
	}
}

func TestSealKnownAnswers(t *testing.T) {
	for _, tc := range katSeal {
		if got := Seal(katKey, katNonce, []byte(tc.plaintext)); hex.EncodeToString(got) != tc.ciphertext {
			t.Errorf("Seal(%q) = %x, want %s", tc.plaintext, got, tc.ciphertext)
		}
	}
}

func TestOpenKnownAnswers(t *testing.T) {
	for _, tc := range katSeal {
		ct, err := hex.DecodeString(tc.ciphertext)
		if err != nil {
			t.Fatal(err)
		}
		pt, nonce, err := Open(katKey, len(katNonce), ct)
		if err != nil {
			t.Fatalf("Open(%s): %v", tc.ciphertext, err)
		}
		if string(pt) != tc.plaintext || !bytes.Equal(nonce, katNonce) {
			t.Errorf("Open(%s) = (%q, %q), want (%q, %q)", tc.ciphertext, pt, nonce, tc.plaintext, katNonce)
		}
	}
}

// TestSealerReuseMatchesFreshSeal: one sealer reused across 100 frames of
// varying nonces and lengths seals and opens exactly as fresh calls do.
func TestSealerReuseMatchesFreshSeal(t *testing.T) {
	s := NewSealer(katKey)
	rng := rand.New(rand.NewSource(100))
	for i := 0; i < 100; i++ {
		nonce := make([]byte, 16)
		binary.BigEndian.PutUint64(nonce[:8], uint64(i))
		binary.BigEndian.PutUint64(nonce[8:], uint64(rng.Intn(20)))
		pt := make([]byte, rng.Intn(100))
		rng.Read(pt)
		got, want := s.Seal(nonce, pt), Seal(katKey, nonce, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: reused sealer %x, fresh Seal %x", i, got, want)
		}
		body, gotNonce, err := s.Open(len(nonce), got)
		if err != nil || !bytes.Equal(body, pt) || !bytes.Equal(gotNonce, nonce) {
			t.Fatalf("frame %d: reused sealer failed to open its frame: %v", i, err)
		}
		if _, _, err := s.Open(len(nonce), append(got[:len(got)-1:len(got)-1], got[len(got)-1]^1)); !errors.Is(err, ErrAuth) {
			t.Fatalf("frame %d: reused sealer accepted a forged tag", i)
		}
	}
}

// TestCryptoAllocations pins the steady-state allocations of the keyed
// hot paths: none for a PRF block or a hop, one (the ciphertext) per
// sealed frame.
func TestCryptoAllocations(t *testing.T) {
	p := NewPRF(katKey)
	h := NewHopper(katKey, "longlived", 72)
	s := NewSealer(katKey)
	pt := make([]byte, 100)
	round := uint64(0)
	cases := []struct {
		name string
		want float64
		f    func()
	}{
		{"PRF.Block", 0, func() { p.Block("stream/nonce", round) }},
		{"Hopper.Channel", 0, func() { h.Channel(round) }},
		{"Sealer.Seal", 1, func() { s.Seal(katNonce, pt) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, func() { tc.f(); round++ }); got != tc.want {
			t.Errorf("%s: %v allocs per call, want %v", tc.name, got, tc.want)
		}
	}
}
