// Package wcrypto is the cryptographic substrate for the reproduction:
// domain-separated hashing (the H1/H2 functions of Section 5.6), an
// HMAC-SHA256 PRF with a counter-mode keystream, encrypt-then-MAC
// authenticated encryption, pseudo-random channel hopping (Sections 6-7),
// and Diffie-Hellman key exchange over Z_p* (Section 6 Part 1).
//
// Everything is built from the Go standard library (crypto/sha256,
// crypto/hmac, math/big). The paper's secrecy guarantees are computational
// (it cites the Computational Diffie-Hellman assumption); this package
// inherits exactly those assumptions.
//
// A PRF, a Hopper and a Sealer keep keyed HMAC state that every call
// reuses, so none of them is safe for concurrent use: each node owns its
// own. The package-level Seal and Open build a fresh Sealer per call.
package wcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"math/rand"
)

// KeySize is the byte length of symmetric keys produced by this package.
const KeySize = 32

// Key is a 256-bit symmetric key.
type Key [KeySize]byte

// Hash computes a domain-separated SHA-256 digest over the given parts.
// Each part is length-prefixed, so distinct part boundaries yield distinct
// inputs (no concatenation ambiguity).
func Hash(domain string, parts ...[]byte) [32]byte {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(domain)))
	h.Write(lenBuf[:])
	h.Write([]byte(domain))
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// PRF is a pseudo-random function keyed with a symmetric key
// (HMAC-SHA256). It keeps one keyed HMAC and resets it for every block,
// so it is not safe for concurrent use. The zero value is unusable;
// construct with NewPRF.
type PRF struct {
	mac hash.Hash
	in  []byte   // the block input being authenticated
	out [32]byte // the block output
}

// NewPRF returns a PRF keyed with k.
func NewPRF(k Key) *PRF { return &PRF{mac: hmac.New(sha256.New, k[:])} }

// Block returns the 32-byte PRF output for (label, counter).
func (p *PRF) Block(label string, counter uint64) [32]byte {
	return p.block(label, nil, counter)
}

// block is Block for the label prefix+string(suffix), without building
// that string.
func (p *PRF) block(prefix string, suffix []byte, counter uint64) [32]byte {
	p.in = binary.BigEndian.AppendUint64(p.in[:0], uint64(len(prefix)+len(suffix)))
	p.in = append(p.in, prefix...)
	p.in = append(p.in, suffix...)
	p.in = binary.BigEndian.AppendUint64(p.in, counter)
	p.mac.Reset()
	p.mac.Write(p.in)
	p.mac.Sum(p.out[:0])
	return p.out
}

// Uint64 returns a pseudo-random 64-bit value for (label, counter).
func (p *PRF) Uint64(label string, counter uint64) uint64 {
	b := p.Block(label, counter)
	return binary.BigEndian.Uint64(b[:8])
}

// Intn returns a pseudo-random value in [0, n) for (label, counter).
// n must be positive. The modulo bias is negligible for the small n
// (channel counts) used by the protocols.
func (p *PRF) Intn(label string, counter uint64, n int) int {
	if n <= 0 {
		panic("wcrypto: Intn with non-positive n")
	}
	return int(p.Uint64(label, counter) % uint64(n))
}

// Hopper generates the pseudo-random channel-hopping pattern of Sections 6
// and 7: two parties sharing a key (or a whole group sharing the group
// key) agree on the channel for every round without the adversary being
// able to predict it.
type Hopper struct {
	prf *PRF
	c   int
}

// NewHopper returns a hopper over c channels driven by key k and a
// protocol-specific label baked into the key derivation.
func NewHopper(k Key, label string, c int) *Hopper {
	if c <= 0 {
		panic("wcrypto: hopper needs a positive channel count")
	}
	derived := Hash("hopper/"+label, k[:])
	return &Hopper{prf: NewPRF(Key(derived)), c: c}
}

// Channel returns the channel for the given round.
func (h *Hopper) Channel(round uint64) int {
	return h.prf.Intn("hop", round, h.c)
}

// DeriveKey derives a fresh key from a parent key and a label.
func DeriveKey(parent Key, label string) Key {
	return Key(Hash("derive/"+label, parent[:]))
}

// KeyFromBytes hashes arbitrary material into a Key.
func KeyFromBytes(domain string, material ...[]byte) Key {
	return Key(Hash("key/"+domain, material...))
}

// ErrAuth is returned by Open when the ciphertext fails authentication.
var ErrAuth = errors.New("wcrypto: message authentication failed")

const macSize = 32

// Sealer seals and opens frames under one key. It derives the keystream
// and MAC keys once and keeps their HMAC state, so sealing a frame
// allocates only the ciphertext. A Sealer is not safe for concurrent use.
type Sealer struct {
	enc    *PRF      // keystream PRF under DeriveKey(k, "enc")
	mac    hash.Hash // HMAC-SHA256 under DeriveKey(k, "mac")
	lenBuf [8]byte
	tag    [macSize]byte
}

// NewSealer returns a Sealer for key k.
func NewSealer(k Key) *Sealer {
	macKey := DeriveKey(k, "mac")
	return &Sealer{enc: NewPRF(DeriveKey(k, "enc")), mac: hmac.New(sha256.New, macKey[:])}
}

// Seal encrypts and authenticates plaintext under key k with the given
// nonce (encrypt-then-MAC; keystream and MAC keys are domain-separated
// derivations of k). The MAC binds the nonce/body boundary, so a receiver
// declaring the wrong nonce length fails authentication instead of
// decrypting garbage. Nonces must not repeat for the same key; the
// protocols use (phase, epoch, round, sender) tuples.
func Seal(k Key, nonce []byte, plaintext []byte) []byte {
	return NewSealer(k).Seal(nonce, plaintext)
}

// Open authenticates and decrypts a ciphertext produced by Seal with a
// nonce of the given length. It returns the recovered plaintext and nonce.
func Open(k Key, nonceLen int, ciphertext []byte) (plaintext, nonce []byte, err error) {
	return NewSealer(k).Open(nonceLen, ciphertext)
}

// Seal is the package-level Seal under the sealer's key.
func (s *Sealer) Seal(nonce []byte, plaintext []byte) []byte {
	ct := make([]byte, len(nonce)+len(plaintext)+macSize)
	copy(ct, nonce)
	bodyEnd := len(nonce) + len(plaintext)
	s.xorKeystream(nonce, plaintext, ct[len(nonce):bodyEnd])
	s.appendTag(ct[:bodyEnd], len(nonce), ct[:bodyEnd])
	return ct
}

// Open is the package-level Open under the sealer's key.
func (s *Sealer) Open(nonceLen int, ciphertext []byte) (plaintext, nonce []byte, err error) {
	if len(ciphertext) < nonceLen+macSize {
		return nil, nil, fmt.Errorf("%w: short ciphertext", ErrAuth)
	}
	bodyEnd := len(ciphertext) - macSize
	if !hmac.Equal(s.appendTag(s.tag[:0], nonceLen, ciphertext[:bodyEnd]), ciphertext[bodyEnd:]) {
		return nil, nil, ErrAuth
	}
	nonce = append([]byte(nil), ciphertext[:nonceLen]...)
	plaintext = make([]byte, bodyEnd-nonceLen)
	s.xorKeystream(nonce, ciphertext[nonceLen:bodyEnd], plaintext)
	return plaintext, nonce, nil
}

// appendTag appends the MAC of a frame's nonce and body (msg, whose first
// nonceLen bytes are the nonce) to dst.
func (s *Sealer) appendTag(dst []byte, nonceLen int, msg []byte) []byte {
	binary.BigEndian.PutUint64(s.lenBuf[:], uint64(nonceLen))
	s.mac.Reset()
	s.mac.Write(s.lenBuf[:])
	s.mac.Write(msg)
	return s.mac.Sum(dst)
}

// xorKeystream XORs src with the PRF counter-mode keystream for the nonce
// into dst. len(dst) must equal len(src).
func (s *Sealer) xorKeystream(nonce, src, dst []byte) {
	for i := 0; i < len(src); i += 32 {
		block := s.enc.block("stream/", nonce, uint64(i/32))
		n := len(src) - i
		if n > 32 {
			n = 32
		}
		for j := 0; j < n; j++ {
			dst[i+j] = src[i+j] ^ block[j]
		}
	}
}

// NewRand returns a deterministic math/rand source seeded from a key, for
// simulation components that need key-driven (but not security-critical)
// randomness.
func NewRand(k Key, label string) *rand.Rand {
	h := Hash("rand/"+label, k[:])
	seed := int64(binary.BigEndian.Uint64(h[:8]))
	return rand.New(rand.NewSource(seed))
}

// big.Int helpers shared by dh.go.
func bytesOf(x *big.Int) []byte { return x.Bytes() }
