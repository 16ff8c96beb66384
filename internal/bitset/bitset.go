// Package bitset provides the multi-word bitmask shared by the radio
// engine, the fault layer, the observation surface and the protocols'
// per-node scratch: a flat []uint64 with dense single-bit operations and
// no internal length bookkeeping.
//
// The type is deliberately minimal. A Set is just words; callers size it
// for the bit universe they address (Words(n) words cover n bits) and
// keep the invariant that bits at or above the universe stay zero, so
// Count is exact. A nil Set is a valid "absent mask": Get reports false
// for every index, which preserves the nil-means-disabled convention the
// fault masks have always had — consumers test `mask == nil` exactly as
// they did when the masks were []bool.
//
// Sets are engine-owned scratch, pooled and reused across runs, which is
// what keeps the steady-state round loop at zero allocations even when C
// is in the hundreds: resizing under capacity is a reslice plus clear,
// never a fresh allocation.
package bitset

import "math/bits"

// Set is a multi-word bitmask. The zero value (nil) is an absent mask:
// every Get is false. All mutating methods require the addressed bit to
// be inside the allocated words.
type Set []uint64

// Words returns the number of 64-bit words needed to cover n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns a cleared Set covering n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Sized returns s resized to cover n bits and cleared, reusing the
// backing array when its capacity allows — the engine-pool idiom shared
// with the radio engine's other scratch slices.
func Sized(s Set, n int) Set {
	w := Words(n)
	if cap(s) < w {
		return make(Set, w)
	}
	s = s[:w]
	clear(s)
	return s
}

// Get reports whether bit i is set. It is nil-safe and out-of-range-safe:
// bits beyond the allocated words read as false, so an absent (nil) mask
// behaves as all-false without a caller-side guard.
func (s Set) Get(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]>>(uint(i)&63)&1 != 0
}

// Add sets bit i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Remove clears bit i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// SetTo sets bit i to v.
func (s Set) SetTo(i int, v bool) {
	if v {
		s.Add(i)
	} else {
		s.Remove(i)
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ClearAll clears every bit.
func (s Set) ClearAll() { clear(s) }

// OrOf sets s to the word-wise union of a and b. Either operand may be
// shorter than s (including nil); words past an operand's length read as
// zero, so a nil "absent mask" unions as all-false.
func (s Set) OrOf(a, b Set) {
	for i := range s {
		var w uint64
		if i < len(a) {
			w = a[i]
		}
		if i < len(b) {
			w |= b[i]
		}
		s[i] = w
	}
}

// SetFirst sets bits [0, n) and clears every bit above — the wideband
// broadcast the fault layer's correlated fade mode uses to mirror one
// shared fade state across all channels.
func (s Set) SetFirst(n int) {
	full := n >> 6
	for w := 0; w < full; w++ {
		s[w] = ^uint64(0)
	}
	if full < len(s) {
		if rem := uint(n) & 63; rem != 0 {
			s[full] = 1<<rem - 1
			full++
		}
		for w := full; w < len(s); w++ {
			s[w] = 0
		}
	}
}
