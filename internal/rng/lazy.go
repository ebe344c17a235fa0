package rng

import "math/rand"

// math/rand's additive lagged Fibonacci generator: a 607-word register
// read at lag 273, seeded by a Lehmer LCG.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

// lazySource produces exactly the values of rand.NewSource(seed) without
// paying for its seeding up front.
//
// math/rand's Seed runs the LCG x ← 48271·x mod (2³¹−1) from the seed
// and fills the register with vec[i] = (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ)
// ^ rngCooked[i], touching all 607 words (4.9 KB) before the first draw.
// Draw n (1 ≤ n ≤ 273) then returns vec[334−n] + vec[607−n] and stores
// the sum in vec[334−n]; both words it reads are still the seeded ones,
// since the earlier draws only wrote vec[333] down to vec[335−n]. So
// each of the first 273 draws is computed here from two seeded words,
// each one LCG jump (lcgJump) plus two LCG steps away from the seed.
// Draw 274 is the first to read a word an earlier draw wrote; from there
// on the source hands over to a real rand.NewSource advanced past the
// 273 draws already served.
//
// Most streams in this repository — one per served request — draw a
// handful of values, so they never seed a register at all.
type lazySource struct {
	seed  int64         // normalised as math/rand's Seed normalises it
	drawn int           // draws served from the seeded words
	cont  rand.Source64 // the register, built at draw rngTap+1
	// reader, when set, points at the owner's *rand.Rand over this
	// source. The hand-over re-points it at a Rand over cont, so later
	// draws make one dynamic call instead of two. A Rand keeps no draw
	// state between calls (only Read's buffer, which Stream never uses),
	// so the swap changes no value; a Rand still holding this source
	// (a Zipf) keeps drawing from cont through it.
	reader **rand.Rand
}

// lcgJump[i] is 48271^(21+3i) mod (2³¹−1): the LCG multiplier that takes
// the seed to x₂₁₊₃ᵢ, the first of the three states vec[i] is built from.
var lcgJump = func() (t [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lcgMul % int32max
	}
	for i := range t {
		t[i] = x
		x = x * lcgMul % int32max * lcgMul % int32max * lcgMul % int32max
	}
	return t
}()

// Seed resets the source to the start of seed's sequence.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{seed: seed}
}

// word returns the seeded register word vec[i].
func (s *lazySource) word(i int) int64 {
	x := uint64(s.seed) * lcgJump[i] % int32max
	u := int64(x) << 40
	x = x * lcgMul % int32max
	u ^= int64(x) << 20
	x = x * lcgMul % int32max
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// Uint64 returns the next value of the sequence.
func (s *lazySource) Uint64() uint64 {
	if s.drawn < rngTap {
		s.drawn++
		return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
	}
	if s.cont == nil {
		s.cont = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.cont.Uint64()
		}
		if s.reader != nil {
			*s.reader = rand.New(s.cont)
		}
	}
	return s.cont.Uint64()
}

// Int63 returns the next value of the sequence with its top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
