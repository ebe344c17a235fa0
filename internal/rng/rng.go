// Package rng provides the deterministic randomness substrate for the
// whole repository. Every experiment in the paper is "run 50 times ...
// and the average results are reported" (§4.3); to make those runs
// reproducible bit-for-bit, all random draws flow from a Stream derived
// from a master seed through labeled Split operations, so adding a new
// consumer of randomness in one subsystem never perturbs the draws seen
// by another.
package rng

import (
	"math/bits"
	"math/rand"
)

// Stream is a deterministic source of random variates. It wraps the
// stdlib generator and adds labeled splitting plus the distributions the
// IDDE workloads need (uniform ranges, Zipf popularity, clustered
// Gaussian offsets).
//
// A Stream is not safe for concurrent use; Split off one Stream per
// goroutine instead — splitting is cheap and collision-resistant.
type Stream struct {
	seed uint64
	src  lazySource
	// r serves every draw: own until the source hands over to its
	// register, then a Rand over the register (see lazySource.reader).
	r *rand.Rand
	// own is the Rand over src, kept so Splitter.Into can re-root the
	// stream without allocating.
	own *rand.Rand
}

// New returns a Stream rooted at the given master seed. Its draws are
// those of rand.NewSource(int64(Mix(seed))). The source is seeded lazily
// (see lazySource), so creating a stream does no seeding work.
func New(seed uint64) *Stream {
	s := &Stream{}
	s.reset(seed)
	return s
}

// reset re-roots s at seed.
func (s *Stream) reset(seed uint64) {
	s.seed = seed
	s.src.Seed(int64(Mix(seed)))
	if s.own == nil {
		s.own = rand.New(&s.src)
	}
	s.r = s.own
	s.src.reader = &s.r
}

// Split derives an independent child stream identified by label. The
// derivation hashes (parent seed, label) so the same label always yields
// the same child, and distinct labels yield (with overwhelming
// probability) unrelated sequences.
func (s *Stream) Split(label string) *Stream {
	return New(s.labelPrefix(label))
}

// SplitN derives an independent child stream identified by label and an
// index, for per-item or per-replica streams.
func (s *Stream) SplitN(label string, n int) *Stream {
	return New(FNVWord(s.labelPrefix(label), uint64(n)))
}

// labelPrefix is the FNV-1a state after the seed and the label: Split's
// child seed, and the prefix every SplitN(label, ·) index extends.
func (s *Stream) labelPrefix(label string) uint64 {
	return fnvString(FNVWord(FNVOffset, s.seed), label)
}

// Splitter derives the children SplitN(label, n) of one stream for many
// indices n. It hashes (seed, label) once, so each child costs one word
// fold; a serving loop takes one per soak and re-roots a per-worker
// Stream per request.
type Splitter struct{ prefix uint64 }

// Splitter returns the splitter of s's label children.
func (s *Stream) Splitter(label string) Splitter {
	return Splitter{prefix: s.labelPrefix(label)}
}

// Into re-roots dst as the child SplitN(label, n) would return, reusing
// dst's memory: the per-request streams of a serving loop cost no
// allocation. dst may be a zero Stream. Whatever dst drew before is
// abandoned, and a Zipf built on dst must not be used afterwards.
func (p Splitter) Into(dst *Stream, n int) {
	dst.reset(FNVWord(p.prefix, uint64(n)))
}

// Seed reports the seed that identifies this stream.
func (s *Stream) Seed() uint64 { return s.seed }

// Float64 draws uniformly from [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uniform draws uniformly from [lo,hi). It panics if hi < lo.
func (s *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform with hi < lo")
	}
	return lo + (hi-lo)*s.r.Float64()
}

// IntN draws uniformly from {0, …, n−1}. It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.Intn(n) }

// IntRange draws uniformly from {lo, …, hi} inclusive. It panics if
// hi < lo.
func (s *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Bool reports true with probability p (clamped to [0,1]).
func (s *Stream) Bool(p float64) bool {
	return s.r.Float64() < p
}

// Normal draws from a Gaussian with the given mean and standard
// deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp draws from an exponential distribution with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Perm returns a random permutation of {0, …, n−1}.
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle permutes the n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Zipf returns a sampler over {0, …, n−1} with exponent skew > 1 is not
// required; the stdlib generator needs s>1, so skew values are mapped to
// s = 1+skew with v=1, giving the usual long-tailed popularity profile
// used for content request matrices.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over n items with the given skew >= 0.
func (s *Stream) NewZipf(skew float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	return &Zipf{z: rand.NewZipf(s.r, 1+skew, 1, uint64(n-1))}
}

// Draw samples an item index in {0, …, n−1}; smaller indices are more
// popular.
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// FNV-1a (64-bit), folded inline so that a split allocates nothing
// beyond the child stream. The split seeds hash the parent seed's eight
// little-endian bytes, then the label's bytes, then (SplitN) the index's
// eight little-endian bytes.
const (
	// FNVOffset is FNV-1a's 64-bit offset basis: the state before the
	// first byte.
	FNVOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPow[k] is fnvPrime^k mod 2⁶⁴.
var fnvPow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime
	}
	return t
}()

// FNVWord folds v's eight little-endian bytes into the FNV-1a state h,
// giving exactly the state eight byte steps give. A zero byte's step is
// h·fnvPrime, and multiplication mod 2⁶⁴ is associative, so the run of
// zero bytes above v's highest nonzero one collapses into one multiply
// by fnvPrime^k. Most hashed words are small integers (indices, counts,
// flags) and fold in one or two byte steps.
func FNVWord(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) >> 3
	for i := 0; i < n; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h * fnvPow[8-n]
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Mix is SplitMix64's finalizer; it decorrelates adjacent seeds so that
// master seeds 1,2,3,… give unrelated sequences, and it is the flight
// recorder's sampling hash.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
