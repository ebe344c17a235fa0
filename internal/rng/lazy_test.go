package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// maxFuzzDraws bounds a fuzz input's draw count: past 607 draws every
// register word has been rewritten at least once by the continuation.
const maxFuzzDraws = 700

// edgeSeeds are the raw source seeds math/rand's normalisation treats
// specially: zero (replaced by 89482311), signs, multiples of 2³¹−1
// (which reduce to zero) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, -3 * int32max,
	int32max * 1000003, int32max - 1, int32max + 1, 89482311,
	math.MinInt64, math.MaxInt64,
}

// edgeDraws straddle the hand-over to the continuation (after draw 273)
// and the first full turn of the register (607 draws).
var edgeDraws = []int{0, 1, 272, 273, 274, 275, 607, 608, 609, 610}

// TestLazySourceMatchesMathRand compares the raw source with
// rand.NewSource at the seeds and draw counts where an off-by-one in the
// normalisation or the hand-over would show.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, n := range edgeDraws {
			var lz lazySource
			lz.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n; i++ {
				if got, want := lz.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i+1, got, want)
				}
			}
			if got, want := lz.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 after %d draws = %d, math/rand gives %d", seed, n, got, want)
			}
		}
	}
}

// TestLazySourceReseed checks that Seed restarts the sequence, also once
// the continuation is in use.
func TestLazySourceReseed(t *testing.T) {
	var lz lazySource
	lz.Seed(42)
	for i := 0; i < 300; i++ {
		lz.Uint64()
	}
	lz.Seed(-7)
	ref := rand.NewSource(-7).(rand.Source64)
	for i := 0; i < 300; i++ {
		if got, want := lz.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after reseed: draw %d = %#x, math/rand gives %#x", i+1, got, want)
		}
	}
}

// TestStreamEdgeDrawCounts runs every Stream method past the hand-over
// for a few master seeds.
func TestStreamEdgeDrawCounts(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2022, math.MaxUint64} {
		for _, n := range edgeDraws {
			checkStreamMatchesMathRand(t, seed, n, nil)
		}
	}
}

// TestZipfAcrossHandOver draws from a Zipf sampler built before the
// hand-over, which keeps the Rand over the lazy source, interleaved with
// Stream draws, which move to a Rand over the register at the hand-over.
func TestZipfAcrossHandOver(t *testing.T) {
	for _, seed := range []uint64{0, 2022} {
		s := New(seed)
		z := s.NewZipf(0.8, 50)
		r := rand.New(rand.NewSource(int64(Mix(seed))))
		rz := rand.NewZipf(r, 1.8, 1, 49)
		for i := 0; i < maxFuzzDraws; i++ {
			if got, want := z.Draw(), int(rz.Uint64()); got != want {
				t.Fatalf("seed %d: Zipf draw %d = %d, math/rand gives %d", seed, i+1, got, want)
			}
			if got, want := s.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d: Float64 after Zipf draw %d = %v, math/rand gives %v", seed, i+1, got, want)
			}
		}
	}
}

// FuzzStreamMatchesMathRand checks that a Stream draws exactly what
// math/rand's own source draws for the same mixed seed, for every
// method a caller can use, across the hand-over to the continuation.
// ops picks the methods of an interleaved run.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for i, n := range edgeDraws {
		f.Add(uint64(i)*0x9e3779b97f4a7c15, uint16(n), []byte{byte(i), 3, 6})
	}
	f.Fuzz(func(t *testing.T, seed uint64, draws uint16, ops []byte) {
		checkStreamMatchesMathRand(t, seed, int(draws)%(maxFuzzDraws+1), ops)
	})
}

// checkStreamMatchesMathRand makes n calls of each method on a fresh
// Stream and a fresh math/rand twin, then n calls interleaved as ops
// picks them (nil ops skips the interleaved run).
func checkStreamMatchesMathRand(t *testing.T, seed uint64, n int, ops []byte) {
	t.Helper()
	type method struct {
		name string
		call func(s *Stream, r *rand.Rand) (got, want float64)
	}
	methods := []method{
		{"Uint64", func(s *Stream, r *rand.Rand) (float64, float64) {
			return float64(s.r.Uint64()), float64(r.Uint64())
		}},
		{"Int63", func(s *Stream, r *rand.Rand) (float64, float64) {
			return float64(s.r.Int63()), float64(r.Int63())
		}},
		{"Float64", func(s *Stream, r *rand.Rand) (float64, float64) {
			return s.Float64(), r.Float64()
		}},
		{"IntN", func(s *Stream, r *rand.Rand) (float64, float64) {
			return float64(s.IntN(1000003)), float64(r.Intn(1000003))
		}},
		{"Normal", func(s *Stream, r *rand.Rand) (float64, float64) {
			return s.Normal(0, 1), r.NormFloat64()
		}},
		{"Exp", func(s *Stream, r *rand.Rand) (float64, float64) {
			return s.Exp(1), r.ExpFloat64()
		}},
		{"Perm", func(s *Stream, r *rand.Rand) (float64, float64) {
			if !slices.Equal(s.Perm(5), r.Perm(5)) {
				return 0, 1
			}
			return 0, 0
		}},
	}
	twin := func() *rand.Rand { return rand.New(rand.NewSource(int64(Mix(seed)))) }
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range methods {
		s, r := New(seed), twin()
		for i := 0; i < n; i++ {
			if got, want := m.call(s, r); !same(got, want) {
				t.Fatalf("seed %d: %s call %d = %v, math/rand gives %v", seed, m.name, i+1, got, want)
			}
		}
	}
	if len(ops) == 0 {
		return
	}
	s, r := New(seed), twin()
	for i := 0; i < n; i++ {
		m := methods[int(ops[i%len(ops)])%len(methods)]
		if got, want := m.call(s, r); !same(got, want) {
			t.Fatalf("seed %d: interleaved call %d (%s) = %v, math/rand gives %v", seed, i+1, m.name, got, want)
		}
	}
}

// TestSplitSeedsMatchHashFNV pins the inline FNV-1a fold to hash/fnv:
// child seeds, and so every derived stream, are unchanged by it.
func TestSplitSeedsMatchHashFNV(t *testing.T) {
	ref := func(parent uint64, label string, n *int) uint64 {
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, parent))
		h.Write([]byte(label))
		if n != nil {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(*n)))
		}
		return h.Sum64()
	}
	for _, seed := range []uint64{0, 1, 2022, math.MaxUint64} {
		s := New(seed)
		for _, label := range []string{"", "req", "round", "topology", "solve-pool", "\xff\x00é"} {
			if got, want := s.Split(label).Seed(), ref(seed, label, nil); got != want {
				t.Errorf("Split(%q) of seed %d = %#x, hash/fnv gives %#x", label, seed, got, want)
			}
			for _, n := range []int{0, 1, 255, 1 << 40, -1} {
				if got, want := s.SplitN(label, n).Seed(), ref(seed, label, &n); got != want {
					t.Errorf("SplitN(%q, %d) of seed %d = %#x, hash/fnv gives %#x", label, n, seed, got, want)
				}
			}
		}
	}
}

// TestSplitterIntoMatchesSplitN re-roots one Stream, starting from the
// zero value, over children that stop short of the hand-over and past
// it, and checks every child draws what SplitN's does.
func TestSplitterIntoMatchesSplitN(t *testing.T) {
	root := New(2022)
	sp := root.Splitter("req")
	var dst Stream
	for i, n := range edgeDraws {
		sp.Into(&dst, i)
		ref := root.SplitN("req", i)
		if dst.Seed() != ref.Seed() {
			t.Fatalf("child %d: seed %#x, SplitN gives %#x", i, dst.Seed(), ref.Seed())
		}
		for d := 0; d < n; d++ {
			if got, want := dst.Float64(), ref.Float64(); got != want {
				t.Fatalf("child %d: draw %d = %v, SplitN's child gives %v", i, d+1, got, want)
			}
		}
	}
}

// fnvWordBytes is FNVWord's literal definition: eight FNV-1a byte steps
// over v's little-endian bytes.
func fnvWordBytes(h, v uint64) uint64 {
	for b := 0; b < 64; b += 8 {
		h = (h ^ (v >> b & 0xff)) * fnvPrime
	}
	return h
}

// FuzzWordFoldAndSplitter checks the zero-byte fold of FNVWord against
// the literal eight-step byte loop, and a Splitter's re-rooted child
// against SplitN's for the same seed, label and index. The seed corpus
// covers the fold's byte-count boundaries: zero, one low byte, a lone
// top byte, all ones and a word with interior zero bytes.
func FuzzWordFoldAndSplitter(f *testing.F) {
	words := []uint64{0, 1, 0xff, 0x100, 1 << 56, math.MaxUint64, 0x0100000000000001, 0x00ff0000ff000000}
	for i, v := range words {
		f.Add(uint64(i)*0x9e3779b97f4a7c15, v, uint64(i), "req", i-1)
	}
	f.Add(uint64(FNVOffset), uint64(0), uint64(2022), "", math.MaxInt)
	f.Add(uint64(0), uint64(1)<<63, uint64(math.MaxUint64), "\xff\x00é", math.MinInt)
	f.Fuzz(func(t *testing.T, h, v, seed uint64, label string, n int) {
		if got, want := FNVWord(h, v), fnvWordBytes(h, v); got != want {
			t.Fatalf("FNVWord(%#x, %#x) = %#x, byte loop gives %#x", h, v, got, want)
		}
		root := New(seed)
		ref := root.SplitN(label, n)
		// dst has drawn as another child before: Into must leave
		// nothing of that behind.
		var dst Stream
		sp := root.Splitter(label)
		sp.Into(&dst, n+1)
		dst.Float64()
		sp.Into(&dst, n)
		if dst.Seed() != ref.Seed() {
			t.Fatalf("seed %d, label %q: Into(%d) seed %#x, SplitN gives %#x", seed, label, n, dst.Seed(), ref.Seed())
		}
		for d := 0; d < 4; d++ {
			if got, want := dst.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d, label %q, n %d: draw %d = %v, SplitN's child gives %v", seed, label, n, d+1, got, want)
			}
		}
	})
}
