package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.IntN(1000) == b.IntN(1000) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("adjacent seeds produced %d/64 identical draws; mixing is too weak", same)
	}
}

func TestSplitIsStableAndIndependent(t *testing.T) {
	root := New(7)
	c1 := root.Split("topology")
	c2 := New(7).Split("topology")
	if c1.Seed() != c2.Seed() {
		t.Fatal("Split is not a pure function of (seed, label)")
	}
	c3 := root.Split("workload")
	if c1.Seed() == c3.Seed() {
		t.Fatal("distinct labels yielded identical child seeds")
	}
	// Drawing from the parent must not perturb children derived later.
	root2 := New(7)
	root2.Float64()
	if root2.Split("topology").Seed() != c1.Seed() {
		t.Fatal("parent draws changed child derivation")
	}
}

func TestSplitN(t *testing.T) {
	root := New(9)
	if root.SplitN("rep", 0).Seed() == root.SplitN("rep", 1).Seed() {
		t.Fatal("SplitN indices collide")
	}
	if root.SplitN("rep", 3).Seed() != New(9).SplitN("rep", 3).Seed() {
		t.Fatal("SplitN is not stable")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestUniformPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform(hi<lo) did not panic")
		}
	}()
	New(1).Uniform(5, 2)
}

func TestIntRange(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(30, 300)
		if v < 30 || v > 300 {
			t.Fatalf("IntRange(30,300) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 100 {
		t.Errorf("IntRange coverage too low: %d distinct values", len(seen))
	}
}

func TestUniformMean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Uniform(1, 5)
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.02 {
		t.Errorf("Uniform(1,5) mean = %v, want ≈3", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Normal variance = %v, want ≈4", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(0.5)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(0.5) mean = %v", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(11)
	z := s.NewZipf(0.8, 10)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		idx := z.Draw()
		if idx < 0 || idx >= 10 {
			t.Fatalf("Zipf draw %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("Zipf head (%d) not more popular than tail (%d)", counts[0], counts[9])
	}
	if counts[0] <= counts[4] {
		t.Errorf("Zipf head (%d) not more popular than middle (%d)", counts[0], counts[4])
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0 items) did not panic")
		}
	}()
	New(1).NewZipf(1, 0)
}

func TestPermAndShuffle(t *testing.T) {
	s := New(14)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(15)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", p)
	}
}
