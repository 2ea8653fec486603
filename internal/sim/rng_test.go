package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	v := r.Uint64()
	for i := 0; i < 100; i++ {
		if r.Uint64() != v {
			return // stream is not constant: good
		}
	}
	t.Fatal("zero seed produced a constant stream")
}

// TestIntnBounds is a property test: Intn(n) always lands in [0, n).
func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r.Reseed(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(3)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want %d±5%%", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(9)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(13)
	const p, draws = 0.1, 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / draws
	want := (1 - p) / p // failures before first success
	if math.Abs(mean-want) > 0.5 {
		t.Errorf("Geometric(%v) mean = %.2f, want %.2f", p, mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) should be 0")
	}
	if r.Geometric(0) < 1<<29 {
		t.Error("Geometric(0) should be effectively infinite")
	}
}

// TestPermIsPermutation: property — Perm always yields a permutation.
func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	f := func(seed uint64, size uint8) bool {
		r.Reseed(seed)
		n := int(size%64) + 1
		dst := make([]int, n)
		r.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitNIndependence(t *testing.T) {
	root := NewRNG(23)
	a := root.SplitN(0)
	b := root.SplitN(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from split streams", same)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestUint64StreamPinned pins the xoshiro256** stream itself, so a
// rewrite of Uint64 (or of the splitmix64 seeding) that changes a single
// bit fails here rather than only as drifted simulation results.
func TestUint64StreamPinned(t *testing.T) {
	r := NewRNG(42)
	for i, want := range []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if got, want := r.SplitN(3).Uint64(), uint64(0xb897456fdbd3806); got != want {
		t.Fatalf("SplitN(3) first draw = %#x, want %#x", got, want)
	}
}

// TestSplitNIntoMatchesSplitN: the in-place split yields SplitN's stream
// and advances the parent identically.
func TestSplitNIntoMatchesSplitN(t *testing.T) {
	a, b := NewRNG(31), NewRNG(31)
	for i := 0; i < 64; i++ {
		var c RNG
		a.SplitNInto(i, &c)
		if want := b.SplitN(i); c != *want {
			t.Fatalf("SplitNInto(%d) state %v, want %v", i, c.s, want.s)
		}
	}
	if *a != *b {
		t.Fatal("SplitNInto advanced the parent differently from SplitN")
	}
}

// TestBernoulliThresholdExact: the integer coin u>>11 < ceil(p·2^53) is
// the float coin float64(u>>11)/2^53 < p exactly, for the extreme
// probabilities (the smallest subnormal, 2^-53, the largest float below
// 1), the generator's typical loads, and random p — over random draws and
// over the 53-bit values adjacent to the cutoff, where an off-by-one
// would show.
func TestBernoulliThresholdExact(t *testing.T) {
	ps := []float64{math.SmallestNonzeroFloat64, 0x1p-53, 0.002, 0.5, math.Nextafter(1, 0)}
	pr := NewRNG(37)
	for i := 0; i < 64; i++ {
		ps = append(ps, pr.Float64())
	}
	r := NewRNG(41)
	for _, p := range ps {
		if p <= 0 {
			continue
		}
		thr := BernoulliThreshold(p)
		check := func(u53 uint64) {
			if u53 >= 1<<53 {
				return
			}
			if got, want := u53 < thr, float64(u53)/(1<<53) < p; got != want {
				t.Fatalf("p=%v u53=%d: integer coin %v, float coin %v (thr %d)", p, u53, got, want, thr)
			}
		}
		for _, u53 := range []uint64{0, 1, thr - 1, thr, thr + 1, 1<<53 - 1} {
			check(u53)
		}
		for i := 0; i < 20000; i++ {
			check(r.Uint64() >> 11)
		}
	}
}
