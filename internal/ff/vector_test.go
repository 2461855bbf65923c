package ff

import (
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, m Modulus, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.Uint64() % m.P()
	}
	return v
}

func randMatrix(rng *rand.Rand, m Modulus, n int) *Matrix {
	a := NewMatrix(n)
	for i := range a.Rows {
		a.Rows[i] = rng.Uint64() % m.P()
	}
	return a
}

func TestVecAddSubRoundTrip(t *testing.T) {
	m := P17
	rng := rand.New(rand.NewSource(10))
	x, y := randVec(rng, m, 64), randVec(rng, m, 64)
	sum := NewVec(64)
	AddVec(m, sum, x, y)
	back := NewVec(64)
	SubVec(m, back, sum, y)
	if !back.Equal(x) {
		t.Fatal("x + y - y != x")
	}
}

func TestVecAliasing(t *testing.T) {
	m := P17
	x := Vec{1, 2, 3}
	AddVec(m, x, x, x) // x = 2x in place
	want := Vec{2, 4, 6}
	if !x.Equal(want) {
		t.Fatalf("in-place AddVec = %v, want %v", x, want)
	}
}

func TestDotMatchesMulVec(t *testing.T) {
	m := P33
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, m, 16)
	x := randVec(rng, m, 16)
	y := NewVec(16)
	a.MulVec(m, y, x)
	for i := 0; i < 16; i++ {
		if got := Dot(m, a.Row(i), x); got != y[i] {
			t.Fatalf("row %d: Dot = %d, MulVec = %d", i, got, y[i])
		}
	}
}

func TestIdentityMulVec(t *testing.T) {
	m := P17
	rng := rand.New(rand.NewSource(12))
	x := randVec(rng, m, 8)
	y := NewVec(8)
	Identity(8).MulVec(m, y, x)
	if !y.Equal(x) {
		t.Fatalf("I·x = %v, want %v", y, x)
	}
}

func TestMatrixMulAssociatesWithMulVec(t *testing.T) {
	m := P17
	rng := rand.New(rand.NewSource(13))
	a, b := randMatrix(rng, m, 12), randMatrix(rng, m, 12)
	x := randVec(rng, m, 12)
	// (A·B)·x == A·(B·x)
	ab := a.Mul(m, b)
	lhs := NewVec(12)
	ab.MulVec(m, lhs, x)
	bx, rhs := NewVec(12), NewVec(12)
	b.MulVec(m, bx, x)
	a.MulVec(m, rhs, bx)
	if !lhs.Equal(rhs) {
		t.Fatal("(A·B)·x != A·(B·x)")
	}
}

func TestInverse(t *testing.T) {
	m := P17
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, m, 10)
		inv, ok := a.Inverse(m)
		if !ok {
			continue // random singular matrix (rare); skip
		}
		prod := a.Mul(m, inv)
		if !prod.Rows.Equal(Identity(10).Rows) {
			t.Fatal("A·A⁻¹ != I")
		}
	}
}

func TestSingularDetected(t *testing.T) {
	m := P17
	a := NewMatrix(3)
	// Row 2 = row 0 + row 1 (mod p): singular.
	copy(a.Row(0), Vec{1, 2, 3})
	copy(a.Row(1), Vec{4, 5, 6})
	copy(a.Row(2), Vec{5, 7, 9})
	if a.IsInvertible(m) {
		t.Fatal("linearly dependent matrix reported invertible")
	}
	if _, ok := a.Inverse(m); ok {
		t.Fatal("Inverse returned ok for singular matrix")
	}
}

func TestScaleVec(t *testing.T) {
	m := P17
	x := Vec{1, 2, 3}
	dst := NewVec(3)
	ScaleVec(m, dst, 2, x)
	if !dst.Equal(Vec{2, 4, 6}) {
		t.Fatalf("2·x = %v", dst)
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	a := NewMatrix(3)
	a.MulVec(P17, NewVec(2), NewVec(3))
}

func BenchmarkMatVec128(b *testing.B) {
	m := P17
	rng := rand.New(rand.NewSource(15))
	a := randMatrix(rng, m, 128)
	x := randVec(rng, m, 128)
	y := NewVec(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(m, y, x)
	}
}

func TestPackUnpackBits(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, bits := range []uint{1, 7, 17, 33, 54, 64} {
		mask := ^uint64(0)
		if bits < 64 {
			mask = 1<<bits - 1
		}
		v := NewVec(37)
		for i := range v {
			v[i] = rng.Uint64() & mask
		}
		packed, err := AppendPackBits(nil, v, bits)
		if err != nil {
			t.Fatal(err)
		}
		if len(packed) != PackedSize(len(v), bits) {
			t.Fatalf("bits=%d: packed %d bytes, want %d", bits, len(packed), PackedSize(len(v), bits))
		}
		back := NewVec(len(v))
		if err := UnpackBitsInto(back, packed, bits); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(v) {
			t.Fatalf("bits=%d: roundtrip failed", bits)
		}
	}
}

func TestPackBitsValidation(t *testing.T) {
	if err := UnpackBitsInto(NewVec(5), []byte{1}, 17); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := UnpackBitsInto(NewVec(1), []byte{1, 2, 3}, 0); err == nil {
		t.Fatal("zero width accepted")
	}
	if err := UnpackBitsInto(NewVec(1), make([]byte, 9), 65); err == nil {
		t.Fatal("overwide width accepted")
	}
}

func TestPackedSizeMatchesPaperAccounting(t *testing.T) {
	// Paper Sec. V: a PASTA-4 block of 32 elements at 17 bits = 544 bits
	// = 68 bytes, at 33 bits = 132 bytes.
	if got := PackedSize(32, 17); got != 68 {
		t.Errorf("32×17 bits = %d bytes, want 68", got)
	}
	if got := PackedSize(32, 33); got != 132 {
		t.Errorf("32×33 bits = %d bytes, want 132", got)
	}
}

// TestDotLazyMatchesNaive: deterministic coverage of the lazy-reduction
// dot product against the reduce-every-step oracle, including the
// worst-case accumulator magnitudes (all elements p-1) that overflow the
// 128-bit accumulator into the 2^128 limb for long rows.
func TestDotLazyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []Modulus{P17, P33, P54, P60} {
		for _, n := range []int{0, 1, 2, 31, 32, 128, 129, 1024, 4096} {
			x, y := randVec(rng, m, n), randVec(rng, m, n)
			if got, want := DotLazy(m, x, y), Dot(m, x, y); got != want {
				t.Fatalf("%v n=%d: DotLazy = %d, Dot = %d", m, n, got, want)
			}
			// Worst case: every product is (p-1)², maximizing carries.
			for i := range x {
				x[i], y[i] = m.P()-1, m.P()-1
			}
			if got, want := DotLazy(m, x, y), Dot(m, x, y); got != want {
				t.Fatalf("%v n=%d max: DotLazy = %d, Dot = %d", m, n, got, want)
			}
		}
	}
}

// TestReduce192 pins the overflow-limb fold: a2·2^128 + a1·2^64 + a0 must
// reduce identically to the sum computed with the naive oracle.
func TestReduce192(t *testing.T) {
	for _, m := range []Modulus{P17, P33, P54, P60} {
		for _, tc := range [][3]uint64{
			{0, 0, 0},
			{0, 0, m.P() - 1},
			{0, ^uint64(0), ^uint64(0)},
			{1, 0, 0},
			{3, ^uint64(0), ^uint64(0)},
			{^uint64(0) >> 8, 12345, 67890},
		} {
			a2, a1, a0 := tc[0], tc[1], tc[2]
			// Oracle: (a2·(2^128 mod p) + a1·(2^64 mod p) + a0) mod p via
			// repeated naive folds.
			r64 := m.Reduce(^uint64(0))
			r64 = m.Add(r64, 1)
			r128 := m.Mul(r64, r64)
			want := m.Add(m.Add(m.Mul(m.Reduce(a2), r128), m.Mul(m.Reduce(a1), r64)), m.Reduce(a0))
			if got := m.Reduce192(a2, a1, a0); got != want {
				t.Fatalf("%v: Reduce192(%d, %d, %d) = %d, want %d", m, a2, a1, a0, got, want)
			}
		}
	}
}

func BenchmarkDotNaive(b *testing.B) { benchDot(b, Dot) }
func BenchmarkDotLazy(b *testing.B)  { benchDot(b, DotLazy) }

func benchDot(b *testing.B, dot func(Modulus, Vec, Vec) uint64) {
	m := P17
	rng := rand.New(rand.NewSource(13))
	x, y := randVec(rng, m, 128), randVec(rng, m, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dot(m, x, y)
	}
}
