package pasta

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ff"
	"repro/internal/xof"
)

func toyCipher(t *testing.T, size, rounds int, mod ff.Modulus) *Cipher {
	t.Helper()
	par, err := ToyParams(size, rounds, mod)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCipher(par, KeyFromSeed(par, "test"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsShapes(t *testing.T) {
	p3 := MustParams(Pasta3, ff.P17)
	if p3.T != 128 || p3.Rounds != 3 || p3.StateSize() != 256 || p3.AffineLayers() != 4 {
		t.Fatalf("PASTA-3 shape wrong: %+v", p3)
	}
	p4 := MustParams(Pasta4, ff.P17)
	if p4.T != 32 || p4.Rounds != 4 || p4.StateSize() != 64 || p4.AffineLayers() != 5 {
		t.Fatalf("PASTA-4 shape wrong: %+v", p4)
	}
}

// TestXOFElementDemand pins the paper's Sec. III-A numbers: PASTA-3/-4
// demand 2048/640 pseudo-random coefficients per block.
func TestXOFElementDemand(t *testing.T) {
	if got := MustParams(Pasta3, ff.P17).XOFElements(); got != 2048 {
		t.Errorf("PASTA-3 XOF elements = %d, want 2048", got)
	}
	if got := MustParams(Pasta4, ff.P17).XOFElements(); got != 640 {
		t.Errorf("PASTA-4 XOF elements = %d, want 640", got)
	}
}

// TestMulCountClaim pins the paper's Sec. I-A claim: PASTA-3 costs ≈2^18
// multiplications per permutation.
func TestMulCountClaim(t *testing.T) {
	got := MustParams(Pasta3, ff.P17).MulCount()
	if got < 1<<18 || got > 1<<18+4096 {
		t.Errorf("PASTA-3 mul count = %d, want ≈2^18 = %d", got, 1<<18)
	}
}

func TestEncryptDecryptRoundTripToy(t *testing.T) {
	for _, mod := range []ff.Modulus{ff.P17, ff.P33, ff.P54} {
		c := toyCipher(t, 8, 3, mod)
		rng := rand.New(rand.NewSource(1))
		msg := ff.NewVec(50) // 7 blocks, last partial
		for i := range msg {
			msg[i] = rng.Uint64() % mod.P()
		}
		ct, err := c.Encrypt(99, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Equal(msg) {
			t.Fatal("ciphertext equals plaintext")
		}
		back, err := c.Decrypt(99, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(msg) {
			t.Fatalf("%v: roundtrip failed", mod)
		}
	}
}

func TestEncryptDecryptRoundTripStandard(t *testing.T) {
	for _, v := range []Variant{Pasta3, Pasta4} {
		par := MustParams(v, ff.P17)
		c, err := NewCipher(par, KeyFromSeed(par, "std"))
		if err != nil {
			t.Fatal(err)
		}
		msg := ff.NewVec(par.T)
		for i := range msg {
			msg[i] = uint64(i*31) % par.Mod.P()
		}
		ct, err := c.EncryptBlock(7, 0, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.DecryptBlock(7, 0, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(msg) {
			t.Fatalf("%v roundtrip failed", v)
		}
	}
}

func TestKeyStreamDeterministicAndNonceSeparated(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	c, _ := NewCipher(par, KeyFromSeed(par, "k"))
	a := c.KeyStream(1, 0)
	b := c.KeyStream(1, 0)
	if !a.Equal(b) {
		t.Fatal("keystream not deterministic")
	}
	if a.Equal(c.KeyStream(2, 0)) {
		t.Fatal("different nonces gave equal keystream")
	}
	if a.Equal(c.KeyStream(1, 1)) {
		t.Fatal("different blocks gave equal keystream")
	}
}

func TestDifferentKeysDifferentStreams(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	c1, _ := NewCipher(par, KeyFromSeed(par, "k1"))
	c2, _ := NewCipher(par, KeyFromSeed(par, "k2"))
	if c1.KeyStream(1, 0).Equal(c2.KeyStream(1, 0)) {
		t.Fatal("different keys gave equal keystream")
	}
}

// TestMatrixInvertibleProperty: the sequential construction of eq. (1)
// must yield invertible matrices for random seeds with nonzero α₀.
func TestMatrixInvertibleProperty(t *testing.T) {
	for _, mod := range []ff.Modulus{ff.P17, ff.P33} {
		for trial := uint64(0); trial < 25; trial++ {
			s := xof.NewSampler(mod, trial, 1234)
			seed := s.Vector(16, true)
			mat := ExpandMatrix(mod, seed)
			if !mat.IsInvertible(mod) {
				t.Fatalf("%v: matrix from seed %v is singular", mod, seed)
			}
		}
	}
}

// TestMatrixSingularWithZeroLead documents why α₀ must be nonzero: a zero
// leading seed element makes the sequential matrix singular.
func TestMatrixSingularWithZeroLead(t *testing.T) {
	mod := ff.P17
	seed := ff.Vec{0, 5, 9, 11}
	if ExpandMatrix(mod, seed).IsInvertible(mod) {
		t.Fatal("matrix with α₀ = 0 unexpectedly invertible")
	}
}

// TestNextMatrixRowMatchesCompanionMultiply: the MAC recurrence equals
// multiplication by the companion matrix of the seed row.
func TestNextMatrixRowMatchesCompanionMultiply(t *testing.T) {
	mod := ff.P17
	s := xof.NewSampler(mod, 5, 6)
	tt := 8
	seed := s.Vector(tt, true)
	// Companion matrix C: subdiagonal identity, last row = seed.
	c := ff.NewMatrix(tt)
	for i := 0; i < tt-1; i++ {
		c.Set(i, i+1, 1)
	}
	copy(c.Row(tt-1), seed)
	row := seed.Clone()
	for step := 0; step < tt; step++ {
		next := NextMatrixRow(mod, seed, row)
		want := ff.NewVec(tt)
		// want = row · C, i.e. want[j] = Σ_i row[i]·C[i][j].
		for j := 0; j < tt; j++ {
			var acc uint64
			for i := 0; i < tt; i++ {
				acc = mod.Add(acc, mod.Mul(row[i], c.At(i, j)))
			}
			want[j] = acc
		}
		if !next.Equal(want) {
			t.Fatalf("step %d: recurrence %v != row·C %v", step, next, want)
		}
		row = next
	}
}

// TestKernelAffineMatchesExpandedMatrix: the kernel's streamed
// row-by-row matrix product, completed by FinishLayer for the final
// (S-box-free) layer, equals Mix of the materialized M·x + rc on each
// half, on both kernel paths.
func TestKernelAffineMatchesExpandedMatrix(t *testing.T) {
	tt := 12
	for _, mod := range []ff.Modulus{ff.P17, ff.P33} {
		par, err := ToyParams(tt, 2, mod)
		if err != nil {
			t.Fatal(err)
		}
		s := xof.NewSampler(mod, 9, 9)
		seedL, seedR := s.Vector(tt, true), s.Vector(tt, true)
		rcL, rcR := s.Vector(tt, false), s.Vector(tt, false)
		x := s.Vector(2*tt, false)

		k := NewKernel(par)
		outL, outR, rowA, rowB := ff.NewVec(tt), ff.NewVec(tt), ff.NewVec(tt), ff.NewVec(tt)
		k.MatVecInto(outL, seedL, x[:tt], rowA, rowB)
		k.MatVecInto(outR, seedR, x[tt:], rowA, rowB)
		streamed := ff.NewVec(2 * tt)
		k.FinishLayer(streamed, outL, outR, rcL, rcR, par.Rounds)

		want := ff.NewVec(2 * tt)
		ExpandMatrix(mod, seedL).MulVec(mod, want[:tt], x[:tt])
		ExpandMatrix(mod, seedR).MulVec(mod, want[tt:], x[tt:])
		ff.AddVec(mod, want[:tt], want[:tt], rcL)
		ff.AddVec(mod, want[tt:], want[tt:], rcR)
		Mix(mod, want)

		if !streamed.Equal(want) {
			t.Fatalf("%v: streamed affine %v != materialized %v", mod, streamed, want)
		}
	}
}

// TestMixInvertible: Mix is the matrix (2 1; 1 2) across halves, which is
// invertible when det = 3 ≠ 0; applying the inverse map recovers input.
func TestMixInvertible(t *testing.T) {
	mod := ff.P17
	s := xof.NewSampler(mod, 1, 2)
	state := s.Vector(16, false)
	orig := state.Clone()
	Mix(mod, state)
	// Inverse of (2 1; 1 2) is 3⁻¹·(2 -1; -1 2).
	inv3 := mod.Inv(3)
	tt := 8
	l, r := state[:tt], state[tt:]
	back := ff.NewVec(16)
	for i := 0; i < tt; i++ {
		back[i] = mod.Mul(inv3, mod.Sub(mod.Mul(2, l[i]), r[i]))
		back[tt+i] = mod.Mul(inv3, mod.Sub(mod.Mul(2, r[i]), l[i]))
	}
	if !back.Equal(orig) {
		t.Fatal("Mix inverse failed")
	}
}

// TestSboxFeistelInvertible: S′ is invertible by forward substitution.
func TestSboxFeistelInvertible(t *testing.T) {
	mod := ff.P17
	s := xof.NewSampler(mod, 3, 4)
	state := s.Vector(10, false)
	orig := state.Clone()
	SboxFeistel(mod, state)
	// Invert: x[j] = y[j] - x[j-1]², left to right.
	back := state.Clone()
	for j := 1; j < len(back); j++ {
		back[j] = mod.Sub(back[j], mod.Sqr(back[j-1]))
	}
	if !back.Equal(orig) {
		t.Fatal("Feistel S-box inverse failed")
	}
}

// TestSboxCubeBijective: x³ is a bijection for p ≡ 2 (mod 3); invert via
// x^(d) with 3d ≡ 1 (mod p-1).
func TestSboxCubeBijective(t *testing.T) {
	mod := ff.P17
	p := mod.P()
	// d = 3⁻¹ mod (p-1). p-1 = 65536; 3·43691 = 131073 = 2·65536 + 1.
	d := uint64(43691)
	if (3*d)%(p-1) != 1 {
		t.Fatalf("bad cube inverse exponent %d", d)
	}
	s := xof.NewSampler(mod, 4, 5)
	state := s.Vector(10, false)
	orig := state.Clone()
	SboxCube(mod, state)
	for j := range state {
		state[j] = mod.Exp(state[j], d)
	}
	if !state.Equal(orig) {
		t.Fatal("cube S-box inverse failed")
	}
}

// TestPermutationDiffusion: flipping one key element should change (on
// average) about half the... at minimum, many keystream elements.
func TestPermutationDiffusion(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	k1 := KeyFromSeed(par, "diff")
	k2 := Key(ff.Vec(k1).Clone())
	k2[17] = par.Mod.Add(k2[17], 1)
	c1, _ := NewCipher(par, k1)
	c2, _ := NewCipher(par, k2)
	ks1, ks2 := c1.KeyStream(0, 0), c2.KeyStream(0, 0)
	diff := 0
	for i := range ks1 {
		if ks1[i] != ks2[i] {
			diff++
		}
	}
	if diff < par.T*9/10 {
		t.Fatalf("only %d/%d keystream elements changed; diffusion too weak", diff, par.T)
	}
}

// TestScheduleMatchesSampler: DeriveSchedule consumes exactly
// XOFElements() accepted samples.
func TestScheduleMatchesSampler(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	layers := DeriveSchedule(par, 11, 3)
	if len(layers) != par.AffineLayers() {
		t.Fatalf("schedule has %d layers, want %d", len(layers), par.AffineLayers())
	}
	total := 0
	for _, l := range layers {
		total += len(l.MatSeedL) + len(l.MatSeedR) + len(l.RCL) + len(l.RCR)
		if l.MatSeedL[0] == 0 || l.MatSeedR[0] == 0 {
			t.Fatal("matrix seed has zero leading element")
		}
	}
	if total != par.XOFElements() {
		t.Fatalf("schedule has %d elements, want %d", total, par.XOFElements())
	}
}

// TestPermuteConsistentWithSchedule: replaying the permutation with
// materialized matrices must give the same state as the streaming path,
// on both kernel paths: the Fermat fold (P17, and the toy prime 257 at
// t = 4) and the Shoup rows (P33, P54, and the toy prime 17 at t = 16,
// where a row sum overflows the fold's bound).
func TestPermuteConsistentWithSchedule(t *testing.T) {
	type row struct {
		par  Params
		fold bool
	}
	var rows []row
	for _, v := range []Variant{Pasta3, Pasta4} {
		for _, mod := range []ff.Modulus{ff.P17, ff.P33, ff.P54} {
			rows = append(rows, row{MustParams(v, mod), mod == ff.P17})
		}
	}
	for _, toy := range []struct {
		t    int
		p    uint64
		fold bool
	}{{4, 257, true}, {16, 17, false}} {
		par, err := ToyParams(toy.t, 3, ff.MustModulus(toy.p))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{par, toy.fold})
	}
	for _, r := range rows {
		par := r.par
		t.Run(fmt.Sprintf("%v/t=%d/p=%d", par.Variant, par.T, par.Mod.P()), func(t *testing.T) {
			c, err := NewCipher(par, KeyFromSeed(par, "sched"))
			if err != nil {
				t.Fatal(err)
			}
			if c.kern.fold != r.fold {
				t.Fatalf("kernel fold path = %v, want %v", c.kern.fold, r.fold)
			}
			nonce, block := uint64(21), uint64(4)
			want := c.KeyStream(nonce, block)

			layers := DeriveSchedule(par, nonce, block)
			state := ff.Vec(c.Key())
			tt := par.T
			mod := par.Mod
			for i, l := range layers {
				ml, mr := ExpandMatrix(mod, l.MatSeedL), ExpandMatrix(mod, l.MatSeedR)
				newL, newR := ff.NewVec(tt), ff.NewVec(tt)
				ml.MulVec(mod, newL, state[:tt])
				mr.MulVec(mod, newR, state[tt:])
				ff.AddVec(mod, newL, newL, l.RCL)
				ff.AddVec(mod, newR, newR, l.RCR)
				copy(state[:tt], newL)
				copy(state[tt:], newR)
				Mix(mod, state)
				switch {
				case i < par.Rounds-1:
					SboxFeistel(mod, state)
				case i == par.Rounds-1:
					SboxCube(mod, state)
				}
			}
			if !state[:tt].Equal(want) {
				t.Fatal("materialized permutation differs from streaming permutation")
			}
		})
	}
}

func TestKeyValidation(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	if _, err := NewCipher(par, make(Key, 3)); err == nil {
		t.Fatal("short key accepted")
	}
	bad := KeyFromSeed(par, "x")
	bad[0] = par.Mod.P() // out of range
	if _, err := NewCipher(par, bad); err == nil {
		t.Fatal("out-of-range key accepted")
	}
}

func TestMessageValidation(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	c, _ := NewCipher(par, KeyFromSeed(par, "k"))
	if _, err := c.EncryptBlock(0, 0, ff.NewVec(par.T+1)); err == nil {
		t.Fatal("oversized block accepted")
	}
	if _, err := c.EncryptBlock(0, 0, ff.Vec{par.Mod.P()}); err == nil {
		t.Fatal("out-of-range message element accepted")
	}
	if _, err := c.DecryptBlock(0, 0, ff.Vec{par.Mod.P()}); err == nil {
		t.Fatal("out-of-range ciphertext element accepted")
	}
}

func TestToyParamsValidation(t *testing.T) {
	if _, err := ToyParams(1, 1, ff.P17); err == nil {
		t.Fatal("t=1 accepted")
	}
	if _, err := ToyParams(4, 0, ff.P17); err == nil {
		t.Fatal("rounds=0 accepted")
	}
	if _, err := NewParams(Toy, ff.P17); err == nil {
		t.Fatal("NewParams(Toy) should be rejected")
	}
}

func TestNewRandomKey(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	k, err := NewRandomKey(par)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(par); err != nil {
		t.Fatal(err)
	}
	k2, _ := NewRandomKey(par)
	if ff.Vec(k).Equal(ff.Vec(k2)) {
		t.Fatal("two random keys identical")
	}
}

// Property: encrypt/decrypt roundtrip for arbitrary short messages on a
// toy instance.
func TestRoundTripQuick(t *testing.T) {
	par, _ := ToyParams(4, 2, ff.P17)
	c, _ := NewCipher(par, KeyFromSeed(par, "quick"))
	f := func(raw []uint64, nonce uint64) bool {
		msg := make(ff.Vec, len(raw))
		for i, v := range raw {
			msg[i] = v % par.Mod.P()
		}
		ct, err := c.Encrypt(nonce, msg)
		if err != nil {
			return false
		}
		back, err := c.Decrypt(nonce, ct)
		if err != nil {
			return false
		}
		return back.Equal(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNumBlocks sanity.
func TestNumBlocks(t *testing.T) {
	par := MustParams(Pasta4, ff.P17)
	c, _ := NewCipher(par, KeyFromSeed(par, "k"))
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {32, 1}, {33, 2}, {64, 2}, {65, 3}} {
		if got := c.NumBlocks(tc.n); got != tc.want {
			t.Errorf("NumBlocks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func BenchmarkKeyStreamPasta3(b *testing.B) { benchKeyStream(b, Pasta3) }
func BenchmarkKeyStreamPasta4(b *testing.B) { benchKeyStream(b, Pasta4) }

func benchKeyStream(b *testing.B, v Variant) {
	par := MustParams(v, ff.P17)
	c, _ := NewCipher(par, KeyFromSeed(par, "bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.KeyStream(uint64(i), 0)
	}
}

// TestTruncationRationale demonstrates why the Trunc layer matters
// (Sec. II-B: "truncates the output to prevent round inversion"): given
// the FULL 2t-element final state, an attacker can invert the final
// affine layer — all its inputs (matrices, constants) are public — and
// peel the permutation backwards. Truncation to t elements removes half
// the information and blocks this.
func TestTruncationRationale(t *testing.T) {
	par := MustParams(Pasta4, ff.P33)
	c, _ := NewCipher(par, KeyFromSeed(par, "trunc"))
	nonce, block := uint64(13), uint64(0)

	// Full (untruncated) final state, which the cipher keeps internal.
	ws := newWorkspace(par)
	ws.sampler.Reseed(nonce, block)
	c.permuteInto(ws.sampler, ws)
	full := ws.state

	// Adversary: rebuild the public schedule and invert the final affine
	// layer: state = Mix(M·X + RC)  ⇒  X = M⁻¹·(Mix⁻¹(state) − RC).
	layers := DeriveSchedule(par, nonce, block)
	last := layers[len(layers)-1]
	mod := par.Mod
	tt := par.T

	state := full.Clone()
	// Invert Mix: (2 1; 1 2)⁻¹ = 3⁻¹(2 -1; -1 2).
	inv3 := mod.Inv(3)
	l, r := state[:tt], state[tt:]
	preMix := ff.NewVec(2 * tt)
	for i := 0; i < tt; i++ {
		preMix[i] = mod.Mul(inv3, mod.Sub(mod.Mul(2, l[i]), r[i]))
		preMix[tt+i] = mod.Mul(inv3, mod.Sub(mod.Mul(2, r[i]), l[i]))
	}
	// Subtract round constants and apply the matrix inverses.
	ff.SubVec(mod, preMix[:tt], preMix[:tt], last.RCL)
	ff.SubVec(mod, preMix[tt:], preMix[tt:], last.RCR)
	mlInv, ok := ExpandMatrix(mod, last.MatSeedL).Inverse(mod)
	if !ok {
		t.Fatal("final matrix not invertible?")
	}
	mrInv, ok := ExpandMatrix(mod, last.MatSeedR).Inverse(mod)
	if !ok {
		t.Fatal("final matrix not invertible?")
	}
	recovered := ff.NewVec(2 * tt)
	mlInv.MulVec(mod, recovered[:tt], preMix[:tt])
	mrInv.MulVec(mod, recovered[tt:], preMix[tt:])

	// Check: the recovered state equals the state after the cube S-box —
	// i.e. the final affine layer IS invertible from the full state. The
	// cipher therefore must not expose it; KeyStream returns only t
	// elements.
	wantKS := c.KeyStream(nonce, block)
	if len(wantKS) != tt {
		t.Fatalf("keystream exposes %d elements, want %d (truncated)", len(wantKS), tt)
	}
	if !wantKS.Equal(full[:tt]) {
		t.Fatal("keystream is not the truncation of the final state")
	}
	// The inversion consumed all 2t outputs; verify it actually produced
	// the pre-final-layer state by re-applying the layer.
	reapplied := ff.NewVec(2 * tt)
	k := NewKernel(par)
	outL, outR, rowA, rowB := ff.NewVec(tt), ff.NewVec(tt), ff.NewVec(tt), ff.NewVec(tt)
	k.MatVecInto(outL, last.MatSeedL, recovered[:tt], rowA, rowB)
	k.MatVecInto(outR, last.MatSeedR, recovered[tt:], rowA, rowB)
	k.FinishLayer(reapplied, outL, outR, last.RCL, last.RCR, par.Rounds)
	if !reapplied.Equal(full) {
		t.Fatal("final-layer inversion failed — it should succeed given the full state")
	}
}
