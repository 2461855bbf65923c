package pasta

import (
	"encoding/binary"
	"testing"

	"repro/internal/ff"
)

// FuzzEncryptDecrypt: decryption must invert encryption for arbitrary
// message bytes, nonces, and block alignment.
func FuzzEncryptDecrypt(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint64(7))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{255, 255, 255, 255, 255, 0, 0, 9}, uint64(1<<60))

	par, err := ToyParams(4, 2, ff.P17)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewCipher(par, KeyFromSeed(par, "fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, nonce uint64) {
		msg := make(ff.Vec, len(data))
		for i, b := range data {
			msg[i] = uint64(b) * 257 % par.Mod.P()
		}
		ct, err := c.Encrypt(nonce, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.Decrypt(nonce, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(msg) {
			t.Fatalf("roundtrip failed for %d elements, nonce %d", len(msg), nonce)
		}
	})
}

// FuzzMatrixInvertible: every matrix the sequential construction builds
// from fuzzer-chosen (nonzero-lead) seeds must be invertible.
func FuzzMatrixInvertible(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(uint64(65536), uint64(0), uint64(0), uint64(0))
	mod := ff.P17
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		seed := ff.Vec{a % mod.P(), b % mod.P(), c % mod.P(), d % mod.P()}
		if seed[0] == 0 {
			seed[0] = 1
		}
		if !ExpandMatrix(mod, seed).IsInvertible(mod) {
			t.Fatalf("singular matrix from seed %v", seed)
		}
	})
}

// FuzzPermutationLayer is the differential target behind the shared
// layer kernel: for a fuzzer-chosen modulus (both kernel paths, the
// toy Fermat primes on either side of the fold's bound included), block
// size t ∈ [2, 128], matrix seeds, state, round constants and layer
// position, MatVecInto + FinishLayer must equal the materialized oracle
// ExpandMatrix·x + rc, Mix and the layer's S-box element for element.
// high pushes every element into the top of the field, where the fold's
// limb bounds are tightest.
func FuzzPermutationLayer(f *testing.F) {
	f.Add(uint8(0), uint8(30), uint8(0), []byte{1, 2, 3}, uint64(7), false)
	f.Add(uint8(0), uint8(126), uint8(2), []byte{}, uint64(1), true)
	f.Add(uint8(1), uint8(14), uint8(1), []byte{9}, uint64(3), false)
	f.Add(uint8(2), uint8(0), uint8(3), []byte{255, 255}, uint64(0), true)
	f.Add(uint8(3), uint8(126), uint8(2), []byte{}, uint64(5), true)
	f.Add(uint8(4), uint8(14), uint8(0), []byte{}, uint64(11), true)
	f.Add(uint8(5), uint8(2), uint8(2), []byte{}, uint64(13), true)
	moduli := []ff.Modulus{ff.P17, ff.P33, ff.P54, ff.P60, ff.MustModulus(17), ff.MustModulus(257)}
	const rounds = 3 // layers 0, 1: Feistel; 2: cube; 3: none
	f.Fuzz(func(t *testing.T, mSel, tSel, lSel uint8, data []byte, fill uint64, high bool) {
		mod := moduli[int(mSel)%len(moduli)]
		size := 2 + int(tSel)%127
		layer := int(lSel) % (rounds + 1)
		par, err := ToyParams(size, rounds, mod)
		if err != nil {
			t.Fatal(err)
		}
		p := mod.P()
		// Elements come from data, eight bytes each, then from a
		// splitmix64 stream seeded by fill once data runs out.
		next := func() uint64 {
			var w uint64
			if len(data) >= 8 {
				w = binary.LittleEndian.Uint64(data)
				data = data[8:]
			} else {
				fill += 0x9e3779b97f4a7c15
				w = fill
				w = (w ^ w>>30) * 0xbf58476d1ce4e5b9
				w = (w ^ w>>27) * 0x94d049bb133111eb
				w ^= w >> 31
			}
			v := w % p
			if high {
				v = p - 1 - w%4
			}
			return v
		}
		vec := func(n int, seed bool) ff.Vec {
			v := ff.NewVec(n)
			for i := range v {
				v[i] = next()
			}
			if seed && v[0] == 0 {
				v[0] = 1
			}
			return v
		}
		seedL, seedR := vec(size, true), vec(size, true)
		rcL, rcR := vec(size, false), vec(size, false)
		x := vec(2*size, false)

		want := ff.NewVec(2 * size)
		ExpandMatrix(mod, seedL).MulVec(mod, want[:size], x[:size])
		ExpandMatrix(mod, seedR).MulVec(mod, want[size:], x[size:])
		ff.AddVec(mod, want[:size], want[:size], rcL)
		ff.AddVec(mod, want[size:], want[size:], rcR)
		Mix(mod, want)
		switch {
		case layer < rounds-1:
			SboxFeistel(mod, want)
		case layer == rounds-1:
			SboxCube(mod, want)
		}

		k := NewKernel(par)
		outL, outR := ff.NewVec(size), ff.NewVec(size)
		rowA, rowB := ff.NewVec(size), ff.NewVec(size)
		k.MatVecInto(outL, seedL, x[:size], rowA, rowB)
		k.MatVecInto(outR, seedR, x[size:], rowA, rowB)
		got := x // FinishLayer overwrites the state the products came from
		k.FinishLayer(got, outL, outR, rcL, rcR, layer)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v t=%d layer %d (fold=%v): element %d = %d, oracle %d",
					mod, size, layer, k.fold, i, got[i], want[i])
			}
		}
	})
}
