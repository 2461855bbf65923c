// Package ciphertest registers "dummy", a software-only cipher family
// for tests. Importing it (from _test.go files only) is all it takes
// for the family to join every registry-driven suite: it opens on the
// software backend, the hardware substrates refuse it with
// ErrUnsupported through the default capability probe, and it appears
// in the dynamic cipher listings of unknown-cipher errors.
package ciphertest

import (
	"fmt"

	"repro/internal/cipher"
	"repro/internal/ff"
)

// Name is the registry and wire name of the test family.
const Name = "dummy"

// Block is the block and key length of the default instance.
// cipher.Params.T selects any other length (T = 64 shares PASTA-4's
// key length, so the same key words are valid in both families).
const Block = 8

// spec deliberately does not implement cipher.SubstrateProber: the
// family is software-only.
type spec struct{}

func init() { cipher.Register(spec{}) }

func (spec) Name() string { return Name }

func (s spec) Resolve(p cipher.Params) (cipher.Instance, error) {
	mod, err := p.Modulus()
	if err != nil {
		return cipher.Instance{}, err
	}
	block := Block
	if p.T != 0 {
		block = p.T
	}
	return cipher.Instance{
		Spec:   s,
		Block:  block,
		KeyLen: block,
		Mod:    mod,
		Label:  fmt.Sprintf("DUMMY-%d(%v)", block, mod),
	}, nil
}

func (spec) NewRandomKey(inst cipher.Instance) (ff.Vec, error) {
	return cipher.RandomKey(Name, inst.Mod, inst.KeyLen)
}

func (spec) KeyFromSeed(inst cipher.Instance, seed string) ff.Vec {
	return cipher.SeededKey(Name, inst.Mod, inst.KeyLen, seed)
}

func (spec) ValidateKey(inst cipher.Instance, key ff.Vec) error {
	return cipher.CheckKey(Name, inst.Mod, inst.KeyLen, key)
}

func (spec) NewEngine(inst cipher.Instance, key ff.Vec) (cipher.BlockEngine, error) {
	return &engine{mod: inst.Mod, key: key.Clone()}, nil
}

// engine is a deliberately trivial keystream: a keyed affine mix of
// (nonce, block, index). Not a cipher — just deterministic,
// concurrent-safe, and allocation-free, which is all the BlockEngine
// contract demands of it.
type engine struct {
	mod ff.Modulus
	key ff.Vec
}

func (e *engine) KeyStreamInto(dst ff.Vec, nonce, block uint64) error {
	if len(dst) != len(e.key) {
		return fmt.Errorf("dummy: dst has %d elements, want %d", len(dst), len(e.key))
	}
	m := e.mod
	p := m.P()
	for i := range dst {
		dst[i] = m.Add(e.key[i], (nonce*2654435761+block*40503+uint64(i)*97+1)%p)
	}
	return nil
}
