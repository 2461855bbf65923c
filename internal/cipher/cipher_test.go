package cipher

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ff"
)

// fakeSpec is a minimal registry-only Spec for testing Register/Open.
type fakeSpec struct{ name string }

func (f fakeSpec) Name() string                       { return f.name }
func (f fakeSpec) Resolve(p Params) (Instance, error) { return Instance{Spec: f}, nil }
func (f fakeSpec) NewRandomKey(Instance) (ff.Vec, error) {
	return nil, nil
}
func (f fakeSpec) KeyFromSeed(Instance, string) ff.Vec { return nil }
func (f fakeSpec) ValidateKey(Instance, ff.Vec) error  { return nil }
func (f fakeSpec) NewEngine(Instance, ff.Vec) (BlockEngine, error) {
	return nil, errors.New("fake")
}

func TestRegistry(t *testing.T) {
	Register(fakeSpec{name: "fake-a"})
	Register(fakeSpec{name: "fake-b"})

	s, err := Open("fake-a")
	if err != nil {
		t.Fatalf("Open(fake-a): %v", err)
	}
	if s.Name() != "fake-a" {
		t.Fatalf("Open returned %q", s.Name())
	}

	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	found := 0
	for _, n := range names {
		if n == "fake-a" || n == "fake-b" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("Names missing registered fakes: %v", names)
	}
}

func TestOpenUnknown(t *testing.T) {
	_, err := Open("no-such-cipher")
	if !errors.Is(err, ErrUnknownCipher) {
		t.Fatalf("want ErrUnknownCipher, got %v", err)
	}
	// The error must list registered names so flag errors and wire
	// rejections are self-describing.
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("Open error %q does not mention registered cipher %q", err, n)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(fakeSpec{name: "fake-dup"})
	Register(fakeSpec{name: "fake-dup"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name Register did not panic")
		}
	}()
	Register(fakeSpec{name: ""})
}

func TestParamsModulus(t *testing.T) {
	// Zero value → the default 17-bit modulus.
	m, err := Params{}.Modulus()
	if err != nil || m.Bits() != 17 {
		t.Fatalf("default modulus: %v bits=%d err=%v", m, m.Bits(), err)
	}
	// Width lookup.
	for _, w := range []uint{17, 33, 54, 60} {
		m, err := Params{Width: w}.Modulus()
		if err != nil || m.Bits() != w {
			t.Fatalf("width %d: got %d bits, err=%v", w, m.Bits(), err)
		}
	}
	// Unknown width.
	if _, err := (Params{Width: 13}).Modulus(); err == nil {
		t.Fatal("width 13 accepted")
	}
	// Explicit override wins.
	custom := ff.MustModulus(11)
	m, err = Params{Width: 17, Mod: custom}.Modulus()
	if err != nil || m.P() != 11 {
		t.Fatalf("explicit modulus not honored: %v err=%v", m, err)
	}
}

func TestProbeDefaultsToSoftwareOnly(t *testing.T) {
	inst := Instance{Spec: fakeSpec{name: "fake-probe"}}
	for _, sub := range []string{SubstrateAccel, SubstrateSoC} {
		if err := Probe(inst, sub); err == nil {
			t.Errorf("Probe(%s) on non-prober spec succeeded", sub)
		}
	}
}

func TestKeyHelpers(t *testing.T) {
	mod := ff.StandardModuli[17]

	// SeededKey is deterministic and in-range.
	a := SeededKey("fake", mod, 8, "s")
	b := SeededKey("fake", mod, 8, "s")
	if !a.Equal(b) {
		t.Fatal("SeededKey not deterministic")
	}
	if c := SeededKey("fake", mod, 8, "other"); c.Equal(a) {
		t.Fatal("SeededKey ignores seed")
	}
	if c := SeededKey("other", mod, 8, "s"); c.Equal(a) {
		t.Fatal("SeededKey ignores cipher name (cross-cipher key collision)")
	}

	k, err := RandomKey("fake", mod, 16)
	if err != nil || len(k) != 16 {
		t.Fatalf("RandomKey: len=%d err=%v", len(k), err)
	}
	if err := CheckKey("fake", mod, 16, k); err != nil {
		t.Fatalf("CheckKey rejects RandomKey output: %v", err)
	}
	if err := CheckKey("fake", mod, 8, k); err == nil {
		t.Error("CheckKey accepted wrong length")
	}
	bad := make(ff.Vec, 16)
	bad[5] = mod.P()
	if err := CheckKey("fake", mod, 16, bad); err == nil {
		t.Error("CheckKey accepted out-of-range element")
	}

	WipeKey(k)
	for i, v := range k {
		if v != 0 {
			t.Fatalf("WipeKey left k[%d]=%d", i, v)
		}
	}
}

func TestWipedErrorMentionsName(t *testing.T) {
	err := CheckKey("hera", ff.StandardModuli[17], 4, ff.Vec{1})
	if !strings.Contains(err.Error(), "hera") {
		t.Fatalf("CheckKey error %q does not name the cipher", err)
	}
	if !strings.Contains(fmt.Sprintf("%v", err), "want 4") {
		t.Fatalf("CheckKey error %q does not state expected length", err)
	}
}
