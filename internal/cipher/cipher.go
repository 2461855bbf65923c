// Package cipher promotes the symmetric HHE cipher to a first-class
// registry axis, mirroring the substrate registry in internal/backend.
// A cipher family (PASTA, HERA, …) registers a Spec once from
// its package init; every other layer — backend.Config resolution, the
// serving tier's per-tenant session negotiation, the CLIs' -cipher
// flag, and the conformance/differential suites — dispatches through
// the registry instead of switching on cipher names. Adding a cipher
// is then a one-package drop-in: Register alone makes it reachable
// from every substrate that can run it.
package cipher

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"repro/internal/ff"
	"repro/internal/xof"
)

// BlockEngine is the minimal software keystream contract: write the
// keystream block KS(nonce, block) into dst (len(dst) must equal the
// instance's block size). Engines must be safe for concurrent use and
// allocation-free in steady state (pooled workspaces); the software
// backend fans bulk work out over goroutines sharing one engine.
type BlockEngine interface {
	KeyStreamInto(dst ff.Vec, nonce, block uint64) error
}

// Params carries the substrate-independent cipher parameters as they
// arrive from config files, CLI flags, or the wire's SessionOpen frame.
// The zero value selects the family's recommended instance on the
// default 17-bit modulus. Specs interpret the fields they understand
// and reject combinations they don't.
type Params struct {
	// Width selects a vetted modulus from ff.StandardModuli by bit
	// width; 0 means DefaultWidth.
	Width uint
	// Mod, when non-zero, overrides Width with an explicit modulus
	// (needed for non-standard toy instances).
	Mod ff.Modulus
	// Variant selects a named instance within the family using the
	// family's public numbering (PASTA: 3 or 4; 0 = family default).
	Variant int
	// Rounds overrides the round count where the family allows it
	// (HERA, toy instances); 0 = family default.
	Rounds int
	// T, when non-zero, requests a reduced/toy state size for
	// families that support one (PASTA's ToyParams path).
	T int
}

// DefaultWidth is the modulus bit width assumed when Params.Width is
// zero: the paper's 17-bit Fermat prime 65537.
const DefaultWidth uint = 17

// Modulus resolves the modulus selection shared by every family:
// explicit Mod wins, otherwise Width (defaulting to DefaultWidth) is
// looked up in ff.StandardModuli. This is the single home of the
// width-default logic that used to be repeated per scheme branch in
// backend.Config.resolve().
func (p Params) Modulus() (ff.Modulus, error) {
	if p.Mod.P() != 0 {
		return p.Mod, nil
	}
	w := p.Width
	if w == 0 {
		w = DefaultWidth
	}
	mod, ok := ff.StandardModuli[w]
	if !ok {
		return ff.Modulus{}, fmt.Errorf("cipher: no standard modulus with %d-bit width", w)
	}
	return mod, nil
}

// Instance is a fully resolved cipher instance: the outcome of
// Spec.Resolve on concrete Params. It is what substrates and the
// serving tier work with — block geometry, key length, modulus, and
// the family-native parameter value for substrate factories that need
// it (e.g. the accelerator model type-asserts Params to pasta.Params).
type Instance struct {
	// Spec is the family that resolved this instance.
	Spec Spec
	// Block is the number of keystream elements produced per block.
	Block int
	// KeyLen is the secret key length in field elements.
	KeyLen int
	// Mod is the resolved field modulus.
	Mod ff.Modulus
	// Params holds the family-native parameter struct (opaque here).
	Params any
	// Label names the instance for diagnostics and key fingerprints,
	// e.g. "PASTA-3(p=65537)". Two instances with different keystream
	// functions must have different labels: the serving tier folds
	// Spec.Name()+Label into its duplicate-nonce fingerprint.
	Label string
}

// Spec describes one cipher family. Implementations are stateless
// values registered once via Register; all per-instance state lives in
// the Instance and the engines it creates.
type Spec interface {
	// Name is the registry key and wire name, lowercase ("pasta").
	Name() string
	// Resolve validates Params and produces a concrete Instance.
	Resolve(p Params) (Instance, error)
	// NewRandomKey samples a fresh key for the instance from
	// crypto/rand.
	NewRandomKey(inst Instance) (ff.Vec, error)
	// KeyFromSeed derives a deterministic key from a seed string
	// (tests and reproducible examples only, not production).
	KeyFromSeed(inst Instance, seed string) ff.Vec
	// ValidateKey checks length and element ranges.
	ValidateKey(inst Instance, key ff.Vec) error
	// NewEngine binds a validated key to a software BlockEngine.
	NewEngine(inst Instance, key ff.Vec) (BlockEngine, error)
}

// Substrate names accepted by capability probes. They match the
// backend registry names for the non-software substrates.
const (
	SubstrateAccel = "accel"
	SubstrateSoC   = "soc"
)

// SubstrateProber is an optional Spec extension: families that can run
// on a hardware substrate report per-instance support. Returning nil
// means the (substrate, instance) pair is supported; a non-nil error
// explains why it is not (the backend wraps it in ErrUnsupported).
// Specs without this interface are software-only.
type SubstrateProber interface {
	ProbeSubstrate(substrate string, inst Instance) error
}

// Probe reports whether inst can run on the named non-software
// substrate, defaulting to "software-only" for specs that do not
// implement SubstrateProber.
func Probe(inst Instance, substrate string) error {
	if p, ok := inst.Spec.(SubstrateProber); ok {
		return p.ProbeSubstrate(substrate, inst)
	}
	return fmt.Errorf("cipher %s is software-only (no %s support)", inst.Spec.Name(), substrate)
}

// WipeKey zeroizes key material in place. Callers that copy keys out
// of wire frames or config structs use it to bound the lifetime of
// secrets in memory.
func WipeKey(k ff.Vec) {
	for i := range k {
		k[i] = 0
	}
}

// SeededKey is the shared deterministic key derivation: SHAKE128 over
// "<name>-key:<seed>", squeezed into n field elements. It reproduces
// the historical pasta.KeyFromSeed / hera.KeyFromSeed byte-for-byte
// (they used the same prefix convention), so golden vectors keyed by
// seed strings survive the registry refactor.
func SeededKey(name string, mod ff.Modulus, n int, seed string) ff.Vec {
	s := xof.NewSamplerBytes(mod, []byte(name+"-key:"+seed))
	return s.Vector(n, false)
}

// RandomKey samples n uniform field elements from crypto/rand by
// mask-and-reject, the shared implementation behind every family's
// NewRandomKey.
func RandomKey(name string, mod ff.Modulus, n int) (ff.Vec, error) {
	k := make(ff.Vec, n)
	var buf [8]byte
	for i := range k {
		for {
			if _, err := rand.Read(buf[:]); err != nil {
				return nil, fmt.Errorf("%s: sampling key: %w", name, err)
			}
			v := binary.LittleEndian.Uint64(buf[:]) & mod.Mask()
			if v < mod.P() {
				k[i] = v
				break
			}
		}
	}
	return k, nil
}

// CheckKey validates key length and element ranges, the shared
// implementation behind every family's ValidateKey.
func CheckKey(name string, mod ff.Modulus, n int, key ff.Vec) error {
	if len(key) != n {
		return fmt.Errorf("%s: key has %d elements, want %d", name, len(key), n)
	}
	for i, v := range key {
		if v >= mod.P() {
			return fmt.Errorf("%s: key element %d = %d out of range for %v", name, i, v, mod)
		}
	}
	return nil
}
