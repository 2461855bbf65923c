// Package backend unifies the repository's three keystream substrates —
// the software cipher (internal/pasta, internal/hera), the cycle-accurate
// cryptoprocessor model (internal/hw), and the RISC-V SoC co-simulation
// (internal/soc) — behind one context-aware interface.
//
// Its consumers (internal/eval, internal/server, the CLIs) are written
// once against the interface instead of each substrate's own calling
// convention, error shape, and counters. A backend is opened by name
// through the registry:
//
//	b, err := backend.Open(backend.NameAccel, backend.Config{
//		CipherParams: cipher.Params{Variant: 4},
//		KeySeed:      "demo",
//	})
//
// and every backend satisfies the same contract:
//
//   - All operations take a context and return promptly (at block
//     granularity) once it is cancelled, with an error satisfying
//     errors.Is(err, context.Canceled) (or DeadlineExceeded).
//   - All failures are wrapped in *backend.Error carrying the backend
//     name and operation; substrate-specific typed errors remain
//     reachable through errors.As (e.g. *hw.ErrWatchdog when the
//     accelerator watchdog fires).
//   - Stats() exposes cumulative work counters, mirrored into
//     internal/obs as backend.<name>.blocks / backend.<name>.elements.
//
// The conformance suite (conformance_test.go) pins this contract for
// every registered backend, and the differential suite requires all
// substrates to produce bit-identical keystreams.
package backend

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ff"
)

// Schemes a backend can instantiate. The cipher axis is registry-driven
// now (see internal/cipher); these constants name the two original
// families.
//
// Deprecated: use the cipher registry names via cipher.Names().
const (
	SchemePasta = "pasta"
	SchemeHera  = "hera"
)

// KeystreamSource is the minimal substrate contract: a named, keyed
// keystream generator addressed by (nonce, block).
type KeystreamSource interface {
	// Name returns the registry name ("software", "accel", "soc").
	Name() string
	// Scheme returns the cipher family's registry name ("pasta",
	// "hera", …).
	Scheme() string
	// BlockSize returns t, the number of field elements per keystream
	// block.
	BlockSize() int
	// Modulus returns the plaintext/ciphertext field.
	Modulus() ff.Modulus
	// KeyStreamInto writes the keystream block KS(nonce, block) into
	// dst, which must have exactly BlockSize() elements.
	KeyStreamInto(ctx context.Context, dst ff.Vec, nonce, block uint64) error
	// Stats returns cumulative work counters for this backend instance.
	Stats() Stats
	// Close releases the backend; further operations return ErrClosed.
	Close() error
}

// BlockCipher extends a KeystreamSource with bulk keystream generation
// and additive stream encryption (ct = msg + KS mod p). This is the
// interface the registry hands out and the rest of the repository
// consumes.
type BlockCipher interface {
	KeystreamSource
	// KeyStreamBlocks returns count blocks of keystream for counters
	// first, first+1, …, first+count-1, concatenated.
	KeyStreamBlocks(ctx context.Context, nonce, first uint64, count int) (ff.Vec, error)
	// Encrypt encrypts an arbitrary-length message with block counters
	// starting at 0.
	Encrypt(ctx context.Context, nonce uint64, msg ff.Vec) (ff.Vec, error)
	// Decrypt inverts Encrypt.
	Decrypt(ctx context.Context, nonce uint64, ct ff.Vec) (ff.Vec, error)
}

// IntoCipher is the optional allocation-free extension of BlockCipher:
// bulk keystream and encryption into caller-owned buffers. All built-in
// substrates implement it (the software path allocation-free, the
// hardware models by copying out of their single co-sim run); consumers
// type-assert and fall back to the allocating methods when a wrapper
// does not forward it:
//
//	if ic, ok := cipher.(backend.IntoCipher); ok { ic.EncryptInto(...) }
type IntoCipher interface {
	// KeyStreamBlocksInto writes count keystream blocks for counters
	// first… into dst (exactly count × BlockSize elements).
	KeyStreamBlocksInto(ctx context.Context, dst ff.Vec, nonce, first uint64, count int) error
	// EncryptInto encrypts msg into dst (same length), counters from 0.
	EncryptInto(ctx context.Context, dst ff.Vec, nonce uint64, msg ff.Vec) error
}

// Stats is a snapshot of a backend instance's cumulative counters.
// Blocks/Elements count keystream production; the cycle counters are
// filled by the substrates that model time (accel, soc).
type Stats struct {
	Backend     string `json:"backend"`
	Scheme      string `json:"scheme"`
	Blocks      int64  `json:"blocks"`
	Elements    int64  `json:"elements"`
	AccelCycles int64  `json:"accel_cycles,omitempty"` // cryptoprocessor cycles
	CoreCycles  int64  `json:"core_cycles,omitempty"`  // RISC-V core cycles (soc only)

	// Units breaks the accel backend's work down per farm unit, so
	// operators can see whether an N-way farm is actually load-balanced.
	// Empty for non-farm backends.
	Units []UnitStats `json:"units,omitempty"`
}

// UnitStats is one accelerator farm unit's share of the backend's work.
type UnitStats struct {
	Unit   int   `json:"unit"`
	Blocks int64 `json:"blocks"`
	Cycles int64 `json:"cycles"`
}

// Sentinel errors, matched with errors.Is through the *Error wrapper.
var (
	// ErrUnknownBackend reports an Open with an unregistered name.
	ErrUnknownBackend = errors.New("unknown backend")
	// ErrUnsupported reports a configuration the substrate cannot
	// realize (e.g. HERA on the SoC, or a >32-bit modulus on the 32-bit
	// peripheral bus).
	ErrUnsupported = errors.New("unsupported configuration")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("backend closed")
)

// Error is the typed failure every backend operation returns: it names
// the backend and operation and wraps the cause, so callers can route on
// errors.Is(err, context.Canceled), errors.Is(err, ErrClosed), or
// errors.As(err, &watchdog) without caring which substrate ran.
type Error struct {
	Backend string // registry name ("software", "accel", "soc")
	Op      string // operation ("open", "keystream", "encrypt", …)
	Err     error  // underlying cause
}

func (e *Error) Error() string {
	return fmt.Sprintf("backend/%s: %s: %v", e.Backend, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }
