package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/pasta"
	"testing"
)

// softwareOracle opens the reference cipher for key on the software
// backend: the sequential oracle serving-tier replies must match bit for
// bit. It is closed with the test.
func softwareOracle(t testing.TB, par pasta.Params, key []uint64) backend.BlockCipher {
	t.Helper()
	b, err := backend.Open(backend.NameSoftware, backend.Config{
		CipherParams: cipher.Params{T: par.T, Rounds: par.Rounds, Mod: par.Mod},
		Key:          ff.Vec(key),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// slowBackendName is a registered test-only substrate that executes on
// the software cipher after a fixed context-aware delay, so scheduler
// tests can hold the single worker busy deterministically.
const slowBackendName = "slowtest"

const slowDelay = 40 * time.Millisecond

var registerSlowOnce sync.Once

func registerSlowBackend(t *testing.T) {
	t.Helper()
	registerSlowOnce.Do(func() {
		backend.Register(slowBackendName, func(cfg backend.Config) (backend.BlockCipher, error) {
			inner, err := backend.Open(backend.NameSoftware, cfg)
			if err != nil {
				return nil, err
			}
			return &slowCipher{BlockCipher: inner}, nil
		})
	})
}

type slowCipher struct {
	backend.BlockCipher
}

func (s *slowCipher) stall(ctx context.Context) error {
	select {
	case <-time.After(slowDelay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *slowCipher) KeyStreamInto(ctx context.Context, dst ff.Vec, nonce, block uint64) error {
	if err := s.stall(ctx); err != nil {
		return err
	}
	return s.BlockCipher.KeyStreamInto(ctx, dst, nonce, block)
}

func (s *slowCipher) KeyStreamBlocks(ctx context.Context, nonce, first uint64, count int) (ff.Vec, error) {
	if err := s.stall(ctx); err != nil {
		return nil, err
	}
	return s.BlockCipher.KeyStreamBlocks(ctx, nonce, first, count)
}

func (s *slowCipher) Encrypt(ctx context.Context, nonce uint64, msg ff.Vec) (ff.Vec, error) {
	if err := s.stall(ctx); err != nil {
		return nil, err
	}
	return s.BlockCipher.Encrypt(ctx, nonce, msg)
}

func (s *slowCipher) Decrypt(ctx context.Context, nonce uint64, ct ff.Vec) (ff.Vec, error) {
	if err := s.stall(ctx); err != nil {
		return nil, err
	}
	return s.BlockCipher.Decrypt(ctx, nonce, ct)
}
