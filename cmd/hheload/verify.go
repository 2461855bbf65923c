package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
)

// verify checks every kept reply against a client-side oracle: keyed
// ciphertexts against the software PASTA-4 keystream of the session's
// key (at the returned stream offsets, or from counter 0 for Encrypt),
// transcipher replies by decrypting them with the client's BFV key. It
// marks each mismatch as a failed outcome and returns how many replies
// it checked and how many were wrong. Sessions are split over
// clientProcs goroutines.
func verify(in *inputs, tr traffic, out [][]outcome, reps [][]reply) (checked, bad int, err error) {
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for part := range clientProcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := verifier{in: in, oracles: map[int32]backend.BlockCipher{}}
			defer v.close()
			var c, b int
			err := func() error {
				for l := range tr.ops {
					for i := range tr.ops[l] {
						o := &tr.ops[l][i]
						if int(o.sess)%clientProcs != part || !o.sample || !out[l][i].sent || out[l][i].lat == failedLat {
							continue
						}
						ok, err := v.check(o, &reps[l][i])
						if err != nil {
							return err
						}
						c++
						if !ok {
							b++
							out[l][i].lat = failedLat
						}
					}
				}
				return nil
			}()
			mu.Lock()
			checked, bad, errs = checked+c, bad+b, append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return checked, bad, errors.Join(errs...)
}

// verifier holds one goroutine's oracles.
type verifier struct {
	in      *inputs
	oracles map[int32]backend.BlockCipher
}

func (v *verifier) close() {
	for _, o := range v.oracles {
		o.Close()
	}
}

// oracle is keyed session s's cipher on the software backend.
func (v *verifier) oracle(s int32) (backend.BlockCipher, error) {
	if o, ok := v.oracles[s]; ok {
		return o, nil
	}
	o, err := backend.Open(backend.NameSoftware, backend.Config{
		CipherParams: cipher.Params{Variant: 4, Width: 17},
		Key:          ff.Vec(v.in.keys[s]),
		Workers:      1,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	v.oracles[s] = o
	return o, nil
}

// check reports whether one reply matches the oracle.
func (v *verifier) check(o *op, rep *reply) (bool, error) {
	ctx := context.Background()
	msg := v.in.payload(o)
	switch o.kind {
	case opEncrypt:
		bc, err := v.oracle(o.sess)
		if err != nil {
			return false, err
		}
		want, err := bc.Encrypt(ctx, o.nonce, msg)
		if err != nil {
			return false, err
		}
		return rep.ct.Equal(want), nil
	case opStream:
		bc, err := v.oracle(o.sess)
		if err != nil {
			return false, err
		}
		first := rep.off / pastaT
		count := int((rep.off+uint64(len(msg))-1)/pastaT - first + 1)
		ks, err := bc.KeyStreamBlocks(ctx, v.in.nonces[o.sess], first, count)
		if err != nil {
			return false, err
		}
		skip := rep.off - first*pastaT
		want := ff.NewVec(len(msg))
		for j := range msg {
			want[j] = ff.P17.Add(msg[j], ks[skip+uint64(j)])
		}
		return rep.ct.Equal(want), nil
	case opTranscipher:
		ct, err := v.in.tcClient.Context().UnmarshalCiphertext(rep.blob)
		if err != nil {
			return false, fmt.Errorf("transcipher reply: %w", err)
		}
		got, err := v.in.tcClient.DecryptPacked(ct, len(msg))
		if err != nil {
			return false, err
		}
		return got.Equal(msg), nil
	}
	return false, fmt.Errorf("unknown op kind %d", o.kind)
}
