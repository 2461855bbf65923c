package hhe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bfv"
)

// Eval-key blob: the self-describing upload a transciphering client
// sends the server once per session (wire TypeEvalKeys, chunked — tens
// of MB at production parameters). The envelope leads with the BFV
// parameter set so the receiver can build the exact Context the key
// material was generated under before parsing it, then frames each key
// section with a u32 length: params, relin key, Galois keys, and the two
// replicated encrypted key halves.

const ekMagic = 0x48484b31 // "HHK",1

// maxEvalKeySection bounds a single framed section inside the blob; the
// wire layer separately bounds the whole upload (wire.MaxEvalKeysTotal).
const maxEvalKeySection = 1 << 28

// MarshalPackedEvalKeys serializes the packed server material together
// with the BFV parameters it was generated under.
func MarshalPackedEvalKeys(p bfv.Params, ctx *bfv.Context, k PackedEvalKeys) ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, ekMagic)
	sections := make([][]byte, 0, 5)
	pb, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sections = append(sections, pb)
	for _, m := range []interface {
		MarshalBinary(*bfv.Context) ([]byte, error)
	}{k.RLK, k.GKs, k.KeyL, k.KeyR} {
		b, err := m.MarshalBinary(ctx)
		if err != nil {
			return nil, err
		}
		sections = append(sections, b)
	}
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out, nil
}

// UnmarshalPackedEvalKeys parses an eval-key blob, reconstructing the
// BFV context from the embedded parameters.
func UnmarshalPackedEvalKeys(data []byte) (bfv.Params, *bfv.Context, PackedEvalKeys, error) {
	var k PackedEvalKeys
	var p bfv.Params
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != ekMagic {
		return p, nil, k, fmt.Errorf("hhe: bad eval-key blob")
	}
	off := 4
	section := func() ([]byte, error) {
		if off+4 > len(data) {
			return nil, fmt.Errorf("hhe: truncated eval-key blob")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n > maxEvalKeySection || off+n > len(data) {
			return nil, fmt.Errorf("hhe: truncated eval-key blob")
		}
		s := data[off : off+n]
		off += n
		return s, nil
	}
	pb, err := section()
	if err != nil {
		return p, nil, k, err
	}
	if p, err = bfv.UnmarshalParams(pb); err != nil {
		return p, nil, k, err
	}
	ctx, err := bfv.NewContext(p)
	if err != nil {
		return p, nil, k, err
	}
	for _, parse := range []func([]byte) error{
		func(b []byte) (e error) { k.RLK, e = ctx.UnmarshalRelinKey(b); return },
		func(b []byte) (e error) { k.GKs, e = ctx.UnmarshalGaloisKeys(b); return },
		func(b []byte) (e error) { k.KeyL, e = ctx.UnmarshalCiphertext(b); return },
		func(b []byte) (e error) { k.KeyR, e = ctx.UnmarshalCiphertext(b); return },
	} {
		s, err := section()
		if err != nil {
			return p, nil, k, err
		}
		if err := parse(s); err != nil {
			return p, nil, k, err
		}
	}
	if off != len(data) {
		return p, nil, k, fmt.Errorf("hhe: trailing bytes in eval-key blob")
	}
	return p, ctx, k, nil
}

// EvalKeysBlob generates the packed server material and serializes it
// for upload — the client side of the session enrollment handshake.
// Each call draws fresh encryption randomness, so two blobs from the
// same client are equivalent but not byte-identical; callers that need
// a matching local oracle should unmarshal the same blob they upload.
func (c *Client) EvalKeysBlob() ([]byte, error) {
	keys, err := c.PackedEvalKeys()
	if err != nil {
		return nil, err
	}
	return MarshalPackedEvalKeys(c.params.BFV, c.ctx, keys)
}
