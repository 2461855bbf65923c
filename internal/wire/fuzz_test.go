package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/cipher"
	"repro/internal/ff"

	// Link the built-in cipher families and the test-only software-only
	// one so the SessionOpen seed corpus below covers every registered
	// name.
	_ "repro/internal/cipher/ciphertest"
	_ "repro/internal/hera"
	_ "repro/internal/pasta"
)

// FuzzWireDecode drives the full decode path — frame header validation,
// chunked payload reads, and every typed message decoder — with raw
// bytes. The contract under fuzz: never panic, never allocate
// proportionally to a forged length field, and either round-trip or
// return an error. `make fuzz-smoke` runs this briefly on every CI pass.
func FuzzWireDecode(f *testing.F) {
	// Seed with one valid frame per message type, plus classic mutations.
	seed := func(t Type, payload []byte) {
		var buf bytes.Buffer
		c := &Codec{r: &buf, w: &buf}
		if err := c.WriteFrame(t, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// One SessionOpen per registered cipher family (so negotiation
	// parsing is fuzzed for every name a real client can send), plus a
	// junk name the server must reject gracefully, a params-blob open,
	// and a resume-token open.
	for _, cn := range cipher.Names() {
		seed(TypeSessionOpen, (&SessionOpen{ID: 1, Scheme: cn, Variant: 3, Width: 17,
			Nonce: 4, Key: []uint64{9, 9}, EvalKey: []byte{1, 2, 3}}).Encode())
	}
	seed(TypeSessionOpen, (&SessionOpen{ID: 1, Scheme: "rasta", Nonce: 4, Key: []uint64{9}}).Encode())
	seed(TypeSessionOpen, (&SessionOpen{ID: 1, Scheme: "pasta", Nonce: 4, Key: []uint64{9},
		CipherParams: []byte{0xca, 0xfe}}).Encode())
	seed(TypeSessionOpen, (&SessionOpen{ID: 1, Resume: bytes.Repeat([]byte{7}, 36)}).Encode())
	seed(TypeSessionAck, (&SessionAck{ID: 1, Session: 2, Cipher: "pasta", BlockSize: 32, Modulus: 65537, Bits: 17,
		Counter: 12, Tail: 96, Resume: []byte{9, 8, 7}}).Encode())
	seed(TypeSessionClose, (&SessionClose{Session: 2}).Encode())
	seed(TypeEncrypt, (&EncryptReq{Session: 2, ID: 3, Counter: 1, Nonce: 1, Count: 1, Bits: 8, Packed: []byte{0x2a}}).Encode())
	seed(TypeKeystream, (&KeystreamReq{Session: 2, ID: 4, Counter: 2, Nonce: 1, First: 7, Count: 2}).Encode())
	seed(TypeStream, (&StreamReq{Session: 2, ID: 5, Counter: 3, Count: 1, Bits: 8, Packed: []byte{0x2a}}).Encode())
	seed(TypeData, (&Data{Session: 2, ID: 5, Offset: 32, Count: 1, Bits: 8, Packed: []byte{0x2a}}).Encode())
	seed(TypeError, (&ErrorMsg{Session: 2, ID: 6, Code: CodeOverloaded, RetryAfterMillis: 9, Msg: "m"}).Encode())
	seed(TypeBlob, []byte("opaque"))
	// Wire v4: the transciphering tier. Seed a mid-upload chunk, the
	// zero-length progress-probe chunk, both ack shapes, and a
	// transcipher request.
	seed(TypeEvalKeys, (&EvalKeysChunk{Session: 2, ID: 7, Counter: 4, Offset: 16, Total: 32,
		Chunk: bytes.Repeat([]byte{0xee}, 8)}).Encode())
	seed(TypeEvalKeys, (&EvalKeysChunk{Session: 2, ID: 8, Counter: 5, Offset: 32, Total: 32}).Encode())
	seed(TypeEvalKeysAck, (&EvalKeysAck{Session: 2, ID: 7, Received: 24, Total: 32}).Encode())
	seed(TypeEvalKeysAck, (&EvalKeysAck{Session: 2, ID: 8, Received: 32, Total: 32, Complete: true}).Encode())
	seed(TypeTranscipher, (&TranscipherReq{Session: 2, ID: 9, Counter: 6, Nonce: 1, First: 3,
		Count: 4, Bits: 17, Packed: bytes.Repeat([]byte{0x11}, ff.PackedSize(4, 17))}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Run the frame stream through both read paths: the allocating
		// ReadFrame and the scratch-reusing ReadFrameInto share the
		// "never panic, never over-allocate" contract.
		c := &Codec{r: bytes.NewReader(data)}
		ci := &Codec{r: bytes.NewReader(data)}
		var scratch []byte
		for {
			typ, payload, err := c.ReadFrame()
			typI, payloadI, errI := ci.ReadFrameInto(scratch)
			if (err == nil) != (errI == nil) {
				t.Fatalf("ReadFrame err %v but ReadFrameInto err %v", err, errI)
			}
			if err != nil {
				if err == io.EOF && len(data) == 0 {
					return
				}
				return // any error is acceptable; panics are not
			}
			if typI != typ || !bytes.Equal(payloadI, payload) {
				t.Fatalf("ReadFrameInto diverges: %v/%v payloads %x/%x", typ, typI, payload, payloadI)
			}
			scratch = payloadI
			msg, err := DecodeAny(typ, payload)
			fuzzDecodeInto(t, typ, payload, msg, err)
			if err != nil {
				continue
			}
			// Whatever decoded must re-encode and decode to the same
			// message — the codec cannot silently normalize.
			if enc, ok := msg.(interface{ Encode() []byte }); ok {
				if _, err := DecodeAny(typ, enc.Encode()); err != nil {
					t.Fatalf("re-decode of valid %v failed: %v", typ, err)
				}
			}
		}
	})
}

// fuzzDecodeInto holds the DecodeInto variants to the allocating
// decoders: same accept/reject decision, same decoded message, and the
// same no-panic guarantee on arbitrary payloads.
func fuzzDecodeInto(t *testing.T, typ Type, payload []byte, msg any, decErr error) {
	t.Helper()
	var got any
	var err error
	switch typ {
	case TypeEncrypt:
		m := &EncryptReq{}
		err = DecodeEncryptReqInto(m, payload)
		got = m
	case TypeKeystream:
		m := &KeystreamReq{}
		err = DecodeKeystreamReqInto(m, payload)
		got = m
	case TypeStream:
		m := &StreamReq{}
		err = DecodeStreamReqInto(m, payload)
		got = m
	case TypeData:
		m := &Data{}
		err = DecodeDataInto(m, payload)
		got = m
	case TypeEvalKeys:
		m := &EvalKeysChunk{}
		err = DecodeEvalKeysChunkInto(m, payload)
		got = m
	case TypeTranscipher:
		m := &TranscipherReq{}
		err = DecodeTranscipherReqInto(m, payload)
		got = m
	default:
		return
	}
	if (err == nil) != (decErr == nil) {
		t.Fatalf("%v: DecodeInto err %v but allocating decode err %v", typ, err, decErr)
	}
	if err == nil && !reflect.DeepEqual(got, msg) {
		t.Fatalf("%v: DecodeInto diverges\n got %#v\nwant %#v", typ, got, msg)
	}
}
