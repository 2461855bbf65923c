package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ff"
)

// roundTrip frames a payload through an in-memory pipe and returns what
// the reader sees.
func roundTrip(t *testing.T, typ Type, payload []byte) (Type, []byte) {
	t.Helper()
	var buf bytes.Buffer
	c := &Codec{r: &buf, w: &buf}
	if err := c.WriteFrame(typ, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	gotT, gotP, err := c.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return gotT, gotP
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello, edge")
	gotT, gotP := roundTrip(t, TypeBlob, payload)
	if gotT != TypeBlob || !bytes.Equal(gotP, payload) {
		t.Fatalf("round trip mismatch: type %v payload %q", gotT, gotP)
	}
	// Empty payloads are legal.
	if gotT, gotP = roundTrip(t, TypeSessionClose, nil); gotT != TypeSessionClose || len(gotP) != 0 {
		t.Fatalf("empty round trip mismatch: type %v payload %q", gotT, gotP)
	}
}

func TestFrameHeaderValidation(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		c := &Codec{r: &buf, w: &buf}
		if err := c.WriteFrame(TypeBlob, []byte("x")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name    string
		mutate  func([]byte)
		wantErr error
	}{
		{"bad magic", func(b []byte) { b[0] ^= 0xff }, ErrBadMagic},
		{"bad version", func(b []byte) { b[4] = Version + 1 }, ErrBadVersion},
		{"zero type", func(b []byte) { b[5] = 0 }, ErrBadType},
		{"unknown type", func(b []byte) { b[5] = uint8(maxType) + 1 }, ErrBadType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := append([]byte(nil), good...)
			tc.mutate(frame)
			c := &Codec{r: bytes.NewReader(frame)}
			if _, _, err := c.ReadFrame(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestFrameTooLarge(t *testing.T) {
	var frame [HeaderSize]byte
	binary.LittleEndian.PutUint32(frame[0:], Magic)
	frame[4] = Version
	frame[5] = uint8(TypeBlob)
	binary.LittleEndian.PutUint32(frame[6:], 1<<30)
	c := &Codec{r: bytes.NewReader(frame[:])}
	if _, _, err := c.ReadFrame(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}

	// Writer side enforces the same bound.
	cw := &Codec{w: io.Discard, MaxPayload: 8}
	if err := cw.WriteFrame(TypeBlob, make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("write got %v, want ErrTooLarge", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	c := &Codec{r: &buf, w: &buf}
	if err := c.WriteFrame(TypeBlob, []byte("full payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, HeaderSize - 1, HeaderSize + 3, len(full) - 1} {
		rc := &Codec{r: bytes.NewReader(full[:cut])}
		if _, _, err := rc.ReadFrame(); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
	// A clean EOF between frames is io.EOF exactly.
	rc := &Codec{r: bytes.NewReader(nil)}
	if _, _, err := rc.ReadFrame(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	key := []uint64{1, 2, 3, 4}
	msgs := []struct {
		typ Type
		msg interface{ Encode() []byte }
	}{
		{TypeSessionOpen, &SessionOpen{ID: 7, Scheme: "pasta", Variant: 4, Width: 17,
			Rounds: 1, T: 2, Nonce: 99, Key: key, EvalKey: []byte("fhe-blob")}},
		{TypeSessionAck, &SessionAck{ID: 7, Session: 3, BlockSize: 32, Modulus: 65537, Bits: 17}},
		{TypeSessionClose, &SessionClose{Session: 3}},
		{TypeEncrypt, &EncryptReq{Session: 3, ID: 8, Nonce: 5, Count: 2, Bits: 17,
			Packed: mustPack(t, ff.Vec{11, 22}, 17)}},
		{TypeKeystream, &KeystreamReq{Session: 3, ID: 9, Nonce: 5, First: 10, Count: 4}},
		{TypeStream, &StreamReq{Session: 3, ID: 10, Count: 3, Bits: 17,
			Packed: mustPack(t, ff.Vec{1, 2, 3}, 17)}},
		{TypeData, &Data{Session: 3, ID: 10, Offset: 64, Count: 3, Bits: 17,
			Packed: mustPack(t, ff.Vec{4, 5, 6}, 17)}},
		{TypeError, &ErrorMsg{Session: 3, ID: 11, Code: CodeOverloaded,
			RetryAfterMillis: 250, Msg: "queue full"}},
	}
	for _, tc := range msgs {
		t.Run(tc.typ.String(), func(t *testing.T) {
			got, err := DecodeAny(tc.typ, tc.msg.Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, tc.msg)
			}
		})
	}
}

func mustPack(t *testing.T, v ff.Vec, bits uint8) []byte {
	t.Helper()
	_, p, err := PackVec(v, bits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMessageDecodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		typ     Type
		payload []byte
	}{
		{"empty session open", TypeSessionOpen, nil},
		{"trailing bytes", TypeSessionClose, append((&SessionClose{Session: 1}).Encode(), 0)},
		{"oversized key claim", TypeSessionOpen, func() []byte {
			m := &SessionOpen{Scheme: "pasta", Key: []uint64{1}}
			b := m.Encode()
			// Key vector length prefix sits after ID(8)+scheme(4+5)+3×u8+u16+nonce(8).
			off := 8 + 4 + len("pasta") + 3 + 2 + 8
			binary.LittleEndian.PutUint32(b[off:], 1<<31)
			return b
		}()},
		{"packed length mismatch", TypeEncrypt, func() []byte {
			m := &EncryptReq{Count: 100, Bits: 17, Packed: []byte{1, 2}}
			return m.Encode()
		}()},
		{"zero pack width", TypeStream, (&StreamReq{Count: 0, Bits: 0}).Encode()},
		{"oversized keystream count", TypeKeystream,
			(&KeystreamReq{Count: MaxVecElems + 1}).Encode()},
		{"oversized error msg claim", TypeError, func() []byte {
			b := (&ErrorMsg{Code: 1, Msg: "x"}).Encode()
			binary.LittleEndian.PutUint32(b[4+8+2+4:], MaxErrorMsg+1)
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeAny(tc.typ, tc.payload); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("got %v, want ErrBadMessage", err)
			}
		})
	}
}

// TestVecRejectsBeforeAllocating: the allocating Vec helpers refuse a
// message whose Count its Packed bytes cannot back, or whose width is out
// of range, before they allocate Count elements.
func TestVecRejectsBeforeAllocating(t *testing.T) {
	for _, m := range []*Data{
		{Count: MaxVecElems, Bits: 17, Packed: []byte{1, 2, 3}},
		{Count: MaxVecElems, Bits: 0},
		{Count: MaxVecElems, Bits: 65, Packed: make([]byte, 9)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := m.Vec()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadMessage) {
			t.Fatalf("Count=%d Bits=%d over %d bytes: got %v, want ErrBadMessage", m.Count, m.Bits, len(m.Packed), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
			t.Fatalf("Count=%d Bits=%d: rejection allocated %d bytes", m.Count, m.Bits, n)
		}
	}
	v := ff.Vec{1, 2, 3}
	got, err := (&Data{Count: 3, Bits: 17, Packed: mustPack(t, v, 17)}).Vec()
	if err != nil || !got.Equal(v) {
		t.Fatalf("Vec() = %v, %v; want %v", got, err, v)
	}
}

// TestReadFrameBoundedAllocation forges a maximal length field backed by
// a tiny stream: the reader must fail without having grown its buffer
// past one chunk beyond the delivered bytes.
func TestReadFrameBoundedAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	var frame [HeaderSize + 16]byte
	binary.LittleEndian.PutUint32(frame[0:], Magic)
	frame[4] = Version
	frame[5] = uint8(TypeBlob)
	binary.LittleEndian.PutUint32(frame[6:], DefaultMaxPayload)
	c := &Codec{r: bytes.NewReader(frame[:])}
	allocs := testing.AllocsPerRun(1, func() {
		c = &Codec{r: bytes.NewReader(frame[:])}
		if _, _, err := c.ReadFrame(); err == nil {
			t.Fatal("truncated 16 MiB claim decoded")
		}
	})
	// One header array is stack-allocated; the payload buffer must be a
	// single chunk, not the claimed 16 MiB. Allow a few bookkeeping
	// allocations but nothing of payload scale.
	if allocs > 8 {
		t.Fatalf("ReadFrame allocated %v times for a truncated frame", allocs)
	}
}
