package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ff"
)

// Decoding bounds. They protect the server from hostile payloads; the
// frame-level MaxPayload already bounds total bytes, these bound the
// element counts a single message may claim.
const (
	// MaxKeyElems bounds the raw key length in a SessionOpen.
	MaxKeyElems = 1 << 12
	// MaxVecElems bounds the element count of any vector message.
	MaxVecElems = 1 << 20
	// MaxErrorMsg bounds the diagnostic string of an ErrorMsg.
	MaxErrorMsg = 1 << 10
	// MaxResumeToken bounds a session-resumption token (SessionOpen.Resume
	// and SessionAck.Resume). The server mints 36-byte tokens; the bound
	// leaves headroom for future MAC agility.
	MaxResumeToken = 64
	// MaxCipherName bounds the cipher registry name in a SessionOpen
	// and its echo in a SessionAck.
	MaxCipherName = 64
	// MaxCipherParams bounds the opaque cipher-parameter extension blob
	// of a SessionOpen. The fixed Variant/Width/Rounds/T fields cover
	// every registered family today; the blob is the version-3 escape
	// hatch for families whose parameters do not fit them.
	MaxCipherParams = 1 << 10
	// MaxEvalKeysChunk bounds a single EvalKeys upload chunk. Uploads
	// larger than one chunk are split client-side; the bound keeps each
	// frame (and the reader's scratch buffer) modest.
	MaxEvalKeysChunk = 4 << 20
	// MaxEvalKeysTotal bounds the assembled eval-key upload a chunk may
	// claim. Production PASTA-3 packed eval keys (relin + t−1 Galois
	// keys + two encrypted key halves) are tens of MB; the bound leaves
	// headroom without letting a hostile Total pin gigabytes.
	MaxEvalKeysTotal = 1 << 28
	// MaxTranscipherBlocks bounds the block count of one Transcipher
	// request. Each block costs a full homomorphic PASTA evaluation
	// (~10^5× a keystream block), so requests stay small and the cost
	// model meters admission per block.
	MaxTranscipherBlocks = 256
)

// Error codes carried by TypeError frames.
const (
	// CodeBadRequest: the request was malformed or out of range.
	CodeBadRequest uint16 = 1
	// CodeUnknownSession: the session id is not live on this connection.
	CodeUnknownSession uint16 = 2
	// CodeOverloaded: the scheduler queue (or session table) is full;
	// retry after the hinted delay.
	CodeOverloaded uint16 = 3
	// CodeRateLimited: the session exceeded its element rate budget.
	CodeRateLimited uint16 = 4
	// CodeDeadline: the request missed its server-side deadline.
	CodeDeadline uint16 = 5
	// CodeShuttingDown: the server is draining and accepts no new work.
	CodeShuttingDown uint16 = 6
	// CodeInternal: the backend failed; details in Msg.
	CodeInternal uint16 = 7
	// CodeReplay: the request counter was already accepted or is older
	// than the session's anti-replay window. The request was discarded
	// before any keystream offset was assigned.
	CodeReplay uint16 = 8
	// CodeDuplicateNonce: a SessionOpen carried a (key, nonce) pair that
	// is already live — accepting it would derive the same keystream
	// twice (a two-time pad).
	CodeDuplicateNonce uint16 = 9
	// CodeBadResume: a resumption token did not verify (unknown session,
	// bad MAC, or the session is still attached or already gone).
	CodeBadResume uint16 = 10
	// CodeUnknownCipher: the SessionOpen named a cipher family that is
	// not registered on this server (or parameters/substrate the family
	// rejects). The connection stays up; Msg lists the supported names.
	CodeUnknownCipher uint16 = 11
	// CodeNoEvalKeys: a Transcipher request arrived before the session's
	// eval-key upload completed (or the upload failed to build an
	// engine). Upload eval keys, wait for Complete, then retry.
	CodeNoEvalKeys uint16 = 12
	// CodeTranscipherBudget: the transcipher tier's cost-model admission
	// rejected the request — the estimated evaluation backlog exceeds
	// the configured budget. RetryAfterMillis carries the estimated
	// drain time of the current backlog.
	CodeTranscipherBudget uint16 = 13
)

// CodeString names an error code for diagnostics.
func CodeString(code uint16) string {
	switch code {
	case CodeBadRequest:
		return "bad-request"
	case CodeUnknownSession:
		return "unknown-session"
	case CodeOverloaded:
		return "overloaded"
	case CodeRateLimited:
		return "rate-limited"
	case CodeDeadline:
		return "deadline"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeInternal:
		return "internal"
	case CodeReplay:
		return "replay"
	case CodeDuplicateNonce:
		return "duplicate-nonce"
	case CodeBadResume:
		return "bad-resume"
	case CodeUnknownCipher:
		return "unknown-cipher"
	case CodeNoEvalKeys:
		return "no-eval-keys"
	case CodeTranscipherBudget:
		return "transcipher-budget"
	}
	return fmt.Sprintf("code(%d)", code)
}

// SessionOpen registers a session (Resume empty) or resumes a parked one
// (Resume carries a token from a previous SessionAck; every other field
// except ID is then ignored — the server retains the cipher, so key
// material is never re-uploaded). Key confidentiality on the wire is the
// transport's job: run the serving tier behind TLS (server.Config.TLS /
// hheserver -tls-cert) so the symmetric key never crosses the network in
// plaintext; the server zeroes its copy of the raw key bytes as soon as
// the backend cipher is constructed. EvalKey is opaque to the edge: it
// is the FHE registration blob (public/eval keys + homomorphically
// encrypted symmetric key) the edge holds for the compute tier.
type SessionOpen struct {
	ID     uint64 // request id, echoed by the SessionAck or ErrorMsg
	Scheme string // registered cipher family name ("" = server default "pasta")
	// Variant/Width/Rounds/T use the family's public numbering and are
	// interpreted by the family's Spec (PASTA: Variant 3/4 or toy T;
	// HERA: Rounds). Zero means family default throughout.
	Variant uint8  // named instance within the family (PASTA: 3 or 4)
	Width   uint8  // modulus width ω (0 = 17)
	Rounds  uint8  // round count where the family allows it
	T       uint16 // non-zero: reduced/toy state size
	Nonce   uint64 // nonce of the session's encryption stream
	Key     []uint64
	EvalKey []byte
	Resume  []byte // resumption token; non-empty = resume, not register
	// CipherParams is an opaque family-interpreted extension blob
	// (version 3) for parameters the fixed fields above cannot express;
	// empty for every built-in family. Bounded by MaxCipherParams.
	CipherParams []byte
}

// SessionAck answers a successful SessionOpen — fresh or resumed.
// Counter and Tail let a resuming client realign: Counter is the
// server's replay high-water mark (the client's next request counter
// must exceed it) and Tail is the next unassigned element offset of the
// session's encryption stream. Both are zero on a fresh open.
type SessionAck struct {
	ID        uint64 // echoed request id
	Session   uint32
	Cipher    string // negotiated cipher family name (version 3)
	BlockSize uint32 // t, elements per keystream block
	Modulus   uint64 // field prime p
	Bits      uint8  // per-element packing width for this session
	Counter   uint64 // replay-counter high-water mark
	Tail      uint64 // next stream element offset
	Resume    []byte // token accepted by a future SessionOpen.Resume
}

// SessionClose retires a session.
type SessionClose struct {
	Session uint32
}

// EncryptReq asks for a one-shot encryption of a packed message with
// block counters starting at 0 (the backend.BlockCipher.Encrypt
// semantics, bit-compatible with the sequential hhe.Client).
//
// Counter (here and on KeystreamReq/StreamReq) is the session's replay
// counter: each transmitted request carries a fresh value, strictly
// increasing per sender, and the server rejects duplicates and values
// older than its anti-replay window with CodeReplay before assigning any
// keystream offset. A rejected request's counter stays consumed — a
// retry uses a new one.
type EncryptReq struct {
	Session uint32
	ID      uint64
	Counter uint64 // replay counter (see above)
	Nonce   uint64
	Count   uint32 // elements packed in Packed
	Bits    uint8
	Packed  []byte
}

// KeystreamReq asks for Count keystream blocks [First, First+Count).
type KeystreamReq struct {
	Session uint32
	ID      uint64
	Counter uint64 // replay counter (see EncryptReq)
	Nonce   uint64
	First   uint64
	Count   uint32 // blocks
}

// StreamReq appends Count elements to the session's encryption stream
// (nonce fixed at SessionOpen). The server assigns the stream offset and
// batches partial blocks across requests into full keystream blocks.
type StreamReq struct {
	Session uint32
	ID      uint64
	Counter uint64 // replay counter (see EncryptReq)
	Count   uint32
	Bits    uint8
	Packed  []byte
}

// Data is the vector response to Encrypt, Keystream, and Stream
// requests. Offset is the absolute element offset in the session stream
// (stream responses only; 0 otherwise).
type Data struct {
	Session uint32
	ID      uint64
	Offset  uint64
	Count   uint32
	Bits    uint8
	Packed  []byte
}

// ErrorMsg reports a failed request (ID echoes the request) or a
// connection-level fault (ID 0). RetryAfterMillis is non-zero for
// transient rejections (overload, rate limit).
type ErrorMsg struct {
	Session          uint32
	ID               uint64
	Code             uint16
	RetryAfterMillis uint32
	Msg              string
}

// EvalKeysChunk carries [Offset, Offset+len(Chunk)) of a session's
// packed-evaluation key blob (version 4). The server accumulates chunks
// strictly in offset order; a chunk whose range is already received is
// acknowledged idempotently, so a client can resume an interrupted
// upload from the acknowledged high-water mark. An empty chunk is a
// progress probe: it is always accepted and the ack reports the current
// state (including re-arming engine construction after a transient
// failure). Total must be identical across all chunks of one upload.
type EvalKeysChunk struct {
	Session uint32
	ID      uint64
	Counter uint64 // replay counter (see EncryptReq)
	Offset  uint64 // absolute byte offset of Chunk within the blob
	Total   uint64 // full blob size in bytes
	Chunk   []byte
}

// EvalKeysAck answers an EvalKeysChunk. Received is the contiguous
// upload high-water mark (the offset the next chunk must start at);
// Complete is set only once the transcipher engine has been built from
// the assembled blob — a client must not send Transcipher requests
// before seeing it.
type EvalKeysAck struct {
	Session  uint32
	ID       uint64
	Received uint64
	Total    uint64
	Complete bool
}

// TranscipherReq asks the server to homomorphically decrypt the packed
// symmetric ciphertext elements of blocks [First, First+Count/t) under
// the session's uploaded eval keys — the server never holds the
// symmetric key. Count is the element count (a whole number of t-element
// blocks); the reply is a Data frame with Bits = 8 whose Packed field
// concatenates one serialized BFV ciphertext per block and whose Offset
// echoes First.
type TranscipherReq struct {
	Session uint32
	ID      uint64
	Counter uint64 // replay counter (see EncryptReq)
	Nonce   uint64
	First   uint64 // first symmetric block index
	Count   uint32 // elements packed in Packed (blocks × t)
	Bits    uint8
	Packed  []byte
}

// Vec unpacks the request's payload vector.
func (m *TranscipherReq) Vec() (ff.Vec, error) { return unpackVec(m.Count, m.Bits, m.Packed) }

// VecInto unpacks the request vector into dst (len(dst) == Count)
// without allocating.
func (m *TranscipherReq) VecInto(dst ff.Vec) error { return vecInto(dst, m.Count, m.Bits, m.Packed) }

// --- vector packing ------------------------------------------------------

// PackVec bit-packs v at the given width for a vector message.
func PackVec(v ff.Vec, bits uint8) (count uint32, packed []byte, err error) {
	if len(v) > MaxVecElems {
		return 0, nil, fmt.Errorf("%w: %d elements (max %d)", ErrBadMessage, len(v), MaxVecElems)
	}
	packed, err = ff.AppendPackBits(nil, v, uint(bits))
	if err != nil {
		return 0, nil, err
	}
	return uint32(len(v)), packed, nil
}

// Vec unpacks the message's payload vector.
func (m *Data) Vec() (ff.Vec, error) { return unpackVec(m.Count, m.Bits, m.Packed) }

// Vec unpacks the request's payload vector.
func (m *EncryptReq) Vec() (ff.Vec, error) { return unpackVec(m.Count, m.Bits, m.Packed) }

// Vec unpacks the request's payload vector.
func (m *StreamReq) Vec() (ff.Vec, error) { return unpackVec(m.Count, m.Bits, m.Packed) }

// unpackVec allocates and unpacks a (count, bits, packed) triple. It
// checks the width and that packed holds count elements before it
// allocates them, so a forged Count cannot allocate more than the
// payload backs.
func unpackVec(count uint32, bits uint8, packed []byte) (ff.Vec, error) {
	if bits == 0 || bits > 64 || len(packed) < ff.PackedSize(int(count), uint(bits)) {
		return nil, fmt.Errorf("%w: %d bytes do not hold %d × %d-bit elements", ErrBadMessage, len(packed), count, bits)
	}
	v := ff.NewVec(int(count))
	if err := ff.UnpackBitsInto(v, packed, uint(bits)); err != nil {
		return nil, err
	}
	return v, nil
}

// vecInto unpacks a validated (count, bits, packed) triple into dst,
// which must hold exactly count elements.
func vecInto(dst ff.Vec, count uint32, bits uint8, packed []byte) error {
	if len(dst) != int(count) {
		return fmt.Errorf("%w: destination holds %d elements, message %d", ErrBadMessage, len(dst), count)
	}
	return ff.UnpackBitsInto(dst, packed, uint(bits))
}

// VecInto unpacks the message vector into dst (len(dst) == Count)
// without allocating.
func (m *Data) VecInto(dst ff.Vec) error { return vecInto(dst, m.Count, m.Bits, m.Packed) }

// VecInto unpacks the request vector into dst (len(dst) == Count)
// without allocating.
func (m *EncryptReq) VecInto(dst ff.Vec) error { return vecInto(dst, m.Count, m.Bits, m.Packed) }

// VecInto unpacks the request vector into dst (len(dst) == Count)
// without allocating.
func (m *StreamReq) VecInto(dst ff.Vec) error { return vecInto(dst, m.Count, m.Bits, m.Packed) }

// --- encoder -------------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) vec(v []uint64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

// --- decoder -------------------------------------------------------------

// decoder is a strict cursor over a payload: every read is bounds-checked
// and sticky-fails, and finish() rejects trailing bytes. Length-prefixed
// fields are validated against the remaining bytes before any allocation.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadMessage}, args...)...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.fail("need %d bytes, have %d", n, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// bytes reads a length-prefixed byte field of at most max bytes. The
// returned slice aliases the payload (copy if retained).
func (d *decoder) bytes(max int) []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(max) {
		d.fail("byte field of %d bytes (max %d)", n, max)
		return nil
	}
	return d.take(int(n))
}

// vec reads a length-prefixed uint64 vector of at most max elements,
// checking the claimed count against the remaining bytes before
// allocating.
func (d *decoder) vec(max int) []uint64 {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(max) {
		d.fail("vector of %d elements (max %d)", n, max)
		return nil
	}
	if len(d.b)-d.off < int(n)*8 {
		d.fail("vector of %d elements needs %d bytes, have %d", n, int(n)*8, len(d.b)-d.off)
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.u64()
	}
	return v
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.b)-d.off)
	}
	return nil
}

// checkPacked validates a (count, bits, packed) triple: width in range,
// count bounded, and the packed length exactly matching.
func (d *decoder) checkPacked(count uint32, bits uint8, packed []byte) {
	if d.err != nil {
		return
	}
	if bits == 0 || bits > 64 {
		d.fail("pack width %d", bits)
		return
	}
	if count > MaxVecElems {
		d.fail("vector of %d elements (max %d)", count, MaxVecElems)
		return
	}
	if want := ff.PackedSize(int(count), uint(bits)); len(packed) != want {
		d.fail("packed field has %d bytes, want %d for %d × %d-bit elements",
			len(packed), want, count, bits)
	}
}

// --- message encode/decode ----------------------------------------------

// Encode serializes the message payload (frame with TypeSessionOpen).
func (m *SessionOpen) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *SessionOpen) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u64(m.ID)
	e.bytes([]byte(m.Scheme))
	e.u8(m.Variant)
	e.u8(m.Width)
	e.u8(m.Rounds)
	e.u16(m.T)
	e.u64(m.Nonce)
	e.vec(m.Key)
	e.bytes(m.EvalKey)
	e.bytes(m.Resume)
	e.bytes(m.CipherParams)
	return e.buf
}

// DecodeSessionOpen parses a TypeSessionOpen payload.
func DecodeSessionOpen(payload []byte) (*SessionOpen, error) {
	d := decoder{b: payload}
	m := &SessionOpen{}
	m.ID = d.u64()
	m.Scheme = string(d.bytes(MaxCipherName))
	m.Variant = d.u8()
	m.Width = d.u8()
	m.Rounds = d.u8()
	m.T = d.u16()
	m.Nonce = d.u64()
	m.Key = d.vec(MaxKeyElems)
	m.EvalKey = append([]byte(nil), d.bytes(DefaultMaxPayload)...)
	m.Resume = append([]byte(nil), d.bytes(MaxResumeToken)...)
	m.CipherParams = append([]byte(nil), d.bytes(MaxCipherParams)...)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the message payload (frame with TypeSessionAck).
func (m *SessionAck) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *SessionAck) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u64(m.ID)
	e.u32(m.Session)
	e.bytes([]byte(m.Cipher))
	e.u32(m.BlockSize)
	e.u64(m.Modulus)
	e.u8(m.Bits)
	e.u64(m.Counter)
	e.u64(m.Tail)
	e.bytes(m.Resume)
	return e.buf
}

// DecodeSessionAck parses a TypeSessionAck payload.
func DecodeSessionAck(payload []byte) (*SessionAck, error) {
	d := decoder{b: payload}
	m := &SessionAck{}
	m.ID = d.u64()
	m.Session = d.u32()
	m.Cipher = string(d.bytes(MaxCipherName))
	m.BlockSize = d.u32()
	m.Modulus = d.u64()
	m.Bits = d.u8()
	m.Counter = d.u64()
	m.Tail = d.u64()
	m.Resume = append([]byte(nil), d.bytes(MaxResumeToken)...)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the message payload (frame with TypeSessionClose).
func (m *SessionClose) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *SessionClose) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	return e.buf
}

// DecodeSessionClose parses a TypeSessionClose payload.
func DecodeSessionClose(payload []byte) (*SessionClose, error) {
	d := decoder{b: payload}
	m := &SessionClose{}
	m.Session = d.u32()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the message payload (frame with TypeEncrypt).
func (m *EncryptReq) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *EncryptReq) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Counter)
	e.u64(m.Nonce)
	e.u32(m.Count)
	e.u8(m.Bits)
	e.bytes(m.Packed)
	return e.buf
}

// DecodeEncryptReq parses a TypeEncrypt payload.
func DecodeEncryptReq(payload []byte) (*EncryptReq, error) {
	m := &EncryptReq{}
	if err := DecodeEncryptReqInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeEncryptReqInto parses a TypeEncrypt payload into m without
// allocating. m.Packed aliases payload and is only valid until the
// caller reuses the frame buffer (DESIGN.md §9).
func DecodeEncryptReqInto(m *EncryptReq, payload []byte) error {
	d := decoder{b: payload}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Counter = d.u64()
	m.Nonce = d.u64()
	m.Count = d.u32()
	m.Bits = d.u8()
	m.Packed = d.bytes(DefaultMaxPayload)
	d.checkPacked(m.Count, m.Bits, m.Packed)
	return d.finish()
}

// Encode serializes the message payload (frame with TypeKeystream).
func (m *KeystreamReq) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *KeystreamReq) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Counter)
	e.u64(m.Nonce)
	e.u64(m.First)
	e.u32(m.Count)
	return e.buf
}

// DecodeKeystreamReq parses a TypeKeystream payload.
func DecodeKeystreamReq(payload []byte) (*KeystreamReq, error) {
	m := &KeystreamReq{}
	if err := DecodeKeystreamReqInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeKeystreamReqInto parses a TypeKeystream payload into m without
// allocating.
func DecodeKeystreamReqInto(m *KeystreamReq, payload []byte) error {
	d := decoder{b: payload}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Counter = d.u64()
	m.Nonce = d.u64()
	m.First = d.u64()
	m.Count = d.u32()
	if m.Count > MaxVecElems {
		d.fail("keystream request for %d blocks (max %d)", m.Count, MaxVecElems)
	}
	return d.finish()
}

// Encode serializes the message payload (frame with TypeStream).
func (m *StreamReq) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *StreamReq) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Counter)
	e.u32(m.Count)
	e.u8(m.Bits)
	e.bytes(m.Packed)
	return e.buf
}

// DecodeStreamReq parses a TypeStream payload.
func DecodeStreamReq(payload []byte) (*StreamReq, error) {
	m := &StreamReq{}
	if err := DecodeStreamReqInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeStreamReqInto parses a TypeStream payload into m without
// allocating. m.Packed aliases payload and is only valid until the
// caller reuses the frame buffer (DESIGN.md §9).
func DecodeStreamReqInto(m *StreamReq, payload []byte) error {
	d := decoder{b: payload}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Counter = d.u64()
	m.Count = d.u32()
	m.Bits = d.u8()
	m.Packed = d.bytes(DefaultMaxPayload)
	d.checkPacked(m.Count, m.Bits, m.Packed)
	return d.finish()
}

// Encode serializes the message payload (frame with TypeData).
func (m *Data) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *Data) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Offset)
	e.u32(m.Count)
	e.u8(m.Bits)
	e.bytes(m.Packed)
	return e.buf
}

// DecodeData parses a TypeData payload.
func DecodeData(payload []byte) (*Data, error) {
	m := &Data{}
	if err := DecodeDataInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeDataInto parses a TypeData payload into m without allocating.
// m.Packed aliases payload and is only valid until the caller reuses
// the frame buffer (DESIGN.md §9).
func DecodeDataInto(m *Data, payload []byte) error {
	d := decoder{b: payload}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Offset = d.u64()
	m.Count = d.u32()
	m.Bits = d.u8()
	m.Packed = d.bytes(DefaultMaxPayload)
	d.checkPacked(m.Count, m.Bits, m.Packed)
	return d.finish()
}

// Encode serializes the message payload (frame with TypeError).
func (m *ErrorMsg) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *ErrorMsg) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u16(m.Code)
	e.u32(m.RetryAfterMillis)
	msg := m.Msg
	if len(msg) > MaxErrorMsg {
		msg = msg[:MaxErrorMsg]
	}
	e.bytes([]byte(msg))
	return e.buf
}

// DecodeErrorMsg parses a TypeError payload.
func DecodeErrorMsg(payload []byte) (*ErrorMsg, error) {
	d := decoder{b: payload}
	m := &ErrorMsg{}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Code = d.u16()
	m.RetryAfterMillis = d.u32()
	m.Msg = string(d.bytes(MaxErrorMsg))
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the message payload (frame with TypeEvalKeys).
func (m *EvalKeysChunk) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *EvalKeysChunk) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Counter)
	e.u64(m.Offset)
	e.u64(m.Total)
	e.bytes(m.Chunk)
	return e.buf
}

// DecodeEvalKeysChunk parses a TypeEvalKeys payload.
func DecodeEvalKeysChunk(payload []byte) (*EvalKeysChunk, error) {
	m := &EvalKeysChunk{}
	if err := DecodeEvalKeysChunkInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeEvalKeysChunkInto parses a TypeEvalKeys payload into m without
// allocating. m.Chunk aliases payload and is only valid until the
// caller reuses the frame buffer (DESIGN.md §9).
func DecodeEvalKeysChunkInto(m *EvalKeysChunk, payload []byte) error {
	d := decoder{b: payload}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Counter = d.u64()
	m.Offset = d.u64()
	m.Total = d.u64()
	m.Chunk = d.bytes(MaxEvalKeysChunk)
	if d.err == nil {
		switch {
		case m.Total > MaxEvalKeysTotal:
			d.fail("eval-key blob of %d bytes (max %d)", m.Total, MaxEvalKeysTotal)
		case m.Offset > m.Total:
			d.fail("chunk offset %d beyond blob size %d", m.Offset, m.Total)
		case m.Offset+uint64(len(m.Chunk)) > m.Total:
			d.fail("chunk [%d, %d) overruns blob size %d", m.Offset, m.Offset+uint64(len(m.Chunk)), m.Total)
		}
	}
	return d.finish()
}

// Encode serializes the message payload (frame with TypeEvalKeysAck).
func (m *EvalKeysAck) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *EvalKeysAck) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Received)
	e.u64(m.Total)
	var c uint8
	if m.Complete {
		c = 1
	}
	e.u8(c)
	return e.buf
}

// DecodeEvalKeysAck parses a TypeEvalKeysAck payload.
func DecodeEvalKeysAck(payload []byte) (*EvalKeysAck, error) {
	d := decoder{b: payload}
	m := &EvalKeysAck{}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Received = d.u64()
	m.Total = d.u64()
	switch d.u8() {
	case 0:
	case 1:
		m.Complete = true
	default:
		d.fail("eval-keys ack completeness flag is not boolean")
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the message payload (frame with TypeTranscipher).
func (m *TranscipherReq) Encode() []byte { return m.AppendPayload(nil) }

// AppendPayload appends the message payload to dst.
func (m *TranscipherReq) AppendPayload(dst []byte) []byte {
	e := encoder{buf: dst}
	e.u32(m.Session)
	e.u64(m.ID)
	e.u64(m.Counter)
	e.u64(m.Nonce)
	e.u64(m.First)
	e.u32(m.Count)
	e.u8(m.Bits)
	e.bytes(m.Packed)
	return e.buf
}

// DecodeTranscipherReq parses a TypeTranscipher payload.
func DecodeTranscipherReq(payload []byte) (*TranscipherReq, error) {
	m := &TranscipherReq{}
	if err := DecodeTranscipherReqInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeTranscipherReqInto parses a TypeTranscipher payload into m
// without allocating. m.Packed aliases payload and is only valid until
// the caller reuses the frame buffer (DESIGN.md §9). The block-size
// divisibility check is the server's (t is a session property); the
// codec bounds the element count.
func DecodeTranscipherReqInto(m *TranscipherReq, payload []byte) error {
	d := decoder{b: payload}
	m.Session = d.u32()
	m.ID = d.u64()
	m.Counter = d.u64()
	m.Nonce = d.u64()
	m.First = d.u64()
	m.Count = d.u32()
	m.Bits = d.u8()
	m.Packed = d.bytes(DefaultMaxPayload)
	d.checkPacked(m.Count, m.Bits, m.Packed)
	if d.err == nil && m.Count == 0 {
		d.fail("transcipher request for zero elements")
	}
	return d.finish()
}

// DecodeAny parses a payload according to its frame type, returning one
// of the typed messages above. TypeBlob payloads pass through as []byte.
// This is the single entry point the fuzzer drives.
func DecodeAny(t Type, payload []byte) (any, error) {
	switch t {
	case TypeSessionOpen:
		return DecodeSessionOpen(payload)
	case TypeSessionAck:
		return DecodeSessionAck(payload)
	case TypeSessionClose:
		return DecodeSessionClose(payload)
	case TypeEncrypt:
		return DecodeEncryptReq(payload)
	case TypeKeystream:
		return DecodeKeystreamReq(payload)
	case TypeStream:
		return DecodeStreamReq(payload)
	case TypeData:
		return DecodeData(payload)
	case TypeError:
		return DecodeErrorMsg(payload)
	case TypeBlob:
		return payload, nil
	case TypeEvalKeys:
		return DecodeEvalKeysChunk(payload)
	case TypeEvalKeysAck:
		return DecodeEvalKeysAck(payload)
	case TypeTranscipher:
		return DecodeTranscipherReq(payload)
	}
	return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
}
