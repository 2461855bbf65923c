// Package wire is the versioned framing and message codec of the HHE
// edge protocol (Fig. 1 of the paper, served by internal/server): a
// client registers a session — symmetric key material plus the opaque
// FHE blob (public/eval keys and the homomorphically encrypted PASTA
// key) destined for the compute tier — and then streams encrypt and
// keystream requests as cheap symmetric-ciphertext frames.
//
// Every frame is self-delimiting and versioned:
//
//	magic   uint32  little-endian, "HHEP"
//	version uint8   protocol version (Version)
//	type    uint8   frame type (Type*)
//	length  uint32  payload bytes that follow
//
// The decoder enforces the magic, the version, a known type, and a
// payload bound before touching the payload, and reads the payload in
// bounded chunks so a hostile length field can never force a large
// allocation for data that does not arrive. Message payload decoding is
// strict: every field bounds-checked before allocation, trailing bytes
// rejected. FuzzWireDecode pins the "never panic, never over-allocate"
// contract.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic is the little-endian frame magic, the bytes "HHEP" on the wire.
const Magic uint32 = 0x50454848

// Version is the protocol version this package speaks. A peer that sees
// a different version must fail the connection rather than guess.
// Version 2 added per-session request counters (replay protection),
// session-resumption tokens, and the resume/replay error codes.
// Version 3 added per-tenant cipher negotiation: SessionOpen.Scheme
// names any registered cipher family, SessionOpen gained the opaque
// CipherParams extension blob, SessionAck echoes the negotiated cipher
// name, and the unknown-cipher error code was assigned.
// Version 4 added the transciphering tier: chunked, resumable EvalKeys
// uploads (TypeEvalKeys/TypeEvalKeysAck), Transcipher requests
// (TypeTranscipher) answered by Data frames carrying opaque BFV
// ciphertext bytes, and the no-eval-keys / transcipher-budget error
// codes.
const Version uint8 = 4

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 10

// Type identifies a frame's payload encoding.
type Type uint8

const (
	// TypeSessionOpen registers a session: cipher shape, key material,
	// stream nonce, and the opaque FHE registration blob.
	TypeSessionOpen Type = 1
	// TypeSessionAck acknowledges a SessionOpen with the session id and
	// the negotiated block geometry.
	TypeSessionAck Type = 2
	// TypeSessionClose retires a session (client → server, no reply).
	TypeSessionClose Type = 3
	// TypeEncrypt is a one-shot encryption request (counters from 0).
	TypeEncrypt Type = 4
	// TypeKeystream requests raw keystream blocks [First, First+Count).
	TypeKeystream Type = 5
	// TypeStream appends elements to the session's encryption stream;
	// the server batches partial blocks across stream requests.
	TypeStream Type = 6
	// TypeData carries a vector result (ciphertext or keystream).
	TypeData Type = 7
	// TypeError reports a request or protocol failure.
	TypeError Type = 8
	// TypeBlob is an opaque application payload. No message is defined
	// for it; the codec frames and decodes it as raw bytes.
	TypeBlob Type = 9
	// TypeEvalKeys carries one chunk of a session's packed-evaluation
	// key upload (relin key, Galois keys, encrypted symmetric key) —
	// tens of MB in production, so the upload is chunked and resumable.
	TypeEvalKeys Type = 10
	// TypeEvalKeysAck acknowledges an EvalKeys chunk with the upload
	// high-water mark; Complete is set once the transcipher engine for
	// the session is built and ready.
	TypeEvalKeysAck Type = 11
	// TypeTranscipher asks the server to homomorphically decrypt a range
	// of symmetric-cipher blocks into BFV ciphertexts (Fig. 1's
	// server-side HHE decryption). The reply is a Data frame whose
	// Packed field holds the concatenated serialized BFV ciphertexts.
	TypeTranscipher Type = 12

	maxType = TypeTranscipher
)

// String names the frame type for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeSessionOpen:
		return "session-open"
	case TypeSessionAck:
		return "session-ack"
	case TypeSessionClose:
		return "session-close"
	case TypeEncrypt:
		return "encrypt"
	case TypeKeystream:
		return "keystream"
	case TypeStream:
		return "stream"
	case TypeData:
		return "data"
	case TypeError:
		return "error"
	case TypeBlob:
		return "blob"
	case TypeEvalKeys:
		return "eval-keys"
	case TypeEvalKeysAck:
		return "eval-keys-ack"
	case TypeTranscipher:
		return "transcipher"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// DefaultMaxPayload bounds a frame payload unless the codec overrides it.
const DefaultMaxPayload = 16 << 20

// Framing errors, wrapped with frame context; match with errors.Is.
var (
	// ErrBadMagic reports a frame that does not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion reports a version this package does not speak.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrBadType reports an unknown frame type.
	ErrBadType = errors.New("wire: unknown frame type")
	// ErrTooLarge reports a payload length above the codec's bound.
	ErrTooLarge = errors.New("wire: frame too large")
	// ErrBadMessage reports a payload that does not decode as its type.
	ErrBadMessage = errors.New("wire: malformed message")
)

// Codec frames payloads over a reliable byte stream. Reads and writes
// are independently safe to interleave (a connection typically has one
// reader and mutex-serialized writers, which the caller provides).
type Codec struct {
	r io.Reader
	w io.Writer

	// hdr is the header scratch of the (single) reader; a local array
	// would escape through the io.Reader interface call and cost one
	// allocation per frame.
	hdr [HeaderSize]byte

	// MaxPayload bounds accepted and emitted payloads; 0 means
	// DefaultMaxPayload.
	MaxPayload uint32
}

// NewCodec wraps a bidirectional stream (e.g. a net.Conn).
func NewCodec(rw io.ReadWriter) *Codec { return &Codec{r: rw, w: rw} }

func (c *Codec) limit() uint32 {
	if c.MaxPayload == 0 {
		return DefaultMaxPayload
	}
	return c.MaxPayload
}

// WriteFrame emits one frame. The header and payload go out in a single
// Write so a deadline cannot split a frame between syscalls.
func (c *Codec) WriteFrame(t Type, payload []byte) error {
	if t == 0 || t > maxType {
		return fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
	if uint64(len(payload)) > uint64(c.limit()) {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(payload), c.limit())
	}
	buf := make([]byte, HeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	buf[4] = Version
	buf[5] = uint8(t)
	binary.LittleEndian.PutUint32(buf[6:], uint32(len(payload)))
	copy(buf[HeaderSize:], payload)
	_, err := c.w.Write(buf)
	return err
}

// appendHeader appends a frame header with a zero length field; patchLen
// fills the length once the payload has been appended in place.
func appendHeader(dst []byte, t Type) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	return append(dst, Version, uint8(t), 0, 0, 0, 0)
}

// patchLen back-fills the payload length of the frame starting at off.
func patchLen(dst []byte, off int) ([]byte, error) {
	n := len(dst) - off - HeaderSize
	if uint64(n) > uint64(DefaultMaxPayload) {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, n, DefaultMaxPayload)
	}
	binary.LittleEndian.PutUint32(dst[off+6:], uint32(n))
	return dst, nil
}

// readChunk caps the per-step allocation while reading a payload, so a
// forged length never allocates more than the bytes actually received
// (rounded up to one chunk).
const readChunk = 64 << 10

// ReadFrame reads and validates one frame. io.EOF is returned unwrapped
// when the stream ends cleanly between frames.
func (c *Codec) ReadFrame() (Type, []byte, error) {
	return c.ReadFrameInto(nil)
}

// ReadFrameInto is ReadFrame reusing scratch's capacity for the payload.
// The returned payload slice is the (possibly regrown) scratch buffer —
// callers keep it for the next read, so a steady-state connection
// allocates nothing per frame. The chunked-growth bound of ReadFrame
// holds: a forged length field never allocates beyond the bytes actually
// delivered, rounded up to one chunk.
func (c *Codec) ReadFrameInto(scratch []byte) (Type, []byte, error) {
	hdr := &c.hdr
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("wire: truncated header: %w", err)
		}
		return 0, nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return 0, nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, m)
	}
	if v := hdr[4]; v != Version {
		return 0, nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version)
	}
	t := Type(hdr[5])
	if t == 0 || t > maxType {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadType, hdr[5])
	}
	n := binary.LittleEndian.Uint32(hdr[6:])
	if n > c.limit() {
		return 0, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, n, c.limit())
	}
	payload := scratch[:0]
	for len(payload) < int(n) {
		step := min(int(n)-len(payload), readChunk)
		off := len(payload)
		if cap(payload) >= off+step {
			payload = payload[:off+step]
		} else {
			payload = append(payload, make([]byte, step)...)
		}
		if _, err := io.ReadFull(c.r, payload[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("wire: truncated payload: %w", err)
		}
	}
	return t, payload, nil
}
