// Package wire is the typed binary codec of the payloads that live replicas
// exchange over runtime.TCPTransport: a registry from one-byte tags to
// payload types, the helpers their bodies are appended with, and one bounded
// Reader that decodes them.
//
// Each payload type implements Message next to its definition and registers
// itself from its package's init. A tagged payload is its tag byte, then its
// body. Bodies are built from unsigned varints, zigzag varints, strings (an
// unsigned varint length, then the bytes) and nested tagged payloads.
// Encoding is stateless: a body depends only on the value, so the same value
// always encodes to the same bytes, and no frame depends on another.
//
// Decoding trusts nothing. Every count is checked against the bytes left
// before anything is allocated for it, a payload may carry at most one
// further payload inside it (a retransmission envelope around a protocol
// message), and the first error stops every later read. Nothing decoded
// aliases the input, so a caller may reuse its buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// Tag identifies a payload type on the wire. Tags are fixed constants, never
// assigned in registration order, so that separately built binaries agree.
type Tag byte

// The registered payload types. A new wire type takes an unused number.
const (
	TagHeartbeat Tag = 1  // runtime.Heartbeat
	TagData      Tag = 2  // retransmit.Data
	TagAck       Tag = 3  // retransmit.Ack
	TagUpdate    Tag = 4  // etob.UpdateMsg
	TagPromote   Tag = 5  // etob.PromoteMsg
	TagSubmit    Tag = 6  // consensus.SubmitMsg
	TagPrepare   Tag = 7  // consensus.PrepareMsg
	TagPromise   Tag = 8  // consensus.PromiseMsg
	TagAccept    Tag = 9  // consensus.AcceptMsg
	TagAccepted  Tag = 10 // consensus.AcceptedMsg

	// TagTest and the tags above it are left to types defined in tests.
	TagTest Tag = 200
)

// Message is a payload type with a wire form.
type Message interface {
	// WireTag returns the type's tag.
	WireTag() Tag
	// AppendWire appends the value's body to b.
	AppendWire(b []byte) ([]byte, error)
	// ReadWire decodes one body from r into a new value of the receiver's
	// type. On malformed input it records the error in r (see Reader.Fail)
	// and may return a partial value, which the caller discards.
	ReadWire(r *Reader) any
}

type entry struct {
	proto Message
	typ   reflect.Type
}

// registry is written only by Register, from package init functions, before
// any frame is encoded or decoded.
var registry [256]entry

// Register makes m's type encodable and decodable under m.WireTag().
// Registering the same type again does nothing; a tag that another type
// already holds panics. Call it from an init function.
func Register(m Message) {
	tag, typ := m.WireTag(), reflect.TypeOf(m)
	switch e := registry[tag]; {
	case e.proto == nil:
		registry[tag] = entry{proto: m, typ: typ}
	case e.typ != typ:
		panic(fmt.Sprintf("wire: tag %d registered for both %v and %v", tag, e.typ, typ))
	}
}

// AppendPayload appends v's tag and body to b. A value whose type does not
// implement Message, or whose tag is not registered to its type, is an
// error naming the type, and b comes back as it was.
func AppendPayload(b []byte, v any) ([]byte, error) {
	m, ok := v.(Message)
	if !ok || registry[m.WireTag()].typ != reflect.TypeOf(v) {
		return b, fmt.Errorf("wire: payload type %T is not registered", v)
	}
	out, err := m.AppendWire(append(b, byte(m.WireTag())))
	if err != nil {
		return b, err
	}
	return out, nil
}

// AppendString appends s as an unsigned varint length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendUint appends v as an unsigned varint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// errTruncated reports a byte, count, length or varint that the bytes left
// cannot hold.
var errTruncated = errors.New("wire: truncated or oversized field")

var errTooDeep = errors.New("wire: payload nested inside a nested payload")

// maxDepth is how deep payloads may nest: a frame's payload, and one payload
// inside it.
const maxDepth = 2

// Reader decodes bodies from a byte slice. After its first error every read
// returns a zero value, so a decoder's loops end without allocating, and
// the caller checks Err once at the end. The zero Reader reads nothing;
// Reset points it at input.
type Reader struct {
	b     []byte
	err   error
	depth int
}

// Reset starts reading b, clearing any earlier error.
func (r *Reader) Reset(b []byte) { *r = Reader{b: b} }

// Err returns the first error the reads met, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless it already has one.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done returns the reader's error, or an error if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.Fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.Fail(errTruncated)
		return 0
	}
	r.b = r.b[k:]
	return v
}

// Int reads a zigzag varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.Fail(errTruncated)
		return 0
	}
	r.b = r.b[k:]
	return v
}

// Count reads the number of items that follow, each taking at least min
// bytes (min ≥ 1), and rejects a count the bytes left cannot hold. Callers
// allocate for a count only after this check.
func (r *Reader) Count(min int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.b)/min) {
		r.Fail(errTruncated)
		return 0
	}
	return int(v)
}

// Str reads a string into storage of its own.
func (r *Reader) Str() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Payload reads one tagged payload. An unknown tag, or a payload nested
// inside a nested payload, is an error.
func (r *Reader) Payload() any {
	tag := Tag(r.Byte())
	if r.err != nil {
		return nil
	}
	m := registry[tag].proto
	switch {
	case m == nil:
		r.Fail(fmt.Errorf("wire: unknown payload tag %d", tag))
		return nil
	case r.depth == maxDepth:
		r.Fail(errTooDeep)
		return nil
	}
	r.depth++
	v := m.ReadWire(r)
	r.depth--
	return v
}
