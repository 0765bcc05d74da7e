// Package wire defines the binary message formats of the DHS protocol:
// the <metric_id, vector_id, bit, time_out> tuple of §3.2 and the
// counting probe request/reply of §4. The simulation accounts costs with
// the byte-size model of internal/core; this package pins that model to
// concrete, codec-tested encodings, so a networked deployment of the
// library has an interoperable wire format and the simulated byte counts
// provably correspond to real message sizes (wire_test asserts the
// equivalence with core's constants).
//
// Layout conventions: fixed-width big-endian integers, no framing (the
// transport is expected to provide it), version byte first.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version identifies the wire format.
const Version = 1

// Message type tags.
const (
	TagInsert     = 0x01 // store/refresh one tuple
	TagBulkInsert = 0x02 // store/refresh many tuples of one bit position
	TagProbeReq   = 0x03 // counting probe request
	TagProbeResp  = 0x04 // counting probe reply
)

var (
	// ErrShort is returned when a buffer is too small for its header or
	// declared payload.
	ErrShort = errors.New("wire: short message")
	// ErrBadMessage is returned on version/tag mismatches and on encode
	// when a field does not fit its wire width (e.g. more than 65535
	// probe metrics or vector masks). Encoding must fail loudly: a
	// silently wrapped uint16 count decodes as a different, valid-looking
	// message on the receiver.
	ErrBadMessage = errors.New("wire: malformed message")
)

// Insert is the paper's DHS tuple: which bit of which bitmap vector of
// which metric to set, and the soft-state lifetime to store it with.
//
// The paper packs it into 64 bits using deployment-specific field sizes
// (§5.1: 8-bit metric, 16-bit vector, 8-bit bit, 32-bit timeout). This
// codec spends a 2-byte header (version + tag) plus a trimmed tuple so
// the total stays within the 8-byte budget the cost model charges for
// the tuple itself, plus core.MsgHeaderBytes of envelope.
type Insert struct {
	Metric uint64 // full 64-bit metric identifiers are hashed down below
	Vector uint16
	Bit    uint8
	// TTL is the soft-state lifetime in coarse ticks. The wire width is
	// 16 bits while core.Config.TTL is an int64 tick count; producers
	// MUST narrow through ClampTTL, whose semantics are saturating: a
	// configured lifetime beyond 65535 ticks travels as 65535 (the
	// receiver keeps the tuple as long as the field can express), never
	// as a silently wrapped — i.e. much shorter — lifetime. 0 still
	// means "no expiry", and ClampTTL never turns a finite lifetime
	// into 0.
	TTL uint16
}

// ClampTTL narrows a configured tick lifetime (core.Config.TTL, int64)
// to the 16-bit wire field with saturating semantics: values above
// math.MaxUint16 clamp to math.MaxUint16, and non-positive values map
// to 0 ("no expiry" — core validates TTL ≥ 0, so negatives only arise
// from untrusted input). The plain conversion uint16(ttl) this replaces
// silently truncated lifetimes > 65535 ticks, wrapping a long-lived
// tuple into an arbitrarily short one.
func ClampTTL(ttl int64) uint16 {
	if ttl <= 0 {
		return 0
	}
	if ttl > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(ttl)
}

// insertSize = version(1) + tag(1) + metric(2, folded) + vector(2) +
// bit(1) + ttl(2) = 9 bytes... the codec folds the metric to 16 bits on
// the wire because the receiving node resolves collisions against its
// local tuple keys; see FoldMetric.
const insertSize = 9

// FoldMetric compresses a 64-bit metric identifier to the 16-bit wire
// form the paper's evaluation uses (§5.1 allots 8 bits; 16 here gives a
// 2^16 metric namespace per deployment). Receivers must treat it as a
// namespace-local identifier.
func FoldMetric(metric uint64) uint16 {
	return uint16(metric ^ metric>>16 ^ metric>>32 ^ metric>>48)
}

// EncodeInsert serializes an Insert message.
func EncodeInsert(m Insert) []byte {
	buf := make([]byte, insertSize)
	buf[0] = Version
	buf[1] = TagInsert
	binary.BigEndian.PutUint16(buf[2:], FoldMetric(m.Metric))
	binary.BigEndian.PutUint16(buf[4:], m.Vector)
	buf[6] = m.Bit
	binary.BigEndian.PutUint16(buf[7:], m.TTL)
	return buf
}

// DecodeInsert parses an Insert message. The Metric field of the result
// holds the folded 16-bit identifier.
func DecodeInsert(buf []byte) (Insert, error) {
	if len(buf) < insertSize {
		return Insert{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagInsert {
		return Insert{}, ErrBadMessage
	}
	return Insert{
		Metric: uint64(binary.BigEndian.Uint16(buf[2:])),
		Vector: binary.BigEndian.Uint16(buf[4:]),
		Bit:    buf[6],
		TTL:    binary.BigEndian.Uint16(buf[7:]),
	}, nil
}

// BulkInsert carries every vector that sets one bit position of one
// metric — the §3.2 bulk optimization groups per-bit.
type BulkInsert struct {
	Metric  uint64
	Bit     uint8
	TTL     uint16
	Vectors []uint16
}

// EncodeBulkInsert serializes a BulkInsert message: an 8-byte header
// followed by 2 bytes per vector.
func EncodeBulkInsert(m BulkInsert) []byte {
	buf := make([]byte, 8+2*len(m.Vectors))
	buf[0] = Version
	buf[1] = TagBulkInsert
	binary.BigEndian.PutUint16(buf[2:], FoldMetric(m.Metric))
	buf[4] = m.Bit
	binary.BigEndian.PutUint16(buf[5:], m.TTL)
	// buf[7] reserved; the vector count is implicit in the length.
	for i, v := range m.Vectors {
		binary.BigEndian.PutUint16(buf[8+2*i:], v)
	}
	return buf
}

// DecodeBulkInsert parses a BulkInsert message.
func DecodeBulkInsert(buf []byte) (BulkInsert, error) {
	if len(buf) < 8 {
		return BulkInsert{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagBulkInsert {
		return BulkInsert{}, ErrBadMessage
	}
	if (len(buf)-8)%2 != 0 {
		return BulkInsert{}, ErrBadMessage
	}
	m := BulkInsert{
		Metric: uint64(binary.BigEndian.Uint16(buf[2:])),
		Bit:    buf[4],
		TTL:    binary.BigEndian.Uint16(buf[5:]),
	}
	for i := 8; i < len(buf); i += 2 {
		m.Vectors = append(m.Vectors, binary.BigEndian.Uint16(buf[i:]))
	}
	return m, nil
}

// ProbeReq asks a node which bitmap vectors have the given bit set, for
// each of the listed metrics (multi-dimensional counting sends several).
// NumVecs carries the querier's vector count m so a networked responder
// knows the mask width to answer with; the in-process data plane derives
// it from shared configuration and may leave it 0.
type ProbeReq struct {
	Bit     uint8
	NumVecs uint16
	Metrics []uint64
	// Key, when HasKey is set, is the ring key the querier believes the
	// responder owns: a client that probes a cached owner directly, with
	// no lookup, sends it so the responder can refuse a key outside its
	// arc instead of answering for a range it no longer holds. It travels
	// as an optional 8-byte suffix; requests without it are answered
	// unconditionally, as before the field existed.
	Key    uint64
	HasKey bool
	// Through, when HasThrough is set, widens the probe to a span of
	// bits: the responder answers Bit's masks first, then those of each
	// bit stepping from Bit toward Through, inclusive, and reports its
	// arc in the reply (ProbeResp.Pred). It travels as an optional 1-byte
	// suffix after the key; a responder that predates it answers Bit
	// alone.
	Through    uint8
	HasThrough bool
}

// Span returns the number of bits the request asks for: 1 plus the
// distance from Bit to Through, or 1 without a Through.
func (m ProbeReq) Span() int {
	if !m.HasThrough {
		return 1
	}
	if m.Through >= m.Bit {
		return 1 + int(m.Through-m.Bit)
	}
	return 1 + int(m.Bit-m.Through)
}

// SpanBit returns the i-th bit of the request's span, stepping from Bit
// toward Through; i must be below Span().
func (m ProbeReq) SpanBit(i int) uint8 {
	if m.HasThrough && m.Through < m.Bit {
		return m.Bit - uint8(i)
	}
	return m.Bit + uint8(i)
}

// EncodeProbeReq serializes a probe request: version, tag, bit, vector
// count, metric count, then 2 bytes per folded metric, then the 8-byte
// key when HasKey is set, then the 1-byte through bit when HasThrough
// is set. A keyless single-bit single-metric request is 9 bytes —
// within the core.ProbeReqBytes=16 budget of the cost model. More than
// 65535 metrics do not fit the count field and return ErrBadMessage:
// the pre-check replaces a silent uint16 wrap that would encode 65536
// metrics as a valid-looking zero-metric request.
func EncodeProbeReq(m ProbeReq) ([]byte, error) {
	if len(m.Metrics) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d probe metrics exceed the uint16 count field", ErrBadMessage, len(m.Metrics))
	}
	n := 7 + 2*len(m.Metrics)
	size := n
	if m.HasKey {
		size += 8
	}
	if m.HasThrough {
		size++
	}
	buf := make([]byte, size)
	buf[0] = Version
	buf[1] = TagProbeReq
	buf[2] = m.Bit
	binary.BigEndian.PutUint16(buf[3:], m.NumVecs)
	binary.BigEndian.PutUint16(buf[5:], uint16(len(m.Metrics)))
	for i, metric := range m.Metrics {
		binary.BigEndian.PutUint16(buf[7+2*i:], FoldMetric(metric))
	}
	if m.HasKey {
		binary.BigEndian.PutUint64(buf[n:], m.Key)
	}
	if m.HasThrough {
		buf[size-1] = m.Through
	}
	return buf, nil
}

// DecodeProbeReq parses a probe request; Metrics holds folded IDs. The
// bytes after the metric list select the optional suffixes by their
// count: 1 is a through bit, 8 a key, 9 or more a key then a through
// bit. Other trailing bytes are ignored, as they always were.
func DecodeProbeReq(buf []byte) (ProbeReq, error) {
	if len(buf) < 7 {
		return ProbeReq{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagProbeReq {
		return ProbeReq{}, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(buf[5:]))
	if len(buf) < 7+2*n {
		return ProbeReq{}, ErrShort
	}
	m := ProbeReq{Bit: buf[2], NumVecs: binary.BigEndian.Uint16(buf[3:])}
	for i := 0; i < n; i++ {
		m.Metrics = append(m.Metrics, uint64(binary.BigEndian.Uint16(buf[7+2*i:])))
	}
	switch rest := buf[7+2*n:]; {
	case len(rest) == 1:
		m.Through, m.HasThrough = rest[0], true
	case len(rest) >= 9:
		m.Through, m.HasThrough = rest[8], true
		fallthrough
	case len(rest) == 8:
		m.Key, m.HasKey = binary.BigEndian.Uint64(rest), true
	}
	return m, nil
}

// ProbeResp answers a probe: per requested bit and metric, a bitmask
// over the m bitmap vectors marking which have the bit set at this
// node. A span reply lists the span's bits in request order, each with
// one mask per metric, and carries the responder's arc lower end.
type ProbeResp struct {
	Bit      uint8
	NumVecs  uint16   // m, fixing the per-metric mask width
	VecMasks [][]byte // one ⌈m/8⌉-byte mask per requested (bit, metric)
	// Pred, when HasPred is set, is the lower end of the ring arc
	// (Pred, responder] the responder held when it answered. It travels
	// as an optional 8-byte suffix after the masks; a reply without it
	// decodes as before the field existed.
	Pred    uint64
	HasPred bool
}

// MaskBytes returns the size of one vector mask: ⌈m/8⌉.
func MaskBytes(numVecs int) int { return (numVecs + 7) / 8 }

// EncodeProbeResp serializes a probe reply: an 8-byte header plus one
// mask per metric — exactly the core cost model's
// MsgHeaderBytes + metrics×⌈m/8⌉ accounting — then the 8-byte pred when
// HasPred is set. More than 65535 masks do not fit the count field and
// return ErrBadMessage (a silent wrap would decode as a reply for a
// different number of metrics).
func EncodeProbeResp(m ProbeResp) ([]byte, error) {
	if len(m.VecMasks) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d vector masks exceed the uint16 count field", ErrBadMessage, len(m.VecMasks))
	}
	mask := MaskBytes(int(m.NumVecs))
	size := 8 + len(m.VecMasks)*mask
	if m.HasPred {
		size += 8
	}
	buf := make([]byte, 8, size)
	buf[0] = Version
	buf[1] = TagProbeResp
	buf[2] = m.Bit
	binary.BigEndian.PutUint16(buf[3:], m.NumVecs)
	binary.BigEndian.PutUint16(buf[5:], uint16(len(m.VecMasks)))
	// buf[7] reserved
	for i, vm := range m.VecMasks {
		if len(vm) != mask {
			return nil, fmt.Errorf("wire: mask %d is %d bytes, want %d", i, len(vm), mask)
		}
		buf = append(buf, vm...)
	}
	if m.HasPred {
		buf = binary.BigEndian.AppendUint64(buf, m.Pred)
	}
	return buf, nil
}

// DecodeProbeResp parses a probe reply. The pred suffix is read when at
// least 8 bytes follow the masks; shorter trailing bytes are ignored.
func DecodeProbeResp(buf []byte) (ProbeResp, error) {
	if len(buf) < 8 {
		return ProbeResp{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagProbeResp {
		return ProbeResp{}, ErrBadMessage
	}
	m := ProbeResp{
		Bit:     buf[2],
		NumVecs: binary.BigEndian.Uint16(buf[3:]),
	}
	count := int(binary.BigEndian.Uint16(buf[5:]))
	mask := MaskBytes(int(m.NumVecs))
	if len(buf) < 8+count*mask {
		return ProbeResp{}, ErrShort
	}
	// One copy of every mask, sliced per mask with its capacity capped,
	// so the reply does not alias buf and no mask can grow into the next.
	masks := append([]byte(nil), buf[8:8+count*mask]...)
	if count > 0 {
		m.VecMasks = make([][]byte, count)
	}
	for i := range m.VecMasks {
		m.VecMasks[i] = masks[i*mask : (i+1)*mask : (i+1)*mask]
	}
	if rest := buf[8+count*mask:]; len(rest) >= 8 {
		m.Pred, m.HasPred = binary.BigEndian.Uint64(rest), true
	}
	return m, nil
}

// SetVec marks vector v in a mask.
func SetVec(mask []byte, v int) { mask[v/8] |= 1 << (v % 8) }

// HasVec reports whether vector v is marked in a mask.
func HasVec(mask []byte, v int) bool { return mask[v/8]&(1<<(v%8)) != 0 }
