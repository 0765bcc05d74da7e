package netdht

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dhsketch/internal/dht"
	"dhsketch/internal/wire"
)

// Control-plane message tags. The data plane reuses wire.TagInsert /
// TagBulkInsert / TagProbeReq / TagProbeResp (0x01–0x04) verbatim;
// control tags start at 0x10 so the two namespaces can never collide,
// and every control message keeps wire's layout conventions: version
// byte first, tag second, fixed-width big-endian integers.
const (
	tagFindSucc      = 0x10 // route a key toward its owner
	tagFindSuccResp  = 0x11 // terminal reply: the owner plus route cost
	tagNeighbors     = 0x12 // ask a node for its predecessor + successor list
	tagNeighborsResp = 0x13
	tagNotify        = 0x14 // propose the sender as the receiver's predecessor
	tagAck           = 0x15 // generic success reply (carries one flag byte)
	tagPing          = 0x16 // liveness check
	tagPong          = 0x17
	tagErr           = 0x1F // typed failure reply
)

// findSucc routing flags.
const (
	// flagForwarded marks a request that reached the receiver via a
	// routing hop: the receiver meters one Routed increment, preserving
	// the contract-suite invariant that a lookup's hop count equals the
	// total Routed increments it caused. Absent on the origin's first
	// contact (a client or joiner using the receiver as its entry point,
	// which the simulated rings model as the unmetered origin).
	flagForwarded = 1 << 0
	// flagDeliver marks the receiver as the sender's believed owner of
	// the key: it answers with itself instead of routing further — the
	// networked form of the simulated router returning its successor
	// without another forwarding decision.
	flagDeliver = 1 << 1
)

// Typed error codes carried by tagErr, mapping the dht error taxonomy
// across the wire so a remote failure surfaces as the same sentinel a
// simulated one would.
const (
	errnoNoRoute  = 1
	errnoNodeDown = 2
	errnoTimeout  = 3
	errnoLost     = 4
	errnoBad      = 5
	// errnoNotOwner refuses a keyed probe whose key lies outside the
	// responder's arc: the querier's cached owner is stale.
	errnoNotOwner = 6
)

func errnoOf(err error) byte {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, dht.ErrNoRoute):
		return errnoNoRoute
	case errors.Is(err, dht.ErrNodeDown):
		return errnoNodeDown
	case errors.Is(err, dht.ErrTimeout):
		return errnoTimeout
	case errors.Is(err, dht.ErrLost):
		return errnoLost
	default:
		return errnoBad
	}
}

func errnoErr(code byte) error {
	switch code {
	case errnoNoRoute:
		return dht.ErrNoRoute
	case errnoNodeDown:
		return dht.ErrNodeDown
	case errnoTimeout:
		return dht.ErrTimeout
	case errnoLost:
		return dht.ErrLost
	default:
		return fmt.Errorf("netdht: remote error code %d", code)
	}
}

// appendRef serializes a nodeRef: id(8) + addr length(2) + addr bytes.
func appendRef(buf []byte, r nodeRef) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.id)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.addr)))
	return append(buf, r.addr...)
}

// decodeRef parses one nodeRef and returns the remaining buffer.
func decodeRef(buf []byte) (nodeRef, []byte, error) {
	if len(buf) < 10 {
		return nodeRef{}, nil, wire.ErrShort
	}
	id := binary.BigEndian.Uint64(buf)
	n := int(binary.BigEndian.Uint16(buf[8:]))
	if len(buf) < 10+n {
		return nodeRef{}, nil, wire.ErrShort
	}
	return nodeRef{id: id, addr: string(buf[10 : 10+n])}, buf[10+n:], nil
}

// findSuccMsg is one routing step in flight: the key, the flags above,
// and the route cost accumulated so far (hops and stale hops), which
// the eventual owner echoes back in its reply.
type findSuccMsg struct {
	flags byte
	key   uint64
	hops  uint16
	stale uint16
}

func encodeFindSucc(m findSuccMsg) []byte {
	buf := make([]byte, 15)
	buf[0] = wire.Version
	buf[1] = tagFindSucc
	buf[2] = m.flags
	binary.BigEndian.PutUint64(buf[3:], m.key)
	binary.BigEndian.PutUint16(buf[11:], m.hops)
	binary.BigEndian.PutUint16(buf[13:], m.stale)
	return buf
}

func decodeFindSucc(buf []byte) (findSuccMsg, error) {
	if len(buf) < 15 {
		return findSuccMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagFindSucc {
		return findSuccMsg{}, wire.ErrBadMessage
	}
	return findSuccMsg{
		flags: buf[2],
		key:   binary.BigEndian.Uint64(buf[3:]),
		hops:  binary.BigEndian.Uint16(buf[11:]),
		stale: binary.BigEndian.Uint16(buf[13:]),
	}, nil
}

// findSuccRespMsg is the terminal routing reply, relayed verbatim back
// along the forwarding chain: the believed owner and the total cost.
// When hasPred is set, pred is the owner's predecessor id, so the owner
// answers for the arc (pred, owner.id]; pred == owner.id means it
// answers for the whole ring (a ring of one). It travels as an optional
// 8-byte suffix, absent when the owner does not know its predecessor
// and in replies from nodes that predate the field.
type findSuccRespMsg struct {
	hops    uint16
	stale   uint16
	owner   nodeRef
	pred    uint64
	hasPred bool
}

func encodeFindSuccResp(m findSuccRespMsg) []byte {
	buf := make([]byte, 6, 24+len(m.owner.addr))
	buf[0] = wire.Version
	buf[1] = tagFindSuccResp
	binary.BigEndian.PutUint16(buf[2:], m.hops)
	binary.BigEndian.PutUint16(buf[4:], m.stale)
	buf = appendRef(buf, m.owner)
	if m.hasPred {
		buf = binary.BigEndian.AppendUint64(buf, m.pred)
	}
	return buf
}

func decodeFindSuccResp(buf []byte) (findSuccRespMsg, error) {
	if len(buf) < 6 {
		return findSuccRespMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagFindSuccResp {
		return findSuccRespMsg{}, wire.ErrBadMessage
	}
	m := findSuccRespMsg{
		hops:  binary.BigEndian.Uint16(buf[2:]),
		stale: binary.BigEndian.Uint16(buf[4:]),
	}
	owner, rest, err := decodeRef(buf[6:])
	if err != nil {
		return m, err
	}
	m.owner = owner
	if len(rest) >= 8 {
		m.pred, m.hasPred = binary.BigEndian.Uint64(rest), true
	}
	return m, nil
}

// neighborsRespMsg is a node's protocol-state answer: who it believes
// precedes it and its successor list in ring order — the payload one
// stabilize exchange fetches.
type neighborsRespMsg struct {
	self nodeRef
	pred nodeRef // zero when unknown
	succ []nodeRef
}

func encodeNeighborsReq() []byte { return []byte{wire.Version, tagNeighbors} }

func encodeNeighborsResp(m neighborsRespMsg) []byte {
	buf := make([]byte, 2, 64)
	buf[0] = wire.Version
	buf[1] = tagNeighborsResp
	buf = appendRef(buf, m.self)
	if m.pred.valid() {
		buf = append(buf, 1)
		buf = appendRef(buf, m.pred)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(len(m.succ)))
	for _, s := range m.succ {
		buf = appendRef(buf, s)
	}
	return buf
}

func decodeNeighborsResp(buf []byte) (neighborsRespMsg, error) {
	if len(buf) < 2 {
		return neighborsRespMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagNeighborsResp {
		return neighborsRespMsg{}, wire.ErrBadMessage
	}
	var m neighborsRespMsg
	var err error
	rest := buf[2:]
	if m.self, rest, err = decodeRef(rest); err != nil {
		return m, err
	}
	if len(rest) < 1 {
		return m, wire.ErrShort
	}
	hasPred := rest[0] != 0
	rest = rest[1:]
	if hasPred {
		if m.pred, rest, err = decodeRef(rest); err != nil {
			return m, err
		}
	}
	if len(rest) < 1 {
		return m, wire.ErrShort
	}
	count := int(rest[0])
	rest = rest[1:]
	for i := 0; i < count; i++ {
		var s nodeRef
		if s, rest, err = decodeRef(rest); err != nil {
			return m, err
		}
		m.succ = append(m.succ, s)
	}
	return m, nil
}

func encodeNotify(self nodeRef) []byte {
	buf := make([]byte, 2, 16+len(self.addr))
	buf[0] = wire.Version
	buf[1] = tagNotify
	return appendRef(buf, self)
}

func decodeNotify(buf []byte) (nodeRef, error) {
	if len(buf) < 2 {
		return nodeRef{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagNotify {
		return nodeRef{}, wire.ErrBadMessage
	}
	r, _, err := decodeRef(buf[2:])
	return r, err
}

// encodeAck's changed flag reports whether the request mutated the
// receiver's protocol state — the stabilizing caller folds it into its
// own change accounting, which drives convergence detection.
func encodeAck(changed bool) []byte {
	b := byte(0)
	if changed {
		b = 1
	}
	return []byte{wire.Version, tagAck, b}
}

func decodeAck(buf []byte) (changed bool, err error) {
	if len(buf) < 3 {
		return false, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagAck {
		return false, wire.ErrBadMessage
	}
	return buf[2] != 0, nil
}

func encodePing() []byte { return []byte{wire.Version, tagPing} }
func encodePong() []byte { return []byte{wire.Version, tagPong} }

// encodeErr carries a typed failure back to the requester, with the
// partial route cost so the caller can meter dropped traffic exactly
// like the simulated rings do.
func encodeErr(code byte, hops, stale uint16) []byte {
	buf := make([]byte, 7)
	buf[0] = wire.Version
	buf[1] = tagErr
	buf[2] = code
	binary.BigEndian.PutUint16(buf[3:], hops)
	binary.BigEndian.PutUint16(buf[5:], stale)
	return buf
}

func decodeErr(buf []byte) (code byte, hops, stale uint16, err error) {
	if len(buf) < 7 {
		return 0, 0, 0, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagErr {
		return 0, 0, 0, wire.ErrBadMessage
	}
	return buf[2], binary.BigEndian.Uint16(buf[3:]), binary.BigEndian.Uint16(buf[5:]), nil
}
