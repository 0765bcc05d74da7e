// Native Go fuzz targets for the control-plane decoders: a decoder must
// never panic or over-read on arbitrary input, and anything it accepts
// must re-encode to bytes that decode and re-encode to themselves (the
// fixpoint a forwarding node relies on when it relays a reply it just
// parsed). The first re-encoding may differ from the input — trailing
// bytes are dropped, a nonzero flag byte becomes 1 — so the property
// is checked from there. Seeds include every message in both the
// suffix-less layout and, for the find-successor reply, the layout with
// the owner's predecessor. Run open-ended with e.g.
//
//	go test -fuzz=FuzzDecodeFindSuccResp -fuzztime=30s ./internal/netdht
package netdht

import (
	"bytes"
	"testing"

	"dhsketch/internal/wire"
)

// seedFrames adds each encoding plus truncations and a flipped third
// byte — the inputs most likely to sit on a declared-length edge.
func seedFrames(f *testing.F, encs ...[]byte) {
	for _, enc := range encs {
		f.Add(enc)
		for _, cut := range []int{1, 2, len(enc) / 2} {
			if cut < len(enc) {
				f.Add(enc[:len(enc)-cut])
			}
		}
		if len(enc) > 2 {
			flip := append([]byte(nil), enc...)
			flip[2] ^= 0xFF
			f.Add(flip)
		}
	}
	f.Add([]byte{})
}

// fuzzFixpoint decodes buf and, when accepted, checks that encoding is
// a fixpoint from the first re-encoding on.
func fuzzFixpoint[M any](f *testing.F, decode func([]byte) (M, error), encode func(M) []byte) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := decode(buf)
		if err != nil {
			return
		}
		enc := encode(m)
		m2, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoded message %x rejected: %v", enc, err)
		}
		if re := encode(m2); !bytes.Equal(re, enc) {
			t.Fatalf("encoding not a fixpoint: %x != %x", re, enc)
		}
	})
}

var fuzzRefs = []nodeRef{{id: 0xDEADBEEFCAFE, addr: "127.0.0.1:4000"}, {id: 1, addr: "b:2"}}

func FuzzDecodeRef(f *testing.F) {
	seedFrames(f, appendRef(nil, fuzzRefs[0]), appendRef(nil, nodeRef{id: 9}))
	fuzzFixpoint(f, func(b []byte) (nodeRef, error) {
		r, _, err := decodeRef(b)
		return r, err
	}, func(r nodeRef) []byte { return appendRef(nil, r) })
}

func FuzzDecodeFindSucc(f *testing.F) {
	seedFrames(f,
		encodeFindSucc(findSuccMsg{key: 0xFEEDFACE}),
		encodeFindSucc(findSuccMsg{flags: flagForwarded | flagDeliver, key: 1 << 63, hops: 7, stale: 2}))
	fuzzFixpoint(f, decodeFindSucc, encodeFindSucc)
}

func FuzzDecodeFindSuccResp(f *testing.F) {
	seedFrames(f,
		encodeFindSuccResp(findSuccRespMsg{hops: 3, stale: 1, owner: fuzzRefs[0]}),
		encodeFindSuccResp(findSuccRespMsg{hops: 3, stale: 1, owner: fuzzRefs[0], pred: 0xABCDEF, hasPred: true}))
	fuzzFixpoint(f, decodeFindSuccResp, encodeFindSuccResp)
}

func FuzzDecodeNeighborsResp(f *testing.F) {
	seedFrames(f,
		encodeNeighborsResp(neighborsRespMsg{self: fuzzRefs[0], pred: fuzzRefs[1], succ: fuzzRefs}),
		encodeNeighborsResp(neighborsRespMsg{self: fuzzRefs[1]}))
	// A successor count far beyond the buffer.
	f.Add([]byte{wire.Version, tagNeighborsResp, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xFF})
	fuzzFixpoint(f, decodeNeighborsResp, encodeNeighborsResp)
}

func FuzzDecodeNotify(f *testing.F) {
	seedFrames(f, encodeNotify(fuzzRefs[0]))
	fuzzFixpoint(f, decodeNotify, encodeNotify)
}

func FuzzDecodeAck(f *testing.F) {
	seedFrames(f, encodeAck(true), encodeAck(false))
	fuzzFixpoint(f, decodeAck, encodeAck)
}

func FuzzDecodeErr(f *testing.F) {
	seedFrames(f, encodeErr(errnoNoRoute, 9, 4), encodeErr(errnoNotOwner, 0, 0))
	type errMsg struct {
		code        byte
		hops, stale uint16
	}
	fuzzFixpoint(f, func(b []byte) (errMsg, error) {
		code, hops, stale, err := decodeErr(b)
		return errMsg{code, hops, stale}, err
	}, func(m errMsg) []byte { return encodeErr(m.code, m.hops, m.stale) })
}
