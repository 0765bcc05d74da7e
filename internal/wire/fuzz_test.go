// Native Go fuzz targets auditing every Decode* function for
// declared-length vs. actual-buffer mismatches: a decoder must never
// panic or over-read on arbitrary input, and anything it accepts must
// survive a decode → re-encode → decode round trip unchanged (the
// fixpoint property a networked peer relies on when it relays a
// message it just parsed). Seed corpora live under testdata/fuzz; run
// the targets open-ended with e.g.
//
//	go test -fuzz=FuzzDecodeProbeResp -fuzztime=30s ./internal/wire
package wire

import (
	"bytes"
	"testing"
)

// seedBuf adds the canonical encodings plus truncations and bit flips
// of them — the inputs most likely to sit on a declared-length edge.
func seedBuf(f *testing.F, enc []byte) {
	f.Add(enc)
	for _, cut := range []int{1, 2, len(enc) / 2} {
		if cut < len(enc) {
			f.Add(enc[:len(enc)-cut])
		}
	}
	flip := append([]byte(nil), enc...)
	if len(flip) > 2 {
		flip[2] ^= 0xFF
		f.Add(flip)
	}
}

func FuzzDecodeInsert(f *testing.F) {
	seedBuf(f, EncodeInsert(Insert{Metric: 0xDEADBEEF, Vector: 511, Bit: 23, TTL: 600}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeInsert(buf)
		if err != nil {
			return
		}
		re := EncodeInsert(m)
		m2, err := DecodeInsert(re)
		if err != nil {
			t.Fatalf("re-encoded insert rejected: %v", err)
		}
		// Metric is already folded after the first decode, and folding a
		// 16-bit value is the identity, so the fixpoint is exact.
		if m2 != m {
			t.Fatalf("insert not a fixpoint: %+v != %+v", m2, m)
		}
	})
}

func FuzzDecodeBulkInsert(f *testing.F) {
	seedBuf(f, EncodeBulkInsert(BulkInsert{Metric: 7, Bit: 3, TTL: 12, Vectors: []uint16{0, 1, 1023}}))
	f.Add([]byte{Version, TagBulkInsert})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeBulkInsert(buf)
		if err != nil {
			return
		}
		re := EncodeBulkInsert(m)
		m2, err := DecodeBulkInsert(re)
		if err != nil {
			t.Fatalf("re-encoded bulk insert rejected: %v", err)
		}
		if m2.Metric != m.Metric || m2.Bit != m.Bit || m2.TTL != m.TTL || len(m2.Vectors) != len(m.Vectors) {
			t.Fatalf("bulk insert not a fixpoint: %+v != %+v", m2, m)
		}
		for i := range m.Vectors {
			if m2.Vectors[i] != m.Vectors[i] {
				t.Fatalf("vector %d changed across round trip", i)
			}
		}
	})
}

func FuzzDecodeProbeReq(f *testing.F) {
	enc, err := EncodeProbeReq(ProbeReq{Bit: 9, NumVecs: 512, Metrics: []uint64{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, enc)
	keyed, err := EncodeProbeReq(ProbeReq{Bit: 9, NumVecs: 512, Metrics: []uint64{1}, Key: 0xFEEDFACECAFEBEEF, HasKey: true})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, keyed)
	for _, span := range []ProbeReq{
		{Bit: 10, NumVecs: 64, Metrics: []uint64{1}, Through: 0, HasThrough: true},
		{Bit: 2, NumVecs: 64, Metrics: []uint64{1, 2}, Key: 0xFEEDFACECAFEBEEF, HasKey: true, Through: 7, HasThrough: true},
	} {
		enc, err := EncodeProbeReq(span)
		if err != nil {
			f.Fatal(err)
		}
		seedBuf(f, enc)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeProbeReq(buf)
		if err != nil {
			return
		}
		re, err := EncodeProbeReq(m)
		if err != nil {
			t.Fatalf("decoded probe request not re-encodable: %v", err)
		}
		m2, err := DecodeProbeReq(re)
		if err != nil {
			t.Fatalf("re-encoded probe request rejected: %v", err)
		}
		if m2.Bit != m.Bit || m2.NumVecs != m.NumVecs || len(m2.Metrics) != len(m.Metrics) ||
			m2.HasKey != m.HasKey || m2.Key != m.Key || m2.HasThrough != m.HasThrough || m2.Through != m.Through {
			t.Fatalf("probe request not a fixpoint: %+v != %+v", m2, m)
		}
		for i := range m.Metrics {
			if m2.Metrics[i] != m.Metrics[i] {
				t.Fatalf("metric %d changed across round trip", i)
			}
		}
	})
}

func FuzzDecodeProbeResp(f *testing.F) {
	mask := make([]byte, MaskBytes(512))
	SetVec(mask, 0)
	SetVec(mask, 511)
	enc, err := EncodeProbeResp(ProbeResp{Bit: 7, NumVecs: 512, VecMasks: [][]byte{mask, make([]byte, MaskBytes(512))}})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, enc)
	span, err := EncodeProbeResp(ProbeResp{Bit: 10, NumVecs: 64, VecMasks: [][]byte{make([]byte, 8), make([]byte, 8)},
		Pred: 0xFEEDFACECAFEBEEF, HasPred: true})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, span)
	// A declared mask count far beyond the actual buffer.
	f.Add([]byte{Version, TagProbeResp, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeProbeResp(buf)
		if err != nil {
			return
		}
		for _, vm := range m.VecMasks {
			if len(vm) != MaskBytes(int(m.NumVecs)) {
				t.Fatalf("accepted mask of %d bytes for m=%d", len(vm), m.NumVecs)
			}
		}
		re, err := EncodeProbeResp(m)
		if err != nil {
			t.Fatalf("decoded probe reply not re-encodable: %v", err)
		}
		m2, err := DecodeProbeResp(re)
		if err != nil {
			t.Fatalf("re-encoded probe reply rejected: %v", err)
		}
		if m2.Bit != m.Bit || m2.NumVecs != m.NumVecs || len(m2.VecMasks) != len(m.VecMasks) ||
			m2.HasPred != m.HasPred || m2.Pred != m.Pred {
			t.Fatalf("probe reply not a fixpoint: %+v != %+v", m2, m)
		}
		for i := range m.VecMasks {
			if !bytes.Equal(m2.VecMasks[i], m.VecMasks[i]) {
				t.Fatalf("mask %d changed across round trip", i)
			}
		}
	})
}
