package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dhsketch/internal/core"
)

func TestInsertRoundTrip(t *testing.T) {
	f := func(metric uint64, vector uint16, bit uint8, ttl uint16) bool {
		enc := EncodeInsert(Insert{Metric: metric, Vector: vector, Bit: bit, TTL: ttl})
		dec, err := DecodeInsert(enc)
		if err != nil {
			return false
		}
		return dec.Metric == uint64(FoldMetric(metric)) &&
			dec.Vector == vector && dec.Bit == bit && dec.TTL == ttl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertSizeMatchesCostModel(t *testing.T) {
	// The cost model charges TupleBytes + MsgHeaderBytes per insertion
	// message; the concrete encoding must fit in that budget.
	enc := EncodeInsert(Insert{Metric: 1, Vector: 2, Bit: 3, TTL: 4})
	if len(enc) > core.TupleBytes+core.MsgHeaderBytes {
		t.Errorf("insert message is %d bytes, model budget %d", len(enc), core.TupleBytes+core.MsgHeaderBytes)
	}
}

func TestBulkInsertRoundTrip(t *testing.T) {
	m := BulkInsert{Metric: 0xDEADBEEF12345678, Bit: 17, TTL: 600, Vectors: []uint16{0, 5, 511, 1023}}
	enc := EncodeBulkInsert(m)
	dec, err := DecodeBulkInsert(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 17 || dec.TTL != 600 || len(dec.Vectors) != 4 {
		t.Errorf("decoded %+v", dec)
	}
	for i, v := range m.Vectors {
		if dec.Vectors[i] != v {
			t.Errorf("vector %d: %d != %d", i, dec.Vectors[i], v)
		}
	}
	// Per-vector wire cost must not exceed the model's TupleBytes.
	perVector := float64(len(enc)-8) / float64(len(m.Vectors))
	if perVector > core.TupleBytes {
		t.Errorf("bulk spends %.1f bytes/vector, model charges %d", perVector, core.TupleBytes)
	}
}

func TestBulkInsertEmpty(t *testing.T) {
	enc := EncodeBulkInsert(BulkInsert{Metric: 9, Bit: 1, TTL: 2})
	dec, err := DecodeBulkInsert(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Vectors) != 0 {
		t.Errorf("decoded %d vectors from empty bulk", len(dec.Vectors))
	}
}

func TestProbeReqRoundTrip(t *testing.T) {
	m := ProbeReq{Bit: 9, NumVecs: 512, Metrics: []uint64{1, 0xABCDEF, 1 << 60}}
	enc, err := EncodeProbeReq(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeProbeReq(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 9 || dec.NumVecs != 512 || len(dec.Metrics) != 3 || dec.HasKey {
		t.Errorf("decoded %+v", dec)
	}
	for i, metric := range m.Metrics {
		if dec.Metrics[i] != uint64(FoldMetric(metric)) {
			t.Errorf("metric %d not folded consistently", i)
		}
	}

	// The optional key suffix, with a key of 0 to show presence is not
	// inferred from the value.
	for _, key := range []uint64{0, 0xFEEDFACECAFEBEEF} {
		m.Key, m.HasKey = key, true
		enc, err := EncodeProbeReq(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != 7+2*len(m.Metrics)+8 {
			t.Errorf("keyed request is %d bytes", len(enc))
		}
		dec, err := DecodeProbeReq(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.HasKey || dec.Key != key || dec.Bit != 9 || len(dec.Metrics) != 3 {
			t.Errorf("keyed round trip: decoded %+v", dec)
		}
	}
}

// TestProbeReqSpanRoundTrip: the through suffix round-trips with and
// without the key, its presence is not inferred from its value, and
// the span steps from Bit toward Through in either direction.
func TestProbeReqSpanRoundTrip(t *testing.T) {
	for _, hasKey := range []bool{false, true} {
		for _, c := range []struct {
			bit, through uint8
			hasThrough   bool
			span         int
			bits         []uint8
		}{
			{bit: 9, span: 1, bits: []uint8{9}},
			{bit: 9, through: 0, hasThrough: true, span: 10, bits: []uint8{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
			{bit: 3, through: 6, hasThrough: true, span: 4, bits: []uint8{3, 4, 5, 6}},
			{bit: 5, through: 5, hasThrough: true, span: 1, bits: []uint8{5}},
		} {
			m := ProbeReq{Bit: c.bit, NumVecs: 64, Metrics: []uint64{1, 2},
				Key: 0xFEEDFACECAFEBEEF, HasKey: hasKey, Through: c.through, HasThrough: c.hasThrough}
			enc, err := EncodeProbeReq(m)
			if err != nil {
				t.Fatal(err)
			}
			want := 7 + 2*len(m.Metrics)
			if hasKey {
				want += 8
			}
			if c.hasThrough {
				want++
			}
			if len(enc) != want {
				t.Errorf("%+v: encoded %d bytes, want %d", m, len(enc), want)
			}
			dec, err := DecodeProbeReq(enc)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Bit != c.bit || dec.HasKey != hasKey || hasKey && dec.Key != m.Key ||
				dec.HasThrough != c.hasThrough || dec.Through != c.through || len(dec.Metrics) != 2 {
				t.Errorf("round trip of %+v decoded %+v", m, dec)
			}
			if dec.Span() != c.span {
				t.Errorf("%+v: span %d, want %d", dec, dec.Span(), c.span)
			}
			for i, b := range c.bits {
				if got := dec.SpanBit(i); got != b {
					t.Errorf("%+v: span bit %d is %d, want %d", dec, i, got, b)
				}
			}
		}
	}
}

// TestProbeReqOldLayouts: requests written before the optional suffixes
// existed — the keyless form and the keyed form — decode to the same
// fields, with no span.
func TestProbeReqOldLayouts(t *testing.T) {
	keyless := []byte{Version, TagProbeReq, 4, 0, 64, 0, 1, 0, 7}
	dec, err := DecodeProbeReq(keyless)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 4 || dec.NumVecs != 64 || len(dec.Metrics) != 1 || dec.Metrics[0] != 7 ||
		dec.HasKey || dec.HasThrough || dec.Span() != 1 {
		t.Errorf("keyless layout decoded %+v", dec)
	}
	keyed := append(append([]byte(nil), keyless...), 1, 2, 3, 4, 5, 6, 7, 8)
	dec, err = DecodeProbeReq(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasKey || dec.Key != 0x0102030405060708 || dec.HasThrough || dec.Span() != 1 {
		t.Errorf("keyed layout decoded %+v", dec)
	}
}

func TestProbeReqSizeMatchesCostModel(t *testing.T) {
	// A single-metric probe request must fit the model's ProbeReqBytes.
	// The model prices the keyless form: the simulated scan always
	// routes before it probes.
	enc, err := EncodeProbeReq(ProbeReq{Bit: 1, Metrics: []uint64{42}})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > core.ProbeReqBytes {
		t.Errorf("probe request is %d bytes, model budget %d", len(enc), core.ProbeReqBytes)
	}
}

// TestProbeReqCountBounds pins the overflow fix: exactly 65535 metrics
// is the largest encodable request, and one more must fail with
// ErrBadMessage instead of wrapping the uint16 count to 0 — the pre-fix
// behavior, under which the 65536-metric request decoded as a valid
// zero-metric one.
func TestProbeReqCountBounds(t *testing.T) {
	at := make([]uint64, 65535)
	enc, err := EncodeProbeReq(ProbeReq{Bit: 3, Metrics: at})
	if err != nil {
		t.Fatalf("65535 metrics rejected: %v", err)
	}
	dec, err := DecodeProbeReq(enc)
	if err != nil || len(dec.Metrics) != 65535 {
		t.Fatalf("65535-metric round trip: %d metrics, %v", len(dec.Metrics), err)
	}

	over := make([]uint64, 65536)
	if _, err := EncodeProbeReq(ProbeReq{Bit: 3, Metrics: over}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("65536 metrics: err = %v, want ErrBadMessage", err)
	}
}

// TestProbeRespCountBounds is the reply-side twin: 65535 masks round-
// trip, 65536 must not silently wrap to a zero-mask reply.
func TestProbeRespCountBounds(t *testing.T) {
	const m = 8 // 1-byte masks keep the boundary case small
	masks := make([][]byte, 65535)
	for i := range masks {
		masks[i] = make([]byte, MaskBytes(m))
	}
	enc, err := EncodeProbeResp(ProbeResp{NumVecs: m, VecMasks: masks})
	if err != nil {
		t.Fatalf("65535 masks rejected: %v", err)
	}
	dec, err := DecodeProbeResp(enc)
	if err != nil || len(dec.VecMasks) != 65535 {
		t.Fatalf("65535-mask round trip: %d masks, %v", len(dec.VecMasks), err)
	}

	masks = append(masks, make([]byte, MaskBytes(m)))
	if _, err := EncodeProbeResp(ProbeResp{NumVecs: m, VecMasks: masks}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("65536 masks: err = %v, want ErrBadMessage", err)
	}
}

// TestClampTTL pins the saturating narrowing semantics documented on
// wire.Insert.TTL and core.Config.TTL: lifetimes beyond the 16-bit wire
// range clamp to MaxUint16 — the pre-fix uint16(ttl) conversion wrapped
// them to arbitrary shorter lifetimes (65536 → 0, i.e. "no expiry";
// 100000 → 34464 ticks).
func TestClampTTL(t *testing.T) {
	cases := []struct {
		ttl  int64 // a core.Config.TTL value
		want uint16
	}{
		{0, 0}, // 0 stays "no expiry"
		{1, 1},
		{65535, 65535},
		{65536, 65535},  // one past the wire range: saturate, not wrap to 0
		{100000, 65535}, // pre-fix uint16() gave 34464
		{math.MaxInt64, 65535},
		{-7, 0}, // untrusted input; core validates TTL ≥ 0
	}
	for _, c := range cases {
		if got := ClampTTL(c.ttl); got != c.want {
			t.Errorf("ClampTTL(%d) = %d, want %d", c.ttl, got, c.want)
		}
		// Core-equivalence: the clamped value survives the Insert codec
		// unchanged, so the receiver sees exactly the saturated lifetime.
		enc := EncodeInsert(Insert{Metric: 1, Vector: 2, Bit: 3, TTL: ClampTTL(c.ttl)})
		dec, err := DecodeInsert(enc)
		if err != nil || dec.TTL != c.want {
			t.Errorf("TTL %d: round-tripped as %d (%v), want %d", c.ttl, dec.TTL, err, c.want)
		}
		// A finite configured lifetime must never clamp into the "no
		// expiry" sentinel.
		if c.ttl > 0 && ClampTTL(c.ttl) == 0 {
			t.Errorf("ClampTTL(%d) collapsed a finite lifetime to the no-expiry sentinel", c.ttl)
		}
	}
}

func TestProbeRespRoundTrip(t *testing.T) {
	const m = 512
	mask1 := make([]byte, MaskBytes(m))
	mask2 := make([]byte, MaskBytes(m))
	SetVec(mask1, 0)
	SetVec(mask1, 511)
	SetVec(mask2, 100)
	resp := ProbeResp{Bit: 7, NumVecs: m, VecMasks: [][]byte{mask1, mask2}}
	enc, err := EncodeProbeResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeProbeResp(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 7 || dec.NumVecs != m || len(dec.VecMasks) != 2 {
		t.Fatalf("decoded %+v", dec)
	}
	if !HasVec(dec.VecMasks[0], 0) || !HasVec(dec.VecMasks[0], 511) || HasVec(dec.VecMasks[0], 100) {
		t.Error("mask 0 bits wrong")
	}
	if !HasVec(dec.VecMasks[1], 100) || HasVec(dec.VecMasks[1], 0) {
		t.Error("mask 1 bits wrong")
	}
	if !bytes.Equal(dec.VecMasks[0], mask1) {
		t.Error("mask bytes not preserved")
	}
}

// TestProbeRespPredRoundTrip: the pred suffix round-trips, its
// presence is not inferred from its value, and a reply without it — the
// layout before the field existed — decodes with HasPred unset, as does
// one with fewer than 8 trailing bytes.
func TestProbeRespPredRoundTrip(t *testing.T) {
	mask := make([]byte, MaskBytes(64))
	SetVec(mask, 5)
	for _, pred := range []uint64{0, 0xFEEDFACECAFEBEEF} {
		resp := ProbeResp{Bit: 3, NumVecs: 64, VecMasks: [][]byte{mask, mask, mask}, Pred: pred, HasPred: true}
		enc, err := EncodeProbeResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != 8+3*MaskBytes(64)+8 {
			t.Errorf("reply with pred is %d bytes", len(enc))
		}
		dec, err := DecodeProbeResp(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.HasPred || dec.Pred != pred || len(dec.VecMasks) != 3 || !HasVec(dec.VecMasks[2], 5) {
			t.Errorf("round trip of pred %x decoded %+v", pred, dec)
		}
	}
	enc, err := EncodeProbeResp(ProbeResp{Bit: 3, NumVecs: 64, VecMasks: [][]byte{mask}})
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range [][]byte{enc, append(enc, 1, 2, 3, 4, 5, 6, 7)} {
		dec, err := DecodeProbeResp(buf)
		if err != nil {
			t.Fatal(err)
		}
		if dec.HasPred || len(dec.VecMasks) != 1 {
			t.Errorf("%d-byte reply without pred decoded %+v", len(buf), dec)
		}
	}
}

func TestProbeRespSizeMatchesCostModel(t *testing.T) {
	// The cost model charges MsgHeaderBytes + metrics×⌈m/8⌉ per reply;
	// the encoding must match exactly.
	const m, metrics = 512, 100
	masks := make([][]byte, metrics)
	for i := range masks {
		masks[i] = make([]byte, MaskBytes(m))
	}
	enc, err := EncodeProbeResp(ProbeResp{NumVecs: m, VecMasks: masks})
	if err != nil {
		t.Fatal(err)
	}
	want := core.MsgHeaderBytes + metrics*MaskBytes(m)
	if len(enc) != want {
		t.Errorf("probe reply is %d bytes, model says %d", len(enc), want)
	}
}

func TestProbeRespMaskSizeValidation(t *testing.T) {
	_, err := EncodeProbeResp(ProbeResp{NumVecs: 64, VecMasks: [][]byte{make([]byte, 3)}})
	if err == nil {
		t.Error("wrong mask size accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func([]byte) error
	}{
		{"insert", func(b []byte) error { _, err := DecodeInsert(b); return err }},
		{"bulk", func(b []byte) error { _, err := DecodeBulkInsert(b); return err }},
		{"probeReq", func(b []byte) error { _, err := DecodeProbeReq(b); return err }},
		{"probeResp", func(b []byte) error { _, err := DecodeProbeResp(b); return err }},
	}
	for _, c := range cases {
		if c.f(nil) == nil {
			t.Errorf("%s: nil accepted", c.name)
		}
		if c.f([]byte{Version}) == nil {
			t.Errorf("%s: 1-byte accepted", c.name)
		}
		// Wrong version.
		bad := make([]byte, 32)
		bad[0] = 99
		if c.f(bad) == nil {
			t.Errorf("%s: bad version accepted", c.name)
		}
		// Wrong tag (valid version, zero tag).
		bad[0] = Version
		if c.f(bad) == nil {
			t.Errorf("%s: bad tag accepted", c.name)
		}
	}
	// Truncated declared payloads.
	req, err := EncodeProbeReq(ProbeReq{Bit: 1, Metrics: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProbeReq(req[:len(req)-2]); err == nil {
		t.Error("truncated probe request accepted")
	}
	bulk := EncodeBulkInsert(BulkInsert{Metric: 1, Vectors: []uint16{1, 2}})
	if _, err := DecodeBulkInsert(bulk[:len(bulk)-1]); err == nil {
		t.Error("odd-length bulk accepted")
	}
}

func TestCrossTagRejected(t *testing.T) {
	ins := EncodeInsert(Insert{Metric: 1})
	if _, err := DecodeBulkInsert(ins); err == nil {
		t.Error("insert decoded as bulk")
	}
	req, err := EncodeProbeReq(ProbeReq{Metrics: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProbeResp(req); err == nil {
		t.Error("request decoded as response")
	}
}

func TestSetHasVecProperty(t *testing.T) {
	f := func(raw uint16) bool {
		v := int(raw % 512)
		mask := make([]byte, MaskBytes(512))
		SetVec(mask, v)
		if !HasVec(mask, v) {
			return false
		}
		// No other bit may be set.
		count := 0
		for i := 0; i < 512; i++ {
			if HasVec(mask, i) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
