package wire

import (
	"fmt"
	"testing"
)

// probeShape is one probe exchange of the networked counting scan at
// the daemons' geometry (m=64, one metric, keyed).
type probeShape struct {
	name string
	req  ProbeReq
	resp ProbeResp
}

// probeShapes returns a single-bit probe and a span over all 11 bits of
// k=16 — the widest span a one-owner ring asks for.
func probeShapes() []probeShape {
	var out []probeShape
	for _, span := range []int{1, 11} {
		s := probeShape{
			name: fmt.Sprintf("span=%d", span),
			req:  ProbeReq{Bit: 10, NumVecs: 64, Metrics: []uint64{7}, Key: 0xFEEDFACECAFEBEEF, HasKey: true},
			resp: ProbeResp{Bit: 10, NumVecs: 64},
		}
		for i := 0; i < span; i++ {
			mask := make([]byte, MaskBytes(64))
			SetVec(mask, i)
			s.resp.VecMasks = append(s.resp.VecMasks, mask)
		}
		if span > 1 {
			s.req.Through, s.req.HasThrough = uint8(10-span+1), true
			s.resp.Pred, s.resp.HasPred = 0x0123456789ABCDEF, true
		}
		out = append(out, s)
	}
	return out
}

func BenchmarkProbeReq(b *testing.B) {
	for _, s := range probeShapes() {
		enc, err := EncodeProbeReq(s.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeProbeReq(s.req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeProbeReq(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProbeResp(b *testing.B) {
	for _, s := range probeShapes() {
		enc, err := EncodeProbeResp(s.resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeProbeResp(s.resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeProbeResp(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
