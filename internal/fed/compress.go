package fed

import (
	"fmt"
	"math"
	"sort"
)

// Delta compression cuts bytes-on-wire for the weight exchange. Profiles
// quantize for real — the decoded values the server aggregates carry the
// quantization error — so the benchmark's val-loss column is honest, and
// the "topk" profile keeps per-worker error-feedback residuals so the
// sparsified tail is not lost, just deferred to a later round. All codecs
// are pure functions of their input: same delta in, same bytes and same
// decoded values out, on every run.
//
// The API is exported because the codecs are topology-agnostic: the star
// parameter server compresses uplinks with them, and the gossip overlay
// (internal/gossip) encodes its parcels through the exact same profiles,
// so a bytes-on-wire comparison between the two topologies compares
// dissemination strategies, not compression quality.

// Encoded is one compressed payload: the bytes it would occupy on the
// wire and the values the receiver decodes.
type Encoded struct {
	WireBytes int64
	Values    [][]float64
}

// Codec is one compression profile. EncodeDelta compresses an upload
// (residual is the sender's error-feedback accumulator, updated in place;
// nil disables feedback). It owns the delta it is handed: the caller
// neither reads nor writes it afterwards, so a codec may return it, or
// write into it, instead of copying it. BroadcastBytes prices the
// downlink copy of a model with n scalars, and BroadcastValue is the
// receiver-side decode of one broadcast weight. Sparsifies reports
// whether the profile defers part of the delta into the residual
// (callers allocate accumulators only for profiles that need them).
type Codec interface {
	Name() string
	EncodeDelta(delta [][]float64, residual [][]float64) Encoded
	BroadcastBytes(n int) int64
	BroadcastValue(v float64) float64
	Sparsifies() bool
}

// NewCodec resolves a profile name.
func NewCodec(profile string, topKFrac float64) (Codec, error) {
	switch profile {
	case "", "none":
		return rawCodec{}, nil
	case "fp16":
		return f16Codec{}, nil
	case "topk":
		if topKFrac == 0 {
			topKFrac = 0.1
		}
		return topKCodec{frac: topKFrac}, nil
	}
	return nil, fmt.Errorf("fed: unknown compress profile %q (have none, fp16, topk)", profile)
}

// rawCodec ships float64 both ways: 8 bytes per scalar, no loss. The
// receiver decodes exactly the delta, so it is returned as it is.
type rawCodec struct{}

func (rawCodec) Name() string { return "none" }

func (rawCodec) EncodeDelta(delta [][]float64, residual [][]float64) Encoded {
	var n int64
	for _, t := range delta {
		n += int64(len(t))
	}
	return Encoded{WireBytes: 8 * n, Values: delta}
}

func (rawCodec) BroadcastBytes(n int) int64       { return 8 * int64(n) }
func (rawCodec) BroadcastValue(v float64) float64 { return v }
func (rawCodec) Sparsifies() bool                 { return false }

// f16Codec ships the broadcast as float32 (4 bytes per scalar, ~7
// significant digits — negligible for weights) and uploads as dense
// float16 (2 bytes per scalar; deltas are small so half precision holds
// their shape).
type f16Codec struct{}

func (f16Codec) Name() string { return "fp16" }

func (f16Codec) EncodeDelta(delta [][]float64, residual [][]float64) Encoded {
	var n int64
	out := make([][]float64, len(delta))
	for i, t := range delta {
		n += int64(len(t))
		q := make([]float64, len(t))
		for j, v := range t {
			q[j] = f16Round(v)
		}
		out[i] = q
	}
	return Encoded{WireBytes: 2 * n, Values: out}
}

func (f16Codec) BroadcastBytes(n int) int64       { return 4 * int64(n) }
func (f16Codec) BroadcastValue(v float64) float64 { return float64(float32(v)) }
func (f16Codec) Sparsifies() bool                 { return false }

// topKCodec keeps only the top frac of entries per tensor by magnitude
// (ties broken by index, so selection is deterministic), shipping each
// survivor as a 4-byte index plus a float16 value; everything else stays
// on the sender as error-feedback residual and rides along with the next
// round's delta. Broadcast is float32, as in fp16.
type topKCodec struct{ frac float64 }

func (c topKCodec) Name() string { return "topk" }

func (c topKCodec) EncodeDelta(delta [][]float64, residual [][]float64) Encoded {
	// An accumulator shaped for a different model (a checkpoint hot-swap
	// mid-run can change tensor shapes under a live worker) is rejected
	// rather than indexed: its entries belong to parameters that no longer
	// exist, so feeding them back would corrupt the upload — and blindly
	// indexing them panics. The caller's residualFor resets the accumulator
	// on the same condition; this guard keeps the codec safe on its own.
	if !ShapesMatch(residual, delta) {
		residual = nil
	}
	var wire int64
	out := make([][]float64, len(delta))
	for i, t := range delta {
		vals := make([]float64, len(t))
		copy(vals, t)
		if residual != nil {
			for j := range vals {
				vals[j] += residual[i][j]
			}
		}
		k := int(math.Ceil(c.frac * float64(len(vals))))
		if k < 1 {
			k = 1
		}
		if k > len(vals) {
			k = len(vals)
		}
		idx := make([]int, len(vals))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			va, vb := math.Abs(vals[idx[a]]), math.Abs(vals[idx[b]])
			if va != vb {
				return va > vb
			}
			return idx[a] < idx[b]
		})
		q := make([]float64, len(vals))
		for _, j := range idx[:k] {
			q[j] = f16Round(vals[j])
		}
		if residual != nil {
			for j := range vals {
				residual[i][j] = vals[j] - q[j]
			}
		}
		// 4-byte index + 2-byte half per kept entry, plus an 8-byte
		// per-tensor header (tensor id + count).
		wire += int64(k)*6 + 8
		out[i] = q
	}
	return Encoded{WireBytes: wire, Values: out}
}

func (c topKCodec) BroadcastBytes(n int) int64       { return 4 * int64(n) }
func (c topKCodec) BroadcastValue(v float64) float64 { return float64(float32(v)) }
func (c topKCodec) Sparsifies() bool                 { return true }

// ShapesMatch reports whether an error-feedback accumulator has exactly
// the delta's tensor count and per-tensor lengths. A nil accumulator
// trivially mismatches (callers treat that as "no feedback").
func ShapesMatch(residual, delta [][]float64) bool {
	if residual == nil || len(residual) != len(delta) {
		return false
	}
	for i, t := range delta {
		if len(residual[i]) != len(t) {
			return false
		}
	}
	return true
}

// f16Round quantizes v through IEEE 754 binary16 (round-to-nearest-even
// via float32) and back to float64. Values beyond the half range saturate
// to ±65504 rather than overflowing to Inf, since a weight delta must
// stay finite.
func f16Round(v float64) float64 {
	h := toF16(float32(v))
	return fromF16(h)
}

// toF16 converts a float32 to binary16 bits, rounding to nearest even and
// saturating at the half-precision max.
func toF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 31:
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7bff // saturate at 65504
	case exp <= 0:
		if exp < -10 {
			return sign // underflows to zero
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(man >> shift)
		rem := man & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(man>>13)
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // carry may roll into the exponent, which is correct
			if half&0x7fff >= 0x7c00 {
				return sign | 0x7bff // rounding crossed into Inf: saturate
			}
		}
		return half
	}
}

// fromF16 expands binary16 bits to float64, exactly (float64 has spare
// precision for every half value).
func fromF16(h uint16) float64 {
	sign := 1.0
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h >> 10 & 0x1f)
	man := float64(h & 0x3ff)
	switch exp {
	case 0:
		return sign * math.Ldexp(man/1024, -14)
	case 31:
		if man != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * math.Ldexp(1+man/1024, exp-15)
	}
}
