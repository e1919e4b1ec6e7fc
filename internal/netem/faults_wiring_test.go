package netem

import (
	"testing"
	"time"
)

// Regression: Transfer used to bill the last partial packet as a full
// MTU, so a 1-byte transfer serialized as slowly as a 1500-byte one. On a
// deterministic link (no jitter, no loss) the duration must be exactly
// latency + bytes/bandwidth for both a sub-MTU and a full-MTU payload.
func TestTransferBillsActualBytesNotMTU(t *testing.T) {
	// 1500 B/s makes serialization dominate: pre-fix, 1 byte billed as a
	// whole 1500-byte packet came out ~1s instead of ~0.7ms.
	lab := Link{Name: "lab", Latency: 10 * time.Millisecond, Bandwidth: 1500, MTU: 1500}
	n := NewNet(7)
	for _, tc := range []struct {
		name  string
		bytes int64
	}{
		{"one byte", 1},
		{"full packet", 1500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := n.Transfer(lab, tc.bytes)
			if err != nil {
				t.Fatal(err)
			}
			want := lab.Latency + time.Duration(float64(tc.bytes)/lab.Bandwidth*float64(time.Second))
			if diff := (r.Duration - want).Abs(); diff > time.Millisecond {
				t.Errorf("%d bytes took %v, want %v (last partial packet must not be billed as a full MTU)",
					tc.bytes, r.Duration, want)
			}
		})
	}
}
