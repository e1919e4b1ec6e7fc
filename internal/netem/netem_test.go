package netem

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLinkValidate(t *testing.T) {
	good := CampusWAN
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]Link{
		"neg latency":  {Latency: -1, Bandwidth: 1},
		"no bandwidth": {Bandwidth: 0},
		"loss 1":       {Bandwidth: 1, LossRate: 1},
		"neg jitter":   {Bandwidth: 1, Jitter: -1},
		"neg mtu":      {Bandwidth: 1, MTU: -5},
	} {
		if err := l.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStockProfilesValid(t *testing.T) {
	for _, l := range []Link{CampusWAN, HomeBroadband, WiFiLocal, FabricManaged, Loopback} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestTransferScalesWithSize(t *testing.T) {
	n := NewNet(1)
	small, err := n.Transfer(CampusWAN, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	big, err := n.Transfer(CampusWAN, 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	if big.Duration <= small.Duration {
		t.Errorf("100MB (%v) not slower than 1MB (%v)", big.Duration, small.Duration)
	}
	// 100 MB over 100 Mbit/s should take roughly 8s (allow wide margin for
	// loss/jitter modeling).
	if big.Duration < 6*time.Second || big.Duration > 14*time.Second {
		t.Errorf("100MB over 100Mbit took %v, want ~8s", big.Duration)
	}
}

func TestTransferFasterOnFasterLink(t *testing.T) {
	n := NewNet(2)
	slow, err := n.Transfer(HomeBroadband, 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := n.Transfer(FabricManaged, 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration >= slow.Duration {
		t.Errorf("fabric (%v) not faster than broadband (%v)", fast.Duration, slow.Duration)
	}
}

func TestTransferRejectsNegative(t *testing.T) {
	n := NewNet(3)
	if _, err := n.Transfer(CampusWAN, -1); err == nil {
		t.Error("negative size accepted")
	}
}

// A size whose modelled time overflows time.Duration is an error, not a
// wrapped duration: one transfer of math.MaxInt64 bytes, or a probe whose
// four 1e17-byte transfers each fit but whose sum does not.
func TestTransferRejectsOverflow(t *testing.T) {
	n := NewNet(3)
	if r, err := n.Transfer(CampusWAN, math.MaxInt64); err == nil {
		t.Errorf("MaxInt64 bytes accepted: %v, %d retransmits", r.Duration, r.Retransmits)
	}
	if r, err := n.Probe(CampusWAN, ProbeConfig{Bytes: 1e17}); err == nil {
		t.Errorf("1e17-byte probe accepted: %v, %.0f B/s", r.Elapsed, r.MeasuredBandwidth)
	}
}

func TestTransferZeroBytesStillHasLatency(t *testing.T) {
	n := NewNet(4)
	r, err := n.Transfer(Loopback, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Duration <= 0 {
		t.Error("zero-byte transfer took no time")
	}
}

func TestRTTDominatedByLatency(t *testing.T) {
	n := NewNet(5)
	d, err := n.RTT(CampusWAN.WithLatency(100*time.Millisecond), 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d < 180*time.Millisecond {
		t.Errorf("RTT %v, want >= ~2x latency", d)
	}
}

func TestRTTRejectsNegativeSizes(t *testing.T) {
	n := NewNet(6)
	if _, err := n.RTT(CampusWAN, -1, 0); err == nil {
		t.Error("negative request accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() time.Duration {
		n := NewNet(42)
		var total time.Duration
		for i := 0; i < 50; i++ {
			r, err := n.Transfer(HomeBroadband, 1<<18)
			if err != nil {
				t.Fatal(err)
			}
			total += r.Duration
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Errorf("not deterministic: %v vs %v", a, b)
	}
}

// Property: transfer duration is monotone in size for a loss-free link.
func TestTransferMonotoneProperty(t *testing.T) {
	n := NewNet(8)
	f := func(a, b uint32) bool {
		sa, sb := int64(a%(1<<24)), int64(b%(1<<24))
		if sa > sb {
			sa, sb = sb, sa
		}
		ra, err := n.Transfer(FabricManaged, sa)
		if err != nil {
			return false
		}
		rb, err := n.Transfer(FabricManaged, sb)
		if err != nil {
			return false
		}
		// FabricManaged has no loss and tiny jitter; allow jitter slack.
		return rb.Duration >= ra.Duration-2*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: higher latency never speeds up an RPC on a deterministic link.
func TestRTTLatencyMonotoneProperty(t *testing.T) {
	base := Link{Name: "det", Bandwidth: 1e9}
	n := NewNet(9)
	f := func(ms uint16) bool {
		l1 := base.WithLatency(time.Duration(ms) * time.Millisecond)
		l2 := base.WithLatency(time.Duration(ms)*time.Millisecond + time.Millisecond)
		d1, err := n.RTT(l1, 100, 100)
		if err != nil {
			return false
		}
		d2, err := n.RTT(l2, 100, 100)
		if err != nil {
			return false
		}
		return d2 >= d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
