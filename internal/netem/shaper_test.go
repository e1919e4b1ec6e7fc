package netem

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// stepShaper is a hand-built shape timeline for tests: epochs sorted by
// time, each shape holding until the next.
type stepShaper struct {
	epochs []struct {
		at time.Time
		sh LinkShape
	}
}

func (s *stepShaper) add(at time.Time, sh LinkShape) {
	s.epochs = append(s.epochs, struct {
		at time.Time
		sh LinkShape
	}{at, sh})
}

func (s *stepShaper) ShapeAt(link string, at time.Time) (LinkShape, time.Time) {
	var cur LinkShape
	var next time.Time
	for _, e := range s.epochs {
		if !e.at.After(at) {
			cur = e.sh
		} else {
			next = e.at
			break
		}
	}
	return cur, next
}

func bwp(v float64) *float64 { return &v }

// TestShapedTransferBillsPiecewise is the mid-run mutation regression: a
// transfer in flight when its link profile degrades must bill the bytes
// moved before the change at the old bandwidth and the bytes after it at
// the new one. A netem that snapshots the profile at transfer start
// bills the whole payload at the old rate and fails this test.
func TestShapedTransferBillsPiecewise(t *testing.T) {
	t0 := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	link := Link{Name: "lab", Latency: 10 * time.Millisecond, Bandwidth: 1e6}

	sh := &stepShaper{}
	sh.add(t0.Add(time.Second), LinkShape{Patch: &LinkPatch{Bandwidth: bwp(0.5e6)}})

	n := NewNet(1)
	n.SetShaper(sh, func() time.Time { return t0 })

	// 1.5 MB: the first second moves 1 MB at the old 1 MB/s, the
	// remaining 0.5 MB crawls at the degraded 0.5 MB/s for another
	// second.
	res, err := n.Transfer(link, 1_500_000)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	want := 10*time.Millisecond + 2*time.Second
	if res.Duration != want {
		t.Fatalf("piecewise duration = %v, want %v", res.Duration, want)
	}
	snapshot := 10*time.Millisecond + 1500*time.Millisecond // whole payload at the old rate
	if res.Duration == snapshot {
		t.Fatalf("transfer billed at the start-time snapshot (%v); mutation never reached in-flight bytes", snapshot)
	}
}

// A transfer that spans a partition window stalls through it and resumes
// on the other side instead of losing the bytes already moved.
func TestShapedTransferStallsThroughPartition(t *testing.T) {
	t0 := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	link := Link{Name: "lab", Latency: 10 * time.Millisecond, Bandwidth: 1e6}

	sh := &stepShaper{}
	sh.add(t0.Add(time.Second), LinkShape{Down: true})
	sh.add(t0.Add(2*time.Second), LinkShape{})

	n := NewNet(1)
	n.SetShaper(sh, func() time.Time { return t0 })

	res, err := n.Transfer(link, 2_000_000)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	want := 10*time.Millisecond + 3*time.Second // 1s moving, 1s stalled, 1s moving
	if res.Duration != want {
		t.Fatalf("stall duration = %v, want %v", res.Duration, want)
	}
}

// A link partitioned at transfer start with no scheduled recovery
// refuses with a typed, retryable error, and each refusal counts as a
// link_partition injection on the attached fault plan.
func TestShapedTransferPartitionedRefuses(t *testing.T) {
	t0 := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	sh := &stepShaper{}
	sh.add(t0, LinkShape{Down: true})

	n := NewNet(1)
	n.SetShaper(sh, func() time.Time { return t0 })
	plan := faults.NewPlan(1, t0)
	n.SetFaults(plan)

	_, err := n.Transfer(Link{Name: "lab", Latency: time.Millisecond, Bandwidth: 1e6}, 1000)
	if err == nil {
		t.Fatal("transfer over a partitioned link succeeded")
	}
	if !faults.Retryable(err) {
		t.Fatalf("partition error not retryable: %v", err)
	}
	if !strings.Contains(err.Error(), "link_partition") {
		t.Fatalf("partition error missing kind: %v", err)
	}
	if _, err := n.RTT(Link{Name: "lab", Latency: time.Millisecond, Bandwidth: 1e6}, 64, 64); err == nil {
		t.Fatal("rpc over a partitioned link succeeded")
	}
	if got := plan.Summary().Injected; got["link_partition"] != 2 || len(got) != 1 {
		t.Fatalf("injected = %v, want link_partition 2", got)
	}
}

func TestLinkShapeApply(t *testing.T) {
	base := Link{Name: "lab", Latency: 10 * time.Millisecond,
		Bandwidth: 1e6, Jitter: time.Millisecond, LossRate: 0.001}
	lat := 40 * time.Millisecond
	loss := 0.05
	sh := LinkShape{Factor: 2, Patch: &LinkPatch{Latency: &lat, LossRate: &loss}}
	got, err := sh.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Latency != 80*time.Millisecond { // patched to 40ms, then doubled
		t.Fatalf("latency = %v", got.Latency)
	}
	if got.Bandwidth != 0.5e6 {
		t.Fatalf("bandwidth = %v", got.Bandwidth)
	}
	if got.LossRate != 0.05 {
		t.Fatalf("loss = %v", got.LossRate)
	}
	if got.Jitter != 2*time.Millisecond {
		t.Fatalf("jitter = %v", got.Jitter)
	}
	if !(LinkShape{}).Zero() || sh.Zero() {
		t.Fatal("Zero() misclassifies shapes")
	}
}

func TestProbeWithinTolerance(t *testing.T) {
	n := NewNet(1)
	res, err := n.Probe(CampusWAN, ProbeConfig{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if err := res.Check(0.25); err != nil {
		t.Fatalf("clean campus-wan out of tolerance: %v", err)
	}

	// Shape the link down to 2.5 MB/s with 2% loss; the probe must
	// measure against the shaped profile, not the stock one.
	t0 := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	sh := &stepShaper{}
	lat := 60 * time.Millisecond
	loss := 0.02
	sh.add(t0, LinkShape{Patch: &LinkPatch{Bandwidth: bwp(2.5e6), LossRate: &loss, Latency: &lat}})
	n.SetShaper(sh, func() time.Time { return t0 })

	res, err = n.Probe(CampusWAN, ProbeConfig{})
	if err != nil {
		t.Fatalf("shaped probe: %v", err)
	}
	if res.Declared.Bandwidth != 2.5e6 || res.Declared.Latency != lat {
		t.Fatalf("declared profile not shaped: %+v", res.Declared)
	}
	if err := res.Check(0.25); err != nil {
		t.Fatalf("shaped campus-wan out of tolerance: %v", err)
	}
	if res.MeasuredBandwidth > 2.5e6 {
		t.Fatalf("measured %v B/s above the shaped rate", res.MeasuredBandwidth)
	}
}

func TestProbeDownLinkFails(t *testing.T) {
	t0 := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	sh := &stepShaper{}
	sh.add(t0, LinkShape{Down: true})
	n := NewNet(1)
	n.SetShaper(sh, func() time.Time { return t0 })
	if _, err := n.Probe(CampusWAN, ProbeConfig{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("probe of a partitioned link returned %v, want ErrLinkDown", err)
	}
}
