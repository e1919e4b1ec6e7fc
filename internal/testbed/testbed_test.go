package testbed

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

func educationSession(t *testing.T) (*Testbed, *Session) {
	t.Helper()
	tb := New(DefaultInventory())
	if _, err := tb.CreateProject("CHI-edu-1", "AutoLearn course", true); err != nil {
		t.Fatal(err)
	}
	u := User{Name: "student1", Institution: "University of Missouri"}
	if err := tb.AddMember("CHI-edu-1", u); err != nil {
		t.Fatal(err)
	}
	s, err := tb.Login(u, "CHI-edu-1")
	if err != nil {
		t.Fatal(err)
	}
	return tb, s
}

func TestInventoryMatchesPaper(t *testing.T) {
	inv := DefaultInventory()
	count := map[GPUType]int{}
	for _, n := range inv {
		count[n.GPU]++
	}
	if count[RTX6000] != 40 {
		t.Errorf("RTX6000 nodes = %d, want 40", count[RTX6000])
	}
	for _, g := range []GPUType{V100, V100NVLink, P100, A100} {
		if count[g] != 4 {
			t.Errorf("%s nodes = %d, want 4", g, count[g])
		}
	}
	for _, g := range []GPUType{M40, K80, MI100} {
		if count[g] == 0 {
			t.Errorf("no %s nodes", g)
		}
	}
}

func TestThroughputOrdering(t *testing.T) {
	// The expected GPU-sweep ordering: A100 fastest, then V100-NVLink,
	// V100, RTX6000, P100.
	order := []GPUType{A100, V100NVLink, V100, RTX6000, P100}
	for i := 1; i < len(order); i++ {
		fa, err := ThroughputFactor(order[i-1])
		if err != nil {
			t.Fatal(err)
		}
		fb, err := ThroughputFactor(order[i])
		if err != nil {
			t.Fatal(err)
		}
		if fa <= fb {
			t.Errorf("%s (%g) should be faster than %s (%g)", order[i-1], fa, order[i], fb)
		}
	}
	if _, err := ThroughputFactor("H100"); err == nil {
		t.Error("unknown GPU accepted")
	}
}

func TestLoginRequiresMembership(t *testing.T) {
	tb := New(DefaultInventory())
	tb.CreateProject("p", "t", true)
	if _, err := tb.Login(User{Name: "stranger"}, "p"); !errors.Is(err, ErrNotMember) {
		t.Errorf("got %v", err)
	}
	if _, err := tb.Login(User{Name: "x"}, "missing"); !errors.Is(err, ErrNoProject) {
		t.Errorf("got %v", err)
	}
}

func TestReserveAndConflict(t *testing.T) {
	_, s := educationSession(t)
	// Reserve all four A100 nodes for the same slot.
	var leases []*Lease
	for i := 0; i < 4; i++ {
		l, err := s.Reserve(NodeFilter{GPU: A100}, t0, t0.Add(2*time.Hour))
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		leases = append(leases, l)
	}
	// Fifth must conflict.
	if _, err := s.Reserve(NodeFilter{GPU: A100}, t0.Add(time.Hour), t0.Add(3*time.Hour)); !errors.Is(err, ErrConflict) {
		t.Errorf("got %v", err)
	}
	// Non-overlapping interval is fine.
	if _, err := s.Reserve(NodeFilter{GPU: A100}, t0.Add(2*time.Hour), t0.Add(4*time.Hour)); err != nil {
		t.Errorf("back-to-back reservation failed: %v", err)
	}
	// Distinct nodes were assigned.
	seen := map[string]bool{}
	for _, l := range leases {
		if seen[l.NodeID] {
			t.Errorf("node %s double-booked", l.NodeID)
		}
		seen[l.NodeID] = true
	}
}

func TestReserveValidation(t *testing.T) {
	_, s := educationSession(t)
	if _, err := s.Reserve(NodeFilter{GPU: A100}, t0, t0); !errors.Is(err, ErrBadInterval) {
		t.Errorf("got %v", err)
	}
	if _, err := s.Reserve(NodeFilter{GPU: "H100"}, t0, t0.Add(time.Hour)); !errors.Is(err, ErrNoNodes) {
		t.Errorf("got %v", err)
	}
}

func TestDeployInsideLease(t *testing.T) {
	tb, s := educationSession(t)
	l, err := s.Reserve(NodeFilter{GPU: V100}, t0, t0.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Deploy(l.ID, "CC-Ubuntu20.04-CUDA", t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if inst.GPU != V100 || inst.GPUCount != 4 {
		t.Errorf("instance hardware %s x%d", inst.GPU, inst.GPUCount)
	}
	if got := inst.ReadyAt.Sub(t0.Add(time.Minute)); got != tb.ProvisionTime {
		t.Errorf("provision time %v", got)
	}
	if _, err := s.Deploy(l.ID, "img", t0.Add(5*time.Hour)); !errors.Is(err, ErrLeaseState) {
		t.Errorf("deploy outside lease: %v", err)
	}
	if _, err := s.Deploy(l.ID, "", t0.Add(time.Minute)); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := s.Deploy("nope", "img", t0); !errors.Is(err, ErrNoLease) {
		t.Errorf("got %v", err)
	}
}

func TestTrainingTimeGPUOrdering(t *testing.T) {
	job := TrainingJob{Samples: 10000, ParamCount: 2_000_000, Epochs: 20, BatchSize: 64}
	var prev time.Duration
	for i, g := range []GPUType{A100, V100NVLink, V100, RTX6000, P100} {
		inst := &Instance{GPU: g, GPUCount: 1}
		d, err := inst.TrainingTime(job)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && d <= prev {
			t.Errorf("%s (%v) should be slower than previous (%v)", g, d, prev)
		}
		prev = d
	}
}

func TestTrainingTimeMultiGPUFaster(t *testing.T) {
	job := TrainingJob{Samples: 10000, ParamCount: 2_000_000, Epochs: 20, BatchSize: 64}
	one := &Instance{GPU: V100, GPUCount: 1}
	four := &Instance{GPU: V100, GPUCount: 4}
	d1, err := one.TrainingTime(job)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := four.TrainingTime(job)
	if err != nil {
		t.Fatal(err)
	}
	if d4 >= d1 {
		t.Errorf("4 GPUs (%v) not faster than 1 (%v)", d4, d1)
	}
	// But not 4x faster (overhead + scaling efficiency).
	if d4 < d1/4 {
		t.Errorf("scaling better than linear: %v vs %v", d4, d1)
	}
}

func TestTrainingJobValidation(t *testing.T) {
	inst := &Instance{GPU: V100, GPUCount: 1}
	if _, err := inst.TrainingTime(TrainingJob{}); err == nil {
		t.Error("empty job accepted")
	}
}

func TestInferenceEdgeVsCloud(t *testing.T) {
	params := 150_000
	cloud := &Instance{GPU: V100, GPUCount: 1}
	dc, err := cloud.InferenceTime(params)
	if err != nil {
		t.Fatal(err)
	}
	de, err := DefaultEdgeDevice().InferenceTime(params)
	if err != nil {
		t.Fatal(err)
	}
	// The Pi computes slower than the V100 computes, but the V100 number
	// includes launch overhead; both must be positive and the edge compute
	// must be slower than cloud compute for big models.
	if dc <= 0 || de <= 0 {
		t.Fatal("non-positive inference times")
	}
	big := 50_000_000
	dcBig, _ := cloud.InferenceTime(big)
	deBig, _ := DefaultEdgeDevice().InferenceTime(big)
	if deBig <= dcBig {
		t.Errorf("edge (%v) should be slower than cloud (%v) for big models", deBig, dcBig)
	}
	if _, err := DefaultEdgeDevice().InferenceTime(0); err == nil {
		t.Error("zero params accepted")
	}
}

func TestUtilization(t *testing.T) {
	tb, s := educationSession(t)
	f := NodeFilter{GPU: K80} // 2 nodes
	if _, err := s.Reserve(f, t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	u := tb.Utilization(f, t0, t0.Add(2*time.Hour))
	// One of two nodes busy for half the window = 0.25.
	if u < 0.24 || u > 0.26 {
		t.Errorf("utilization %g, want 0.25", u)
	}
	if got := tb.Utilization(f, t0, t0); got != 0 {
		t.Errorf("zero window utilization %g", got)
	}
}

func TestClassroomContention(t *testing.T) {
	// 30 students all want a 1-hour RTX6000 slot on the same afternoon;
	// there are 40 such nodes so everyone fits, but a scarce SKU (A100, 4
	// nodes) forces most into later slots — the scenario advance
	// reservations exist for.
	tb := New(DefaultInventory())
	tb.CreateProject("class", "lab", true)
	granted := 0
	for i := 0; i < 30; i++ {
		u := User{Name: string(rune('a' + i))}
		tb.AddMember("class", u)
		s, err := tb.Login(u, "class")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reserve(NodeFilter{GPU: A100}, t0, t0.Add(time.Hour)); err == nil {
			granted++
		}
	}
	if granted != 4 {
		t.Errorf("granted %d A100 slots, want 4", granted)
	}
}

func TestMaintenanceBlocksReserveAndDeploy(t *testing.T) {
	tb, s := educationSession(t)
	// Book the first K80 node now and again later, then take it down.
	f := NodeFilter{GPU: K80}
	now, err := s.Reserve(f, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	later, err := s.Reserve(f, t0.Add(2*time.Hour), t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if later.NodeID != now.NodeID {
		t.Fatalf("later lease on %s, want %s", later.NodeID, now.NodeID)
	}
	if err := tb.PreemptLease(now.ID); err != nil {
		t.Fatal(err)
	}
	// A lease created before maintenance cannot deploy during it.
	if _, err := s.Deploy(later.ID, "img", t0.Add(2*time.Hour)); !errors.Is(err, ErrMaintenance) {
		t.Errorf("deploy on down node: %v", err)
	}
	// New reservations skip the down node: one K80 remains.
	if _, err := s.Reserve(f, t0.Add(4*time.Hour), t0.Add(5*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve(f, t0.Add(4*time.Hour), t0.Add(5*time.Hour)); !errors.Is(err, ErrConflict) {
		t.Errorf("reservation on down node: %v", err)
	}
}
