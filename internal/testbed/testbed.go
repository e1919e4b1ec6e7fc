// Package testbed emulates the Chameleon cloud testbed as the paper uses
// it (§3.2): multiple sites, a catalogue of bare-metal GPU nodes (A100,
// V100, V100-NVLink, RTX6000, P100, M40, K80, MI100), federated identity
// login into projects, on-demand and advance reservations, and appliance
// deployment. Time is virtual: operations report durations and the lease
// calendar works on explicit timestamps, so experiments are deterministic.
package testbed

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// GPUType names an accelerator SKU from the paper.
type GPUType string

// The accelerator SKUs the paper lists.
const (
	A100       GPUType = "A100"
	V100       GPUType = "V100"
	V100NVLink GPUType = "V100-NVLink"
	RTX6000    GPUType = "RTX6000"
	P100       GPUType = "P100"
	M40        GPUType = "M40"
	K80        GPUType = "K80"
	MI100      GPUType = "MI100"
	NoGPU      GPUType = "none"
)

// throughputFactor gives each SKU's training throughput relative to a V100
// (single-GPU, mixed conv/dense workload). Values are calibrated from
// public MLPerf-class numbers; only the ordering matters for the paper's
// GPU sweep.
var throughputFactor = map[GPUType]float64{
	A100:       2.5,
	V100NVLink: 1.35,
	V100:       1.0,
	MI100:      0.9,
	RTX6000:    0.8,
	P100:       0.55,
	M40:        0.3,
	K80:        0.18,
	NoGPU:      0.04, // CPU-only fallback
}

// ThroughputFactor returns the SKU's relative training throughput, or an
// error for unknown SKUs.
func ThroughputFactor(g GPUType) (float64, error) {
	f, ok := throughputFactor[g]
	if !ok {
		return 0, fmt.Errorf("testbed: unknown GPU type %q", g)
	}
	return f, nil
}

// Node is one bare-metal machine.
type Node struct {
	ID       string
	Site     string
	GPU      GPUType
	GPUCount int
}

// Site names used by the default inventory (the two principal Chameleon
// sites).
const (
	SiteTACC = "CHI@TACC"
	SiteUC   = "CHI@UC"
)

// DefaultInventory builds the hardware catalogue the paper describes:
// "40 nodes with a single Nvidia RTX6000 GPU ... sets of 4 nodes each with
// 4x Nvidia V100, P100, or A100 ... smaller numbers of nodes with other
// architectures (Nvidia M40, K80, AMD MI100)".
func DefaultInventory() []Node {
	var nodes []Node
	add := func(site string, gpu GPUType, gpuCount, n int) {
		for i := 0; i < n; i++ {
			nodes = append(nodes, Node{
				ID:       fmt.Sprintf("%s-%s-%02d", siteShort(site), gpu, i),
				Site:     site,
				GPU:      gpu,
				GPUCount: gpuCount,
			})
		}
	}
	add(SiteTACC, RTX6000, 1, 24)
	add(SiteUC, RTX6000, 1, 16)
	add(SiteTACC, V100, 4, 4)
	add(SiteUC, V100NVLink, 4, 4)
	add(SiteTACC, P100, 4, 4)
	add(SiteUC, A100, 4, 4)
	add(SiteTACC, M40, 1, 2)
	add(SiteUC, K80, 1, 2)
	add(SiteTACC, MI100, 1, 2)
	return nodes
}

func siteShort(site string) string {
	switch site {
	case SiteTACC:
		return "tacc"
	case SiteUC:
		return "uc"
	default:
		return "site"
	}
}

// User is a federated identity.
type User struct {
	Name        string
	Institution string
}

// Project is an allocation context; educational users "request a project
// in computer science education".
type Project struct {
	ID        string
	Title     string
	Education bool
	members   map[string]bool
}

// Errors returned by testbed operations.
var (
	ErrNotMember   = errors.New("testbed: user is not a member of the project")
	ErrNoProject   = errors.New("testbed: project not found")
	ErrNoNodes     = errors.New("testbed: no nodes match the request")
	ErrConflict    = errors.New("testbed: reservation conflict")
	ErrBadInterval = errors.New("testbed: invalid reservation interval")
	ErrNoLease     = errors.New("testbed: lease not found")
	ErrLeaseState  = errors.New("testbed: lease not in a deployable state")
)

// Lease is a reservation of one node for an interval.
type Lease struct {
	ID      string
	NodeID  string
	Project string
	User    string
	Start   time.Time
	End     time.Time
}

// Instance is a deployed appliance on a leased node.
type Instance struct {
	LeaseID  string
	NodeID   string
	Image    string
	ReadyAt  time.Time // when bare-metal provisioning completes
	GPU      GPUType
	GPUCount int

	metrics *obs.Registry // inherited from the testbed at Deploy time
}

// Testbed holds the whole emulated facility. It is safe for concurrent use.
type Testbed struct {
	mu          sync.Mutex
	nodes       map[string]*Node
	projects    map[string]*Project
	leases      map[string]*Lease
	byNode      map[string][]*Lease // sorted by start
	maintenance map[string]bool     // nodes out of service
	nextID      int

	// ProvisionTime is how long bare-metal deployment of an image takes
	// (the paper's Ubuntu 20.04 CUDA appliance).
	ProvisionTime time.Duration

	metrics *obs.Registry
}

// Instrument routes facility metrics into reg: per-GPU-type lease counts,
// provisioning (queue-to-ready) durations, and — through instances
// deployed afterwards — simulated training durations per SKU, the series
// behind the paper's §3.3 GPU sweep.
func (tb *Testbed) Instrument(reg *obs.Registry) {
	reg.Help("testbed_leases_total", "node reservations granted per GPU type")
	reg.Help("testbed_provision_seconds", "simulated bare-metal appliance deployment time")
	reg.Help("testbed_training_seconds", "simulated training wall time per GPU type")
	reg.Help("testbed_preemptions_total", "leases preempted out from under their holders")
	tb.mu.Lock()
	tb.metrics = reg
	tb.mu.Unlock()
}

// New builds a testbed with the given node inventory.
func New(nodes []Node) *Testbed {
	tb := &Testbed{
		nodes:         map[string]*Node{},
		projects:      map[string]*Project{},
		leases:        map[string]*Lease{},
		byNode:        map[string][]*Lease{},
		ProvisionTime: 10 * time.Minute,
	}
	for i := range nodes {
		n := nodes[i]
		tb.nodes[n.ID] = &n
	}
	return tb
}

// CreateProject registers a project.
func (tb *Testbed) CreateProject(id, title string, education bool) (*Project, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if id == "" {
		return nil, fmt.Errorf("testbed: empty project id")
	}
	if _, ok := tb.projects[id]; ok {
		return nil, fmt.Errorf("testbed: project %q exists", id)
	}
	p := &Project{ID: id, Title: title, Education: education, members: map[string]bool{}}
	tb.projects[id] = p
	return p, nil
}

// AddMember joins a user to a project (the PI approving a student).
func (tb *Testbed) AddMember(projectID string, u User) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	p, ok := tb.projects[projectID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoProject, projectID)
	}
	p.members[u.Name] = true
	return nil
}

// Login performs federated identity login: it succeeds iff the user is a
// member of the project, returning a session scoped to it.
func (tb *Testbed) Login(u User, projectID string) (*Session, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	p, ok := tb.projects[projectID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoProject, projectID)
	}
	if !p.members[u.Name] {
		return nil, fmt.Errorf("%w: %s in %s", ErrNotMember, u.Name, projectID)
	}
	return &Session{tb: tb, user: u, project: p}, nil
}

// Session is an authenticated view of the testbed.
type Session struct {
	tb      *Testbed
	user    User
	project *Project
}

// User returns the session's identity.
func (s *Session) User() User { return s.user }

// NodeFilter selects nodes for discovery and reservation.
type NodeFilter struct {
	Site    string  // empty = any
	GPU     GPUType // empty = any
	MinGPUs int
}

func (f NodeFilter) matches(n *Node) bool {
	if f.Site != "" && n.Site != f.Site {
		return false
	}
	if f.GPU != "" && n.GPU != f.GPU {
		return false
	}
	if n.GPUCount < f.MinGPUs {
		return false
	}
	return true
}

// overlaps reports whether [a1,a2) and [b1,b2) intersect.
func overlaps(a1, a2, b1, b2 time.Time) bool {
	return a1.Before(b2) && b1.Before(a2)
}

// Reserve books the first free matching node for [start, end) — an advance
// reservation if start is in the future, on-demand if start is now.
func (s *Session) Reserve(f NodeFilter, start, end time.Time) (*Lease, error) {
	if !end.After(start) {
		return nil, ErrBadInterval
	}
	s.tb.mu.Lock()
	defer s.tb.mu.Unlock()
	var candidates []*Node
	for _, n := range s.tb.nodes {
		if f.matches(n) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoNodes
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ID < candidates[j].ID })
	for _, n := range candidates {
		if s.tb.maintenance[n.ID] {
			continue
		}
		if s.tb.nodeFreeLocked(n.ID, start, end) {
			s.tb.nextID++
			l := &Lease{
				ID:      fmt.Sprintf("lease-%d", s.tb.nextID),
				NodeID:  n.ID,
				Project: s.project.ID,
				User:    s.user.Name,
				Start:   start,
				End:     end,
			}
			s.tb.leases[l.ID] = l
			s.tb.byNode[n.ID] = append(s.tb.byNode[n.ID], l)
			sort.Slice(s.tb.byNode[n.ID], func(i, j int) bool {
				return s.tb.byNode[n.ID][i].Start.Before(s.tb.byNode[n.ID][j].Start)
			})
			s.tb.metrics.Counter("testbed_leases_total", obs.L("gpu", string(n.GPU))).Inc()
			return l, nil
		}
	}
	return nil, ErrConflict
}

func (tb *Testbed) nodeFreeLocked(nodeID string, start, end time.Time) bool {
	for _, l := range tb.byNode[nodeID] {
		if overlaps(start, end, l.Start, l.End) {
			return false
		}
	}
	return true
}

// Deploy provisions an appliance image on a leased node at time now, which
// must fall inside the lease. Provisioning finishes ProvisionTime later.
func (s *Session) Deploy(leaseID, image string, now time.Time) (*Instance, error) {
	s.tb.mu.Lock()
	defer s.tb.mu.Unlock()
	l, ok := s.tb.leases[leaseID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoLease, leaseID)
	}
	if now.Before(l.Start) || !now.Before(l.End) {
		return nil, fmt.Errorf("%w: deploy at %v outside lease [%v,%v)", ErrLeaseState, now, l.Start, l.End)
	}
	if s.tb.maintenance[l.NodeID] {
		return nil, fmt.Errorf("%w: %s", ErrMaintenance, l.NodeID)
	}
	if image == "" {
		return nil, fmt.Errorf("testbed: empty image name")
	}
	n := s.tb.nodes[l.NodeID]
	s.tb.metrics.Histogram("testbed_provision_seconds", obs.DefSecondsBuckets).
		ObserveDuration(s.tb.ProvisionTime)
	return &Instance{
		LeaseID:  leaseID,
		NodeID:   l.NodeID,
		Image:    image,
		ReadyAt:  now.Add(s.tb.ProvisionTime),
		GPU:      n.GPU,
		GPUCount: n.GPUCount,
		metrics:  s.tb.metrics,
	}, nil
}

// Utilization reports, for a node set matching the filter, the fraction of
// the [start, end) window covered by leases (averaged over nodes).
func (tb *Testbed) Utilization(f NodeFilter, start, end time.Time) float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	window := end.Sub(start)
	if window <= 0 {
		return 0
	}
	var total, nodes float64
	for _, n := range tb.nodes {
		if !f.matches(n) {
			continue
		}
		nodes++
		var busy time.Duration
		for _, l := range tb.byNode[n.ID] {
			s0, e0 := l.Start, l.End
			if s0.Before(start) {
				s0 = start
			}
			if e0.After(end) {
				e0 = end
			}
			if e0.After(s0) {
				busy += e0.Sub(s0)
			}
		}
		total += float64(busy) / float64(window)
	}
	if nodes == 0 {
		return 0
	}
	return total / nodes
}
