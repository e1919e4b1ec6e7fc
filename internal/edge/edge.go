// Package edge emulates CHI@Edge, Chameleon's edge testbed, as the paper
// uses it (§3.2, §3.5): Bring-Your-Own-Device enrollment of the cars'
// Raspberry Pis (CLI utility registers the device, an SD-card image is
// configured and flashed, a daemon connects the booted device and enforces
// whitelist access policies), container-based reconfiguration instead of
// bare-metal, and the Basic Jupyter Server Appliance reachable through an
// SSH tunnel.
//
// The control plane is sharded for fleet scale: device and container
// records live in FNV-picked shards with per-shard locks, so 10k+ devices
// can register, heartbeat, and sweep without serializing on one mutex,
// while SweepHeartbeats still returns its evictions as one sorted
// cross-shard list.
package edge

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DeviceStatus tracks a BYOD device through its lifecycle.
type DeviceStatus string

// Lifecycle states: registered (CLI ran), flashed (SD image written),
// connected (daemon checked in), offline.
const (
	StatusRegistered DeviceStatus = "registered"
	StatusFlashed    DeviceStatus = "flashed"
	StatusConnected  DeviceStatus = "connected"
	StatusOffline    DeviceStatus = "offline"
)

// Device is one enrolled edge device (a car's Raspberry Pi).
type Device struct {
	ID        string
	Name      string
	Owner     string
	Arch      string // "aarch64" for Raspberry Pi
	Status    DeviceStatus
	Whitelist map[string]bool // project IDs allowed to allocate the device
}

// Container is a deployed workload on a device (CHI@Edge reconfigures
// devices "by deploying a Docker container rather than bare-metal
// reconfiguration").
type Container struct {
	ID       string
	DeviceID string
	Image    string
	Project  string
	ReadyAt  time.Time
	jupyter  *JupyterServer
}

// JupyterServer is the Basic Jupyter Server Appliance running inside a
// container, reachable from a laptop via an SSH tunnel.
type JupyterServer struct {
	ContainerID string
	TunnelPort  int
	Token       string
}

// Errors returned by edge operations.
var (
	ErrNoDevice       = errors.New("edge: device not found")
	ErrNotConnected   = errors.New("edge: device is not connected")
	ErrNotWhitelisted = errors.New("edge: project not in device whitelist")
	ErrBusy           = errors.New("edge: device already runs a container")
	ErrNoContainer    = errors.New("edge: container not found")
)

// Timing model for the zero-to-ready pathway (coarse but realistic values;
// the benchmark only relies on their relative structure).
const (
	FlashTime     = 4 * time.Minute  // writing the SD card image
	BootTime      = 45 * time.Second // Pi boot until the daemon connects
	ImagePullBase = 20 * time.Second // registry round trips
)

// numShards is the registry stripe count. 16 keeps the per-shard gauge's
// label value set comfortably under the metrics-cardinality lint (<32
// distinct values per label) while spreading a 10k-device fleet ~600 wide.
const numShards = 16

// shardFor picks the stripe for an ID with FNV-1a — the same hash the obs
// registry stripes on, cheap and stable across runs.
func shardFor(id string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % numShards)
}

// deviceShard is one stripe of the device registry: the records, the
// device->container index, and the heartbeat book, all under one lock.
type deviceShard struct {
	mu       sync.Mutex
	devices  map[string]*Device
	byDevice map[string]string    // deviceID -> containerID
	lastSeen map[string]time.Time // device heartbeats
}

// containerShard is one stripe of the container registry. Container
// records shard by container ID, independently of their device's stripe;
// no code path ever holds a device-shard and a container-shard lock at
// once (cross-record updates lock them in sequence).
type containerShard struct {
	mu         sync.Mutex
	containers map[string]*Container
}

// Hub is the CHI@Edge control plane. It is safe for concurrent use.
type Hub struct {
	devShards [numShards]deviceShard
	ctrShards [numShards]containerShard
	nextID    atomic.Int64

	live    atomic.Int64 // devices in the connected state
	running atomic.Int64 // deployed containers
	perReg  [numShards]atomic.Int64

	// ImagePullRate is container-image bytes per second onto the device.
	// Set it before concurrent use; launches read it unsynchronized.
	ImagePullRate float64

	cfgMu      sync.Mutex
	metrics    *obs.Registry
	tracer     *obs.Tracer
	traceScope obs.SpanContext // ambient round context for sweep spans
}

// NewHub creates an empty CHI@Edge control plane.
func NewHub() *Hub {
	h := &Hub{ImagePullRate: 6.25e6} // 50 Mbit/s onto the Pi
	for i := range h.devShards {
		h.devShards[i].devices = map[string]*Device{}
		h.devShards[i].byDevice = map[string]string{}
		h.devShards[i].lastSeen = map[string]time.Time{}
	}
	for i := range h.ctrShards {
		h.ctrShards[i].containers = map[string]*Container{}
	}
	return h
}

// devShard returns the stripe owning a device ID.
func (h *Hub) devShard(id string) *deviceShard { return &h.devShards[shardFor(id)] }

// ctrShard returns the stripe owning a container ID.
func (h *Hub) ctrShard(id string) *containerShard { return &h.ctrShards[shardFor(id)] }

// reg returns the attached metrics registry (nil-safe to use).
func (h *Hub) reg() *obs.Registry {
	h.cfgMu.Lock()
	defer h.cfgMu.Unlock()
	return h.metrics
}

// Instrument routes control-plane metrics into reg: a heartbeat-liveness
// gauge (devices currently connected), running-container gauge, per-shard
// registry population gauges, and counters for heartbeats and sweep
// evictions. The gauges are published immediately so scrapes before any
// device activity still see the series.
func (h *Hub) Instrument(reg *obs.Registry) {
	reg.Help("edge_devices_live", "devices currently in the connected state")
	reg.Help("edge_containers_running", "containers deployed across the fleet")
	reg.Help("edge_heartbeats_total", "device daemon check-ins received")
	reg.Help("edge_sweep_evictions_total", "devices taken offline by heartbeat sweeps")
	reg.Help("edge_shard_devices", "registered devices per registry shard")
	h.cfgMu.Lock()
	h.metrics = reg
	h.cfgMu.Unlock()
	reg.Counter("edge_sweep_evictions_total")
	h.publish()
}

// SetTracer attaches a tracer so heartbeat sweeps can emit spans. Nil
// detaches.
func (h *Hub) SetTracer(tr *obs.Tracer) {
	h.cfgMu.Lock()
	h.tracer = tr
	h.cfgMu.Unlock()
}

// SetTraceScope installs the ambient trace context that clock-driven
// activity (heartbeat sweeps fired from virtual-time playback, which has
// no caller to thread a context through) parents its spans under. A fed
// round sets its round span here; the zero context clears the scope.
func (h *Hub) SetTraceScope(sc obs.SpanContext) {
	h.cfgMu.Lock()
	h.traceScope = sc
	h.cfgMu.Unlock()
}

// publish refreshes the liveness, container, and per-shard gauges from the
// transition-maintained counts. Shard labels are a bounded set (s00..s15),
// never per-device values, so fleet size cannot blow up series cardinality.
func (h *Hub) publish() {
	reg := h.reg()
	if reg == nil {
		return
	}
	reg.Gauge("edge_devices_live").Set(float64(h.live.Load()))
	reg.Gauge("edge_containers_running").Set(float64(h.running.Load()))
	for i := range h.perReg {
		reg.Gauge("edge_shard_devices", obs.L("shard", shardLabel(i))).
			Set(float64(h.perReg[i].Load()))
	}
}

// shardLabel formats a stripe index as its bounded metric label value.
func shardLabel(i int) string { return fmt.Sprintf("s%02d", i) }

// RegisterDevice is the BYOD CLI step: it registers the device with the
// testbed and returns the device record in the "registered" state.
func (h *Hub) RegisterDevice(name, owner string) (*Device, error) {
	if name == "" || owner == "" {
		return nil, fmt.Errorf("edge: device name and owner required")
	}
	d := &Device{
		ID:        fmt.Sprintf("dev-%04d", h.nextID.Add(1)),
		Name:      name,
		Owner:     owner,
		Arch:      "aarch64",
		Status:    StatusRegistered,
		Whitelist: map[string]bool{},
	}
	sh := h.devShard(d.ID)
	sh.mu.Lock()
	sh.devices[d.ID] = d
	sh.mu.Unlock()
	h.perReg[shardFor(d.ID)].Add(1)
	h.publish()
	return d, nil
}

// FlashImage configures and "writes" the SD-card image for the device.
// It returns how long the flash takes.
func (h *Hub) FlashImage(deviceID string) (time.Duration, error) {
	sh := h.devShard(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[deviceID]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoDevice, deviceID)
	}
	if d.Status != StatusRegistered && d.Status != StatusOffline {
		return 0, fmt.Errorf("edge: device %s cannot be flashed in state %s", deviceID, d.Status)
	}
	d.Status = StatusFlashed
	return FlashTime, nil
}

// Boot powers the device; its daemon connects it to the testbed. It
// returns the boot-to-connected duration.
func (h *Hub) Boot(deviceID string) (time.Duration, error) {
	sh := h.devShard(deviceID)
	sh.mu.Lock()
	d, ok := sh.devices[deviceID]
	if !ok {
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrNoDevice, deviceID)
	}
	if d.Status != StatusFlashed {
		status := d.Status
		sh.mu.Unlock()
		return 0, fmt.Errorf("edge: device %s cannot boot from state %s (flash first)", deviceID, status)
	}
	d.Status = StatusConnected
	// A boot starts a fresh heartbeat history: any lastSeen left over from a
	// previous connected spell would let the next sweep evict the device
	// before its daemon gets a chance to check in.
	delete(sh.lastSeen, deviceID)
	sh.mu.Unlock()
	h.live.Add(1)
	h.publish()
	return BootTime, nil
}

// Whitelist grants a project access to the device (the daemon "configures
// whitelist-based access policies").
func (h *Hub) Whitelist(deviceID, projectID string) error {
	sh := h.devShard(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[deviceID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDevice, deviceID)
	}
	d.Whitelist[projectID] = true
	return nil
}

// Device returns a snapshot of one device.
func (h *Hub) Device(id string) (Device, error) {
	sh := h.devShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[id]
	if !ok {
		return Device{}, fmt.Errorf("%w: %q", ErrNoDevice, id)
	}
	return *d, nil
}

// LaunchContainer deploys an image (of the given size in bytes) onto a
// connected, whitelisted device at virtual time now. One container per
// device; the container is ready after the image pull completes.
func (h *Hub) LaunchContainer(deviceID, projectID, image string, imageBytes int64, now time.Time) (*Container, error) {
	if image == "" || imageBytes <= 0 {
		return nil, fmt.Errorf("edge: image name and positive size required")
	}
	sh := h.devShard(deviceID)
	sh.mu.Lock()
	d, ok := sh.devices[deviceID]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoDevice, deviceID)
	}
	if d.Status != StatusConnected {
		status := d.Status
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrNotConnected, deviceID, status)
	}
	if !d.Whitelist[projectID] {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s on %s", ErrNotWhitelisted, projectID, deviceID)
	}
	if _, busy := sh.byDevice[deviceID]; busy {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrBusy, deviceID)
	}
	pull := ImagePullBase + time.Duration(float64(imageBytes)/h.ImagePullRate*float64(time.Second))
	c := &Container{
		ID:       fmt.Sprintf("ctr-%04d", h.nextID.Add(1)),
		DeviceID: deviceID,
		Image:    image,
		Project:  projectID,
		ReadyAt:  now.Add(pull),
	}
	// Reserve the device before touching the container stripe, so the
	// one-container-per-device invariant holds without nesting shard locks.
	sh.byDevice[deviceID] = c.ID
	sh.mu.Unlock()

	cs := h.ctrShard(c.ID)
	cs.mu.Lock()
	cs.containers[c.ID] = c
	cs.mu.Unlock()
	h.running.Add(1)
	h.publish()
	return c, nil
}

// StartJupyter launches the Basic Jupyter Server Appliance inside the
// container and returns the SSH-tunnel endpoint a laptop would use.
func (h *Hub) StartJupyter(containerID string) (*JupyterServer, error) {
	cs := h.ctrShard(containerID)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c, ok := cs.containers[containerID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoContainer, containerID)
	}
	if c.jupyter != nil {
		return c.jupyter, nil
	}
	n := int(h.nextID.Add(1))
	c.jupyter = &JupyterServer{
		ContainerID: containerID,
		TunnelPort:  8800 + n%100,
		Token:       fmt.Sprintf("tok-%06d", n*7919%1000000),
	}
	return c.jupyter, nil
}
