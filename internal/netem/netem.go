// Package netem models the networks of the edge-to-cloud continuum: the
// campus WAN between a car's Raspberry Pi and the Chameleon datacenter, the
// SSH tunnel students use to reach the on-car Jupyter server, and the
// FABRIC-style managed-latency links between Chameleon sites. It is a
// deterministic virtual-time model: transfers and RPCs report how long they
// would take rather than sleeping, so experiments are reproducible and fast.
package netem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Link describes one direction of a network path.
type Link struct {
	Name      string
	Latency   time.Duration // one-way propagation delay
	Bandwidth float64       // bytes per second
	Jitter    time.Duration // stddev of latency noise
	LossRate  float64       // packet loss probability in [0, 1)
	MTU       int           // bytes per packet; 0 selects 1500
}

// ErrRange reports a modelled time that does not fit time.Duration: a
// transfer so large, or a link so degraded, that its nanoseconds
// overflow int64.
var ErrRange = errors.New("netem: out of range")

// nanos converts nanoseconds computed in float64 to a Duration. It is
// netem's one range check, made before converting: Go leaves an
// out-of-range float-to-integer conversion to the platform (amd64 and
// arm64 give different answers), so a value past time.Duration's range,
// or NaN, is an ErrRange naming the link and what overflowed. Sums of
// durations go through it as well; float64 holds them exactly below
// 2^53 ns (104 days).
func nanos(ns float64, link, what string) (time.Duration, error) {
	if ns >= -(1<<63) && ns < 1<<63 {
		return time.Duration(ns), nil
	}
	return 0, fmt.Errorf("%w: %s %s is %g ns", ErrRange, link, what, ns)
}

// Validate checks the link parameters.
func (l Link) Validate() error {
	switch {
	case l.Latency < 0:
		return fmt.Errorf("netem: negative latency")
	case l.Bandwidth <= 0:
		return fmt.Errorf("netem: bandwidth must be positive")
	case l.LossRate < 0 || l.LossRate >= 1:
		return fmt.Errorf("netem: loss rate must be in [0,1)")
	case l.Jitter < 0:
		return fmt.Errorf("netem: negative jitter")
	case l.MTU < 0:
		return fmt.Errorf("netem: negative MTU")
	}
	return nil
}

func (l Link) mtu() int {
	if l.MTU == 0 {
		return 1500
	}
	return l.MTU
}

// Stock link profiles used across the benchmarks.
var (
	// CampusWAN is a typical university-to-Chameleon path.
	CampusWAN = Link{Name: "campus-wan", Latency: 20 * time.Millisecond,
		Bandwidth: 12.5e6, Jitter: 2 * time.Millisecond, LossRate: 0.001} // 100 Mbit/s
	// HomeBroadband is a student working from home.
	HomeBroadband = Link{Name: "home-broadband", Latency: 35 * time.Millisecond,
		Bandwidth: 3.125e6, Jitter: 6 * time.Millisecond, LossRate: 0.005} // 25 Mbit/s
	// WiFiLocal is the car's Pi to a laptop on the same access point.
	WiFiLocal = Link{Name: "wifi-local", Latency: 3 * time.Millisecond,
		Bandwidth: 6.25e6, Jitter: 1 * time.Millisecond, LossRate: 0.002} // 50 Mbit/s
	// FabricManaged is a FABRIC-style managed-latency site interconnect.
	FabricManaged = Link{Name: "fabric", Latency: 8 * time.Millisecond,
		Bandwidth: 125e6, Jitter: 200 * time.Microsecond, LossRate: 0} // 1 Gbit/s
	// Loopback approximates in-node communication.
	Loopback = Link{Name: "loopback", Latency: 50 * time.Microsecond,
		Bandwidth: 1.25e9, Jitter: 0, LossRate: 0}
)

// Stock lists the stock link profiles in a stable order.
func Stock() []Link {
	return []Link{CampusWAN, HomeBroadband, WiFiLocal, FabricManaged, Loopback}
}

// ByName resolves a stock link profile by its Name field. Scenario files
// and netctl address links by name; unknown names get a generic base
// profile (1 Gbit/s, 10 ms) that a full scenario patch then overrides.
func ByName(name string) (Link, bool) {
	for _, l := range Stock() {
		if l.Name == name {
			return l, true
		}
	}
	return Link{Name: name, Latency: 10 * time.Millisecond, Bandwidth: 125e6}, false
}

// WithLatency returns a copy of the link with a different propagation delay
// (used by the placement sweep, which varies WAN latency).
func (l Link) WithLatency(d time.Duration) Link {
	l.Latency = d
	return l
}

// Net simulates traffic over links with a seeded RNG for jitter and loss.
// It is safe for concurrent use.
type Net struct {
	mu  sync.Mutex
	rng *rand.Rand

	metrics *obs.Registry
	tracer  *obs.Tracer
	faults  *faults.Plan

	shaper    Shaper           // live link shaping (scenario table / netctl)
	shaperNow func() time.Time // the virtual clock the shaper is indexed by
}

// NewNet creates a network simulator with a deterministic seed.
func NewNet(seed int64) *Net {
	return &Net{rng: rand.New(rand.NewSource(seed))}
}

// Instrument routes per-link traffic metrics into reg: transfer bytes and
// counts, simulated transfer/RPC durations, and retransmissions. A nil
// registry turns instrumentation off.
func (n *Net) Instrument(reg *obs.Registry) {
	n.mu.Lock()
	n.metrics = reg
	n.mu.Unlock()
	reg.Help("netem_transfer_bytes_total", "bulk-transfer payload bytes moved per link")
	reg.Help("netem_transfer_seconds", "simulated bulk-transfer duration per link")
	reg.Help("netem_rpc_seconds", "simulated RPC round-trip duration per link")
	reg.Help("netem_retransmits_total", "packets retransmitted on lossy links")
}

// SetTracer attaches a tracer: TransferCtx then emits one span per
// attempt under the caller's propagated context. Nil detaches.
func (n *Net) SetTracer(tr *obs.Tracer) {
	n.mu.Lock()
	n.tracer = tr
	n.mu.Unlock()
}

// SetFaults attaches the run's fault plan: partition refusals count as
// link_partition injections on it. Link faults themselves come from the
// shaper (SetShaper). Nil detaches.
func (n *Net) SetFaults(p *faults.Plan) {
	n.mu.Lock()
	n.faults = p
	n.mu.Unlock()
}

// sample returns latency with jitter noise, never negative.
func (n *Net) sample(l Link) (time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ns := float64(l.Latency)
	if l.Jitter > 0 {
		ns += math.Trunc(n.rng.NormFloat64() * float64(l.Jitter))
	}
	d, err := nanos(ns, l.Name, "latency sample")
	if d < 0 {
		d = 0
	}
	return d, err
}

// lost draws a loss event.
func (n *Net) lost(l Link) bool {
	if l.LossRate <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < l.LossRate
}

// TransferResult reports a completed bulk transfer.
type TransferResult struct {
	Bytes       int64
	Duration    time.Duration
	Retransmits int
	Throughput  float64 // effective bytes/s
}

// Transfer models a bulk copy (the paper's "copy the training data using
// rsync") of size bytes over the link: serialization time plus propagation,
// with lost packets retransmitted.
func (n *Net) Transfer(l Link, size int64) (TransferResult, error) {
	return n.transfer(l, size, "")
}

// TransferCtx is Transfer continuing a propagated trace: it emits one
// "netem_transfer" span per call (so a retry loop shows each attempt) and
// tags the duration histogram with the trace as an exemplar.
func (n *Net) TransferCtx(sc obs.SpanContext, l Link, size int64) (TransferResult, error) {
	n.mu.Lock()
	tr := n.tracer
	n.mu.Unlock()
	if tr == nil || !sc.Valid() {
		return n.transfer(l, size, sc.TraceID)
	}
	span := tr.StartWith("netem_transfer", sc)
	span.SetAttr("link", l.Name)
	span.SetAttr("bytes", size)
	res, err := n.transfer(l, size, sc.TraceID)
	if err == nil {
		span.SetAttr("retransmits", res.Retransmits)
		span.SetSimDuration("transfer", res.Duration)
	}
	span.EndErr(err)
	return res, err
}

func (n *Net) transfer(l Link, size int64, traceID string) (TransferResult, error) {
	if err := l.Validate(); err != nil {
		return TransferResult{}, err
	}
	if size < 0 {
		return TransferResult{}, fmt.Errorf("netem: negative transfer size")
	}
	// With a shaper attached the link's latency, loss, and jitter come
	// from the shape at transfer start, but serialization is billed
	// piecewise across shape changes so mid-run mutations reach traffic
	// already in flight.
	shaper, nowf := n.shaperState()
	var t0 time.Time
	eff := l
	if shaper != nil {
		t0 = nowf()
		shape, _ := shaper.ShapeAt(l.Name, t0)
		if shape.Down {
			return TransferResult{}, n.partitionErr(l.Name, "transfer")
		}
		var err error
		if eff, err = shape.Apply(l); err == nil {
			err = eff.Validate()
		}
		if err != nil {
			return TransferResult{}, fmt.Errorf("netem: shaped %s invalid: %w", l.Name, err)
		}
	}
	mtu := int64(eff.mtu())
	packets := size / mtu
	if size%mtu != 0 || packets == 0 {
		packets++
	}
	retrans := 0
	if eff.LossRate > 0 {
		// Expected retransmissions with a deterministic draw per packet
		// would be O(packets); approximate with the binomial mean plus
		// sampled noise so big transfers stay O(1).
		mean := float64(packets) * eff.LossRate
		n.mu.Lock()
		noise := n.rng.NormFloat64() * math.Sqrt(mean*(1-eff.LossRate))
		n.mu.Unlock()
		retrans = int(math.Max(0, math.Round(mean+noise)))
	}
	// Serialization bills the actual payload plus full-MTU retransmissions;
	// rounding the last partial packet up to a whole MTU would overstate the
	// duration (and understate throughput) for any non-MTU-multiple size.
	wire := float64(size) + float64(retrans)*float64(mtu)
	var serialize time.Duration
	var err error
	if shaper != nil {
		serialize, err = n.shapedSerialize(shaper, l, wire, t0)
	} else {
		serialize, err = nanos(wire/eff.Bandwidth*float64(time.Second), l.Name, "serialization")
	}
	if err != nil {
		return TransferResult{}, err
	}
	// Each retransmission round adds one RTT of stall (coarse TCP model).
	if _, err := nanos(float64(retrans)*2*float64(eff.Latency), l.Name, "retransmission stall"); err != nil {
		return TransferResult{}, err
	}
	stall := time.Duration(retrans) * 2 * eff.Latency / time.Duration(max64(1, packets/64+1))
	latency, err := n.sample(eff)
	if err != nil {
		return TransferResult{}, err
	}
	dur, err := nanos(float64(latency)+float64(serialize)+float64(stall), l.Name, "transfer time")
	if err != nil {
		return TransferResult{}, err
	}
	n.mu.Lock()
	reg := n.metrics
	n.mu.Unlock()
	link := obs.L("link", l.Name)
	reg.Counter("netem_transfer_bytes_total", link).Add(float64(size))
	reg.Counter("netem_retransmits_total", link).Add(float64(retrans))
	reg.Histogram("netem_transfer_seconds", obs.DefSecondsBuckets, link).
		ObserveDurationExemplar(dur, traceID)
	tp := 0.0
	if dur > 0 {
		tp = float64(size) / dur.Seconds()
	}
	return TransferResult{Bytes: size, Duration: dur, Retransmits: retrans, Throughput: tp}, nil
}

// RTT models a small request/response exchange (an inference RPC): one
// round trip plus serialization of both payloads, retrying on loss.
func (n *Net) RTT(l Link, reqBytes, respBytes int) (time.Duration, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if reqBytes < 0 || respBytes < 0 {
		return 0, fmt.Errorf("netem: negative RPC size")
	}
	// RPCs are small: the shape at call time governs the whole exchange
	// (only bulk transfers bill piecewise across shape changes).
	if shaper, nowf := n.shaperState(); shaper != nil {
		shape, _ := shaper.ShapeAt(l.Name, nowf())
		if shape.Down {
			return 0, n.partitionErr(l.Name, "rpc")
		}
		var err error
		if l, err = shape.Apply(l); err == nil {
			err = l.Validate()
		}
		if err != nil {
			return 0, fmt.Errorf("netem: shaped %s invalid: %w", l.Name, err)
		}
	}
	payload, err := nanos(float64(reqBytes+respBytes)/l.Bandwidth*float64(time.Second), l.Name, "rpc serialization")
	if err != nil {
		return 0, err
	}
	out, err := n.sample(l)
	if err != nil {
		return 0, err
	}
	back, err := n.sample(l)
	if err != nil {
		return 0, err
	}
	d, err := nanos(float64(out)+float64(back)+float64(payload), l.Name, "rpc time")
	// Loss forces a retry of the whole exchange.
	for err == nil && n.lost(l) {
		var s time.Duration
		if s, err = n.sample(l); err == nil {
			d, err = nanos(float64(d)+2*float64(s)+float64(payload), l.Name, "rpc time")
		}
	}
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	reg := n.metrics
	n.mu.Unlock()
	link := obs.L("link", l.Name)
	reg.Counter("netem_transfer_bytes_total", link).Add(float64(reqBytes + respBytes))
	reg.Histogram("netem_rpc_seconds", obs.DefSecondsBuckets, link).
		ObserveDuration(d)
	return d, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
