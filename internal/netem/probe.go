package netem

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// ErrLinkDown is Probe's refusal of a link that is partitioned at probe
// time: a down link has no throughput to measure.
var ErrLinkDown = errors.New("link is down")

// ProbeConfig sizes a throughput probe. The zero value selects the
// defaults: 4 bulk transfers of 8 MiB plus 8 small RPCs — large enough
// to amortize propagation delay into the bandwidth estimate, small
// enough to stay inside one scenario phase at broadband rates.
type ProbeConfig struct {
	Transfers int   // bulk transfers (default 4)
	Bytes     int64 // payload per transfer (default 8 MiB)
	RPCs      int   // round-trip samples (default 8)
	RPCBytes  int   // payload per RPC direction (default 64)
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Transfers <= 0 {
		c.Transfers = 4
	}
	if c.Bytes <= 0 {
		c.Bytes = 8 << 20
	}
	if c.RPCs <= 0 {
		c.RPCs = 8
	}
	if c.RPCBytes <= 0 {
		c.RPCBytes = 64
	}
	return c
}

// ProbeResult is one iperf3-style measurement of a link: what the
// effective profile declared at probe start, and what the traffic
// actually measured. All durations are simulated.
type ProbeResult struct {
	Link     string
	Declared Link // effective profile (shaper applied) at probe start

	MeasuredBandwidth float64       // payload bytes/s over the bulk transfers
	MeasuredRTT       time.Duration // mean small-RPC round trip
	MeasuredLoss      float64       // retransmitted fraction of bulk packets
	Transfers         int
	Retransmits       int
	Elapsed           time.Duration // total simulated probe time
}

// Check validates the measurement against the declared profile within a
// relative tolerance (0.25 = ±25%). Bandwidth carries the declared loss
// and propagation drag, so tolerances below ~0.1 reject healthy links.
// Returns nil when every dimension is inside tolerance.
func (r ProbeResult) Check(tol float64) error {
	if tol <= 0 {
		tol = 0.25
	}
	var bad []string
	if d := r.Declared.Bandwidth; d > 0 {
		lo, hi := d*(1-tol), d*(1+tol)
		if r.MeasuredBandwidth < lo || r.MeasuredBandwidth > hi {
			bad = append(bad, fmt.Sprintf("bandwidth %.0f B/s outside [%.0f, %.0f]",
				r.MeasuredBandwidth, lo, hi))
		}
	}
	// The RTT includes two propagation samples plus payload serialization;
	// jitter widens the acceptance band.
	wantRTT := 2 * r.Declared.Latency
	slack := time.Duration(float64(wantRTT)*tol) + 4*r.Declared.Jitter + time.Millisecond
	if diff := r.MeasuredRTT - wantRTT; diff > slack || diff < -slack {
		bad = append(bad, fmt.Sprintf("rtt %v outside %v ± %v", r.MeasuredRTT, wantRTT, slack))
	}
	if d := r.Declared.LossRate; d > 0 {
		if r.MeasuredLoss > 2*d+0.01 {
			bad = append(bad, fmt.Sprintf("loss %.4f above declared %.4f", r.MeasuredLoss, d))
		}
	} else if r.MeasuredLoss > 0 {
		bad = append(bad, fmt.Sprintf("loss %.4f on a declared-lossless link", r.MeasuredLoss))
	}
	if len(bad) > 0 {
		return fmt.Errorf("probe %s out of tolerance: %s", r.Link, strings.Join(bad, "; "))
	}
	return nil
}

// Probe measures the link as currently shaped and faulted: bulk
// transfers for bandwidth and loss, small RPCs for round-trip time. It
// rides the normal transfer path, so probe traffic shows up in the
// netem counters like any other traffic. Fails with ErrLinkDown when the
// link is partitioned at probe time.
func (n *Net) Probe(l Link, cfg ProbeConfig) (ProbeResult, error) {
	if err := l.Validate(); err != nil {
		return ProbeResult{}, err
	}
	cfg = cfg.withDefaults()
	eff, ok, err := n.EffectiveLink(l)
	if err != nil {
		return ProbeResult{}, fmt.Errorf("netem: probe %s: %w", l.Name, err)
	}
	if !ok {
		return ProbeResult{}, fmt.Errorf("netem: probe %s: %w", l.Name, ErrLinkDown)
	}
	res := ProbeResult{Link: l.Name, Declared: eff, Transfers: cfg.Transfers}
	var moved float64
	var bulk, rpc time.Duration
	for i := 0; i < cfg.Transfers && err == nil; i++ {
		var tr TransferResult
		if tr, err = n.Transfer(l, cfg.Bytes); err == nil {
			moved += float64(tr.Bytes)
			res.Retransmits += tr.Retransmits
			bulk, err = nanos(float64(bulk)+float64(tr.Duration), l.Name, "probe time")
		}
	}
	for i := 0; i < cfg.RPCs && err == nil; i++ {
		var d time.Duration
		if d, err = n.RTT(l, cfg.RPCBytes, cfg.RPCBytes); err == nil {
			rpc, err = nanos(float64(rpc)+float64(d), l.Name, "probe time")
		}
	}
	if err == nil {
		res.Elapsed, err = nanos(float64(bulk)+float64(rpc), l.Name, "probe time")
	}
	if err != nil {
		return ProbeResult{}, fmt.Errorf("netem: probe %s: %w", l.Name, err)
	}
	if bulk > 0 {
		res.MeasuredBandwidth = moved / bulk.Seconds()
	}
	packets := cfg.Bytes / int64(eff.mtu())
	if packets < 1 {
		packets = 1
	}
	res.MeasuredLoss = float64(res.Retransmits) / float64(packets*int64(cfg.Transfers))
	res.MeasuredRTT = rpc / time.Duration(cfg.RPCs)
	return res, nil
}
