package fed

import (
	"math"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/obs"
)

// This file holds the hierarchical-aggregation topology: the edge →
// regional aggregator → cloud parameter server hierarchy the
// edge-to-cloud-continuum surveys describe as the architecture that keeps
// fleet-scale learning tractable. Workers are assigned to regions in
// contiguous index blocks; each region pre-reduces its members' weighted
// contributions and ships one dense partial across the WAN. The reduction
// arithmetic itself lives in aggregate (round.go) and is shared with the
// flat mode, which is what makes the two modes bit-identical for the same
// participant set.

// numShards mirrors the edge registry stripe count: worker-level metric
// labels bucket into this many values so fleet size never grows a label's
// value set.
const numShards = 16

// regions is the effective regional-aggregator count: Cfg.Regions when
// set, else ceil(sqrt(Workers)) — the fan-in that minimizes the per-round
// coordination cost N/R + R — clamped to [1, Workers].
func (c Config) regions() int {
	r := c.Regions
	if r == 0 {
		r = int(math.Ceil(math.Sqrt(float64(c.Workers))))
	}
	if r > c.Workers {
		r = c.Workers
	}
	if r < 1 {
		r = 1
	}
	return r
}

// EffectiveRegions reports the regional-aggregator count the run will use
// (callers print it; the reduction itself uses the unexported form).
func (c Config) EffectiveRegions() int { return c.regions() }

// regionOf maps a worker index to its region: contiguous blocks, balanced
// to within one worker, depending only on (idx, Workers, regions) — never
// on the participant set — so flat and hierarchical aggregation group
// identically no matter who dropped out of a round.
func (c Config) regionOf(idx int) int {
	return idx * c.regions() / c.Workers
}

// shipRegionPartials bills the aggregator→cloud leg of a hierarchical
// round: each region holding selected workers sends one dense float64
// partial (8 bytes per model parameter) over the WAN, serialized through
// the cloud ingress when IngressSerial is set. A partial arrives once the
// region's slowest selected member has finished uploading to it. A
// retryable failure (outage outlasting the retry budget) drops the whole
// region's members from the round; the trimmed selection, the latest
// partial completion, and any hard error are returned.
func (r *Run) shipRegionPartials(span *obs.Span, rr *RoundResult, selected []*wstate) ([]*wstate, time.Duration, error) {
	nRegions := r.Cfg.regions()
	byRegion := make([][]*wstate, nRegions)
	for _, st := range selected {
		reg := r.Cfg.regionOf(st.w.Idx)
		byRegion[reg] = append(byRegion[reg], st)
	}
	partialBytes := int64(8 * r.Global.ParamCount())
	var cloud netem.IngressQueue
	var wall time.Duration
	kept := selected[:0]
	for reg := 0; reg < nRegions; reg++ {
		members := byRegion[reg]
		if len(members) == 0 {
			continue
		}
		var arrival time.Duration
		for _, st := range members {
			if st.elapsed > arrival {
				arrival = st.elapsed
			}
		}
		rsp := span.Child("fed_region_upload")
		rsp.SetAttr("region", reg)
		rsp.SetAttr("members", len(members))
		rsp.SetAttr("bytes", partialBytes)
		d, err := r.Transfer(rsp.Context(), "fed_upload", partialBytes, r.Cfg.Link)
		if err != nil {
			rsp.EndErr(err)
			if !faults.Retryable(err) {
				return nil, 0, err
			}
			for _, st := range members {
				r.drop(st, rr, "link")
			}
			continue
		}
		completion := arrival + d
		if r.Cfg.IngressSerial {
			completion = cloud.Admit(arrival, d)
		}
		rsp.SetSimDuration("partial_upload", d)
		rsp.End()
		rr.UploadBytes += partialBytes
		r.Obs.Metrics.Counter("fed_bytes_on_wire_total", obs.L("dir", "upload")).Add(float64(partialBytes))
		if completion > wall {
			wall = completion
		}
		kept = append(kept, members...)
	}
	return kept, wall, nil
}
