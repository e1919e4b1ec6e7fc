package fed

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/obs"
)

// RoundResult reports one completed FedAvg round.
type RoundResult struct {
	Round        int
	Participants []int // worker indexes whose deltas were aggregated
	Dropped      []int // offline or retry-budget-exhausted this round
	Cut          []int // arrived after the quorum filled (stragglers)
	// Wall is the round's simulated wall-clock under the staleness
	// policy: the slowest aggregated worker's end-to-end time (broadcast
	// + local epochs + upload, including retry backoff). The barrier
	// waits for every live worker; the quorum only for the K fastest.
	Wall           time.Duration
	BroadcastBytes int64
	UploadBytes    int64
	ValLoss        float64
}

// BytesOnWire is the round's total WAN traffic.
func (rr RoundResult) BytesOnWire() int64 { return rr.BroadcastBytes + rr.UploadBytes }

// Result is a whole run.
type Result struct {
	Rounds       []RoundResult
	FinalValLoss float64
	TotalBytes   int64
	// MeanRoundWall averages the per-round simulated wall-clock.
	MeanRoundWall time.Duration
	// Checkpoint names the objstore location of the final global model
	// (empty when checkpointing is disabled).
	CheckpointContainer, CheckpointObject string
}

// instrument pre-registers the fed_* series so scrapes before the first
// round still see them. Everything is nil-safe.
func (r *Run) instrument() {
	reg := r.Obs.Metrics
	reg.Help("fed_rounds_total", "federated rounds completed")
	reg.Help("fed_deltas_applied_total", "worker deltas aggregated into the global model")
	reg.Help("fed_workers_dropped_total", "workers dropped from a round (offline or retry budget exhausted), by reason")
	reg.Help("fed_stragglers_cut_total", "uploads discarded because the quorum had already filled")
	reg.Help("fed_quorum_misses_total", "rounds that aggregated fewer workers than the configured quorum")
	reg.Help("fed_bytes_on_wire_total", "weight-exchange bytes billed over the WAN, by direction")
	reg.Help("fed_round_seconds", "simulated round wall-clock under the staleness policy")
	reg.Help("fed_worker_seconds", "per-worker end-to-end round time (broadcast+train+upload)")
	reg.Help("fed_val_loss", "global-model validation loss after the latest round")
	reg.Help("fed_checkpoints_total", "global checkpoints written to the object store")
	reg.Counter("fed_rounds_total")
	reg.Counter("fed_deltas_applied_total")
	reg.Counter("fed_workers_dropped_total")
	reg.Counter("fed_stragglers_cut_total")
	reg.Counter("fed_quorum_misses_total")
	reg.Counter("fed_checkpoints_total")
}

// wstate is one worker's progress through a round.
type wstate struct {
	w       *Worker
	elapsed time.Duration // end-to-end virtual time this round
	enc     Encoded       // decoded upload the server received
	ok      bool
	reason  string // why the worker is out, when !ok
}

// Execute runs every configured round and returns the run report. The
// global pilot ends holding the final aggregated weights.
func (r *Run) Execute() (Result, error) {
	span := r.Obs.Tracer.Start("fed-train")
	span.SetAttr("workers", r.Cfg.Workers)
	span.SetAttr("rounds", r.Cfg.Rounds)
	span.SetAttr("quorum", r.Cfg.Quorum)
	span.SetAttr("compress", r.Codec.Name())
	var res Result
	var wallSum time.Duration
	for i := 0; i < r.Cfg.Rounds; i++ {
		rr, err := r.round(i, span)
		if err != nil {
			span.EndErr(err)
			return res, err
		}
		res.Rounds = append(res.Rounds, rr)
		res.TotalBytes += rr.BytesOnWire()
		res.FinalValLoss = rr.ValLoss
		wallSum += rr.Wall
		if r.Cfg.RoundGap > 0 {
			r.Clock.Advance(r.Cfg.RoundGap)
		}
	}
	if n := len(res.Rounds); n > 0 {
		res.MeanRoundWall = wallSum / time.Duration(n)
	}
	res.CheckpointContainer, res.CheckpointObject = r.CheckpointAt()
	span.SetAttr("final_val_loss", res.FinalValLoss)
	span.SetAttr("bytes_on_wire", res.TotalBytes)
	span.End()
	return res, nil
}

// round executes one FedAvg round: broadcast (sequential, billed),
// parallel local training, upload (sequential, billed), staleness policy,
// shard-weighted aggregation, checkpoint, validation.
func (r *Run) round(idx int, parent *obs.Span) (RoundResult, error) {
	reg := r.Obs.Metrics
	span := parent.Child("fed-round")
	span.SetAttr("round", idx)
	sc := span.Context()
	defer r.BeginRound(sc)()
	rr := RoundResult{Round: idx, ValLoss: -1}
	states := make([]*wstate, len(r.Workers))
	for i, w := range r.Workers {
		states[i] = &wstate{w: w, ok: true}
	}

	// Broadcast: the server pushes the (possibly down-quantized) global
	// weights to each live worker, one billed WAN transfer each, in
	// worker-index order so netem's seeded draws replay identically. Every
	// worker decodes the same copy, so the fleet stays in lockstep, and
	// every worker keeps that one copy as its base.
	bcastBytes := r.Codec.BroadcastBytes(r.Global.ParamCount())
	globalVals := Snapshot(r.Global)
	for _, t := range globalVals {
		for j, v := range t {
			t[j] = r.Codec.BroadcastValue(v)
		}
	}
	for _, st := range states {
		if r.Out(st.w) {
			r.drop(st, &rr, "offline")
			continue
		}
		bsp := span.Child("fed_broadcast")
		bsp.SetAttr("worker", st.w.Name)
		bsp.SetAttr("bytes", bcastBytes)
		d, err := r.Transfer(bsp.Context(), "fed_broadcast", bcastBytes, r.Cfg.Link)
		if err != nil {
			bsp.EndErr(err)
			if !faults.Retryable(err) {
				span.EndErr(err)
				return rr, err
			}
			r.drop(st, &rr, "link")
			continue
		}
		st.elapsed = d
		bsp.SetSimDuration("broadcast", d)
		bsp.End()
		rr.BroadcastBytes += bcastBytes
		reg.Counter("fed_bytes_on_wire_total", obs.L("dir", "broadcast")).Add(float64(bcastBytes))
		if err := st.w.Start(globalVals); err != nil {
			span.EndErr(err)
			return rr, err
		}
	}

	// Local training: every broadcast-reachable worker runs its local
	// epochs, or under SyntheticLocal a seeded pseudo-delta that lets 10k
	// workers exercise the full coordination path (broadcast, residuals,
	// upload, aggregation) without 10k real training loops.
	var trainees []*Worker
	for _, st := range states {
		if st.ok {
			trainees = append(trainees, st.w)
		}
	}
	costs, err := r.Train(span, idx, trainees, func(w *Worker) error {
		if r.Cfg.SyntheticLocal {
			syntheticTrain(w, r.Cfg.Seed, idx)
			return nil
		}
		return r.SGD(w, idx)
	})
	if err != nil {
		span.EndErr(err)
		return rr, err
	}
	for i, st := range states {
		st.elapsed += costs[i]
	}

	// Upload: each worker exports delta = local - base, compresses it,
	// and ships it — under Hierarchical to its regional aggregator over
	// the region link, otherwise straight to the parameter server over the
	// WAN. The retry policy turns outages into backoff, and an exhausted
	// budget drops the worker instead of stalling the barrier.
	uplink := r.Cfg.Link
	updir := "upload"
	if r.Cfg.Hierarchical {
		uplink = r.Cfg.RegionLink
		updir = "region" // edge->aggregator traffic; WAN bytes are the partials
	}
	uploadArrival := make([]time.Duration, len(states))
	uploadDur := make([]time.Duration, len(states))
	for _, st := range states {
		if !st.ok {
			continue
		}
		// A worker whose daemon went silent during training was swept out
		// of the fleet; it has nothing trustworthy to upload this round.
		if r.Out(st.w) {
			r.drop(st, &rr, "offline")
			continue
		}
		if st.enc, err = r.Export(st.w, 1); err != nil {
			span.EndErr(err)
			return rr, err
		}
		usp := span.Child("fed_upload")
		usp.SetAttr("worker", st.w.Name)
		usp.SetAttr("bytes", st.enc.WireBytes)
		d, err := r.Transfer(usp.Context(), "fed_upload", st.enc.WireBytes, uplink)
		uploadArrival[st.w.Idx] = st.elapsed
		uploadDur[st.w.Idx] = d
		st.elapsed += d
		if err != nil {
			usp.EndErr(err)
			if !faults.Retryable(err) {
				span.EndErr(err)
				return rr, err
			}
			r.drop(st, &rr, "link")
			continue
		}
		usp.SetSimDuration("upload", d)
		usp.End()
		if !r.Cfg.Hierarchical {
			rr.UploadBytes += st.enc.WireBytes
		}
		reg.Counter("fed_bytes_on_wire_total", obs.L("dir", updir)).Add(float64(st.enc.WireBytes))
		// The upload itself advances the clock, so the sweep can evict a
		// worker while its own transfer is in flight; that upload does not
		// count either.
		if r.Out(st.w) {
			r.drop(st, &rr, "offline")
		}
	}

	// Ingress serialization: re-time each surviving upload through its
	// receiver's occupancy queue, in arrival order (ties to the lower
	// worker index). Flat mode funnels everything through the one cloud
	// ingress; Hierarchical drains one queue per regional aggregator in
	// parallel.
	if r.Cfg.IngressSerial {
		var survivors []*wstate
		for _, st := range states {
			if st.ok {
				survivors = append(survivors, st)
			}
		}
		sort.Slice(survivors, func(a, b int) bool {
			if uploadArrival[survivors[a].w.Idx] != uploadArrival[survivors[b].w.Idx] {
				return uploadArrival[survivors[a].w.Idx] < uploadArrival[survivors[b].w.Idx]
			}
			return survivors[a].w.Idx < survivors[b].w.Idx
		})
		queues := make([]netem.IngressQueue, r.Cfg.regions())
		var cloud netem.IngressQueue
		for _, st := range survivors {
			q := &cloud
			if r.Cfg.Hierarchical {
				q = &queues[r.Cfg.regionOf(st.w.Idx)]
			}
			st.elapsed = q.Admit(uploadArrival[st.w.Idx], uploadDur[st.w.Idx])
		}
	}

	// Staleness policy: the barrier takes every survivor; the quorum
	// takes the K fastest and cuts the rest.
	var arrived []*wstate
	for _, st := range states {
		if st.ok {
			arrived = append(arrived, st)
			// Histogram labels must stay bounded at fleet scale: workers
			// land in one of numShards shard buckets, never a per-worker
			// series (the cardinality lint rejects unbounded label values).
			reg.Histogram("fed_worker_seconds", obs.DefSecondsBuckets,
				obs.L("shard", workerShard(st.w.Idx))).ObserveDurationExemplar(st.elapsed, span.Context().TraceID)
		}
	}
	sort.Slice(arrived, func(a, b int) bool {
		if arrived[a].elapsed != arrived[b].elapsed {
			return arrived[a].elapsed < arrived[b].elapsed
		}
		return arrived[a].w.Idx < arrived[b].w.Idx
	})
	selected := arrived
	if !r.Cfg.sync() {
		if len(arrived) < r.Cfg.Quorum {
			reg.Counter("fed_quorum_misses_total").Inc()
		} else {
			selected = arrived[:r.Cfg.Quorum]
			for _, st := range arrived[r.Cfg.Quorum:] {
				// A cut straggler stays in the fleet; its update is deferred
				// into the residual, not discarded (unlike a drop).
				st.w.reclaimResidual(st.enc)
				rr.Cut = append(rr.Cut, st.w.Idx)
			}
			reg.Counter("fed_stragglers_cut_total").Add(float64(len(rr.Cut)))
		}
	}

	// Hierarchical: each region pre-reduces its selected members and ships
	// one dense partial across the WAN; a failed partial drops the region.
	var regionWall time.Duration
	if r.Cfg.Hierarchical && len(selected) > 0 {
		var err error
		selected, regionWall, err = r.shipRegionPartials(span, &rr, selected)
		if err != nil {
			span.EndErr(err)
			return rr, err
		}
	}

	for _, st := range selected {
		rr.Participants = append(rr.Participants, st.w.Idx)
		if st.elapsed > rr.Wall {
			rr.Wall = st.elapsed
		}
	}
	if regionWall > rr.Wall {
		rr.Wall = regionWall
	}
	// Dropped accumulates un-sorted during the round (see drop); order it
	// once here with the other index lists.
	sort.Ints(rr.Dropped)
	sort.Ints(rr.Participants)
	sort.Ints(rr.Cut)

	// Aggregate: global += sum_i (n_i / n_total) * delta_i, accumulated
	// in worker-index order so the float sums replay bit-for-bit.
	if len(selected) > 0 {
		asp := span.Child("fed_aggregate")
		asp.SetAttr("participants", len(selected))
		if err := r.aggregate(selected); err != nil {
			asp.EndErr(err)
			span.EndErr(err)
			return rr, err
		}
		asp.End()
		reg.Counter("fed_deltas_applied_total").Add(float64(len(selected)))
	}

	if err := r.Checkpoint(idx, span, r.Global); err != nil {
		span.EndErr(err)
		return rr, err
	}
	if len(r.val) > 0 {
		vsp := span.Child("fed_validate")
		vl, err := r.Global.Validate(r.val, r.Cfg.BatchSize)
		if err != nil {
			vsp.EndErr(err)
			span.EndErr(err)
			return rr, err
		}
		vsp.SetAttr("val_loss", vl)
		vsp.End()
		rr.ValLoss = vl
		reg.Gauge("fed_val_loss").Set(vl)
	}
	if err := r.AfterRound(idx, sc); err != nil {
		span.EndErr(err)
		return rr, err
	}

	reg.Counter("fed_rounds_total").Inc()
	reg.Histogram("fed_round_seconds", obs.DefSecondsBuckets).
		ObserveDurationExemplar(rr.Wall, span.Context().TraceID)
	span.SetAttr("participants", len(rr.Participants))
	span.SetAttr("dropped", len(rr.Dropped))
	span.SetAttr("cut", len(rr.Cut))
	span.SetAttr("bytes_on_wire", rr.BytesOnWire())
	span.SetSimDuration("round_wall", rr.Wall)
	span.End()
	return rr, nil
}

// drop records a worker leaving the current round and clears its
// residual (a cut straggler, by contrast, stays connected and keeps its
// deferred update). rr.Dropped is sorted once at the end of the round,
// not here — re-sorting on every drop made a mass eviction quadratic at
// fleet scale.
func (r *Run) drop(st *wstate, rr *RoundResult, reason string) {
	st.ok = false
	st.reason = reason
	st.w.clearResidual()
	rr.Dropped = append(rr.Dropped, st.w.Idx)
	r.Obs.Metrics.Counter("fed_workers_dropped_total").Inc()
	r.Obs.Metrics.Counter("fed_workers_dropped_total", obs.L("reason", reason)).Inc()
}

// workerShard maps a worker index to its bounded metrics-label bucket.
func workerShard(idx int) string { return fmt.Sprintf("s%02d", idx%numShards) }

// syntheticTrain perturbs the worker's local weights with a deterministic
// pseudo-update, a stand-in for SGD when Cfg.SyntheticLocal is set. Every
// element's perturbation depends only on (seed, round, worker, tensor,
// element), so same-seed fleets of any size replay bit-for-bit.
func syntheticTrain(w *Worker, seed int64, round int) {
	for ti, p := range w.params {
		for j := range p.W.Data {
			p.W.Data[j] += 1e-3 * synthVal(seed, round, w.Idx, ti, j)
		}
	}
}

// synthVal hashes the coordinate tuple through a splitmix64 finalizer and
// maps it to [-1, 1).
func synthVal(seed int64, round, workerIdx, tensor, elem int) float64 {
	x := uint64(seed)
	x ^= uint64(round) * 0x9e3779b97f4a7c15
	x ^= uint64(workerIdx) * 0xbf58476d1ce4e5b9
	x ^= uint64(tensor) * 0x94d049bb133111eb
	x ^= uint64(elem) * 0x2545f4914f6cdd1d
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<52) - 1
}

// aggregate applies the shard-weighted FedAvg update to the global model
// with one canonical blocked reduction, shared by the flat and
// hierarchical modes: selected workers are grouped into their regions
// (contiguous index blocks), each region's weighted contributions are
// accumulated into its own partial in worker-index order, and the
// partials are merged into the update in region order. Because both modes
// run exactly this arithmetic — Hierarchical only parallelizes the
// per-region accumulation into disjoint buffers — the global weights are
// bit-identical for the same participant set, by construction rather than
// by hoping float addition associates.
func (r *Run) aggregate(selected []*wstate) error {
	byIdx := append([]*wstate(nil), selected...)
	sort.Slice(byIdx, func(a, b int) bool { return byIdx[a].w.Idx < byIdx[b].w.Idx })
	total := 0
	for _, st := range byIdx {
		total += len(st.w.shard)
	}
	params := r.Global.Model().Params()
	nRegions := r.Cfg.regions()
	byRegion := make([][]*wstate, nRegions)
	for _, st := range byIdx {
		reg := r.Cfg.regionOf(st.w.Idx)
		byRegion[reg] = append(byRegion[reg], st)
	}
	partials := make([]*nn.WeightDelta, nRegions)
	reduce := func(reg int) {
		members := byRegion[reg]
		if len(members) == 0 {
			return
		}
		partial := &nn.WeightDelta{Tensors: make([]*nn.Tensor, len(params))}
		for i, p := range params {
			partial.Tensors[i] = nn.NewTensor(p.W.Shape...)
		}
		for _, st := range members {
			weight := float64(len(st.w.shard)) / float64(total)
			for i, t := range st.enc.Values {
				dst := partial.Tensors[i].Data
				for j, v := range t {
					dst[j] += weight * v
				}
			}
		}
		partials[reg] = partial
	}
	if r.Cfg.Hierarchical {
		// Regional aggregators reduce concurrently into disjoint buffers;
		// the merge below stays in region order, so scheduling cannot
		// change a single bit of the result.
		var wg sync.WaitGroup
		for reg := 0; reg < nRegions; reg++ {
			wg.Add(1)
			go func(reg int) {
				defer wg.Done()
				reduce(reg)
			}(reg)
		}
		wg.Wait()
	} else {
		for reg := 0; reg < nRegions; reg++ {
			reduce(reg)
		}
	}
	avg := &nn.WeightDelta{Tensors: make([]*nn.Tensor, len(params))}
	for i, p := range params {
		avg.Tensors[i] = nn.NewTensor(p.W.Shape...)
	}
	for reg := 0; reg < nRegions; reg++ {
		if partials[reg] == nil {
			continue
		}
		for i, t := range partials[reg].Tensors {
			dst := avg.Tensors[i].Data
			for j, v := range t.Data {
				dst[j] += v
			}
		}
	}
	return nn.ApplyDelta(r.Global.Model(), avg)
}
