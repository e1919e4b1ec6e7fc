package gossip

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/pilot"
)

// RoundResult reports one completed gossip round.
type RoundResult struct {
	Round   int
	Trained []int // workers that produced a parcel this round
	Offline []int // workers out of this round, at its start or mid-round (fed.Fleet.Out)
	// Exchanges counts completed push-pull exchanges (peer and head);
	// FailedExchanges those aborted by link faults after retry
	// exhaustion; Unreachable the partner picks that were offline.
	Exchanges       int
	FailedExchanges int
	Unreachable     int
	// ParcelsMoved is how many parcel replicas crossed a link.
	ParcelsMoved int
	DigestBytes  int64
	ParcelBytes  int64
	// HeadSynced reports whether this round's cloud-head sync completed
	// (false under a cloud partition — the mesh carries on without it).
	HeadSynced bool
	// Wall is the round's simulated wall-clock: the slowest worker's
	// training plus every sequentially billed exchange.
	Wall time.Duration
	// FleetValLoss scores the union of every worker's parcels — the
	// "fleet head version" a rejoining peer anti-entropies toward.
	// HeadValLoss scores the cloud head's (possibly stale) replica.
	FleetValLoss float64
	HeadValLoss  float64
	// ConvergenceLag is the worst reachable worker's distance behind the
	// fleet, in rounds: 0 means every reachable worker holds every parcel
	// every round has produced.
	ConvergenceLag int
}

// BytesOnWire is the round's total billed traffic, digests plus parcels.
func (rr RoundResult) BytesOnWire() int64 { return rr.DigestBytes + rr.ParcelBytes }

// Result is a whole run.
type Result struct {
	Rounds            []RoundResult
	FinalFleetValLoss float64
	FinalHeadValLoss  float64
	TotalBytes        int64
	MeanRoundWall     time.Duration
	// HeadSyncs counts rounds whose cloud sync completed.
	HeadSyncs int
	// Checkpoint names the objstore location of the head's model (empty
	// when checkpointing is disabled).
	CheckpointContainer, CheckpointObject string
}

// instrument pre-registers the gossip_* series so scrapes before the
// first round still see them. Everything is nil-safe.
func (r *Run) instrument() {
	reg := r.Obs.Metrics
	reg.Help("gossip_rounds_total", "gossip rounds completed")
	reg.Help("gossip_parcels_total", "parcel replicas moved between stores, by direction")
	reg.Help("gossip_exchanges_total", "push-pull exchanges completed")
	reg.Help("gossip_exchange_failures_total", "exchanges aborted, by reason (link faults, unreachable partner)")
	reg.Help("gossip_bytes_on_wire_total", "gossip traffic billed over the links, by payload kind and wire")
	reg.Help("gossip_round_seconds", "simulated round wall-clock (training plus sequential exchanges)")
	reg.Help("gossip_fleet_val_loss", "validation loss of the fleet-union model after the latest round")
	reg.Help("gossip_head_val_loss", "validation loss of the cloud head's replica after the latest round")
	reg.Help("gossip_convergence_lag_rounds", "worst reachable worker's lag behind the fleet, in rounds")
	reg.Help("gossip_head_syncs_total", "cloud-head syncs completed")
	reg.Help("gossip_head_sync_skipped_total", "cloud-head syncs skipped (link faults exhausted the retry budget)")
	reg.Help("gossip_checkpoints_total", "head checkpoints written to the object store")
	reg.Help("gossip_table_rejections_total", "peer-table insertions refused (self, duplicate, or full bucket)")
	reg.Counter("gossip_rounds_total")
	reg.Counter("gossip_exchanges_total")
	reg.Counter("gossip_head_syncs_total")
	reg.Counter("gossip_head_sync_skipped_total")
	reg.Counter("gossip_checkpoints_total")
	var rejected float64
	for _, w := range r.workers {
		rejected += float64(w.table.Rejected())
	}
	reg.Counter("gossip_table_rejections_total").Add(rejected)
}

// Execute runs every configured round and returns the run report.
func (r *Run) Execute() (Result, error) {
	span := r.Obs.Tracer.Start("gossip-train")
	span.SetAttr("workers", r.Cfg.Workers)
	span.SetAttr("rounds", r.Cfg.Rounds)
	span.SetAttr("fanout", r.Cfg.fanout())
	span.SetAttr("anti_entropy_every", r.Cfg.antiEntropyEvery())
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
		res.FinalFleetValLoss = rr.FleetValLoss
		res.FinalHeadValLoss = rr.HeadValLoss
		if rr.HeadSynced {
			res.HeadSyncs++
		}
		wallSum += rr.Wall
		if r.Cfg.RoundGap > 0 {
			r.Clock.Advance(r.Cfg.RoundGap)
		}
	}
	if n := len(res.Rounds); n > 0 {
		res.MeanRoundWall = wallSum / time.Duration(n)
	}
	res.CheckpointContainer, res.CheckpointObject = r.CheckpointAt()
	span.SetAttr("final_fleet_val_loss", res.FinalFleetValLoss)
	span.SetAttr("bytes_on_wire", res.TotalBytes)
	span.End()
	return res, nil
}

// round executes one gossip round: parallel local training on each
// worker's store-rebuilt base, parcel production, sequential push-pull
// exchanges in worker-index order, the cloud-head sync, checkpointing,
// and validation of both the fleet union and the head replica.
func (r *Run) round(idx int, parent *obs.Span) (RoundResult, error) {
	reg := r.Obs.Metrics
	span := parent.Child("gossip-round")
	span.SetAttr("round", idx)
	sc := span.Context()
	defer r.BeginRound(sc)()
	rr := RoundResult{Round: idx, FleetValLoss: -1, HeadValLoss: -1}
	wallStart := r.Clock.Now()

	// Churn: a worker out when the round begins sits it out entirely; its
	// store survives for anti-entropy once it re-onboards. Every reachable
	// trainer rebuilds its base from its parcel store (genesis + parcels
	// in canonical order), starts its trainable model from it, and runs
	// its epochs.
	var trainees []*fed.Worker
	for _, w := range r.workers {
		w.offline = false
		if !r.out(w, &rr) && !w.freeRider {
			trainees = append(trainees, w.Worker)
		}
	}
	if _, err := r.Train(span, idx, trainees, func(fw *fed.Worker) error {
		base, err := r.rebuild(r.workers[fw.Idx].store)
		if err != nil {
			return err
		}
		if err := fw.Start(base); err != nil {
			return err
		}
		return r.SGD(fw, idx)
	}); err != nil {
		span.EndErr(err)
		return rr, err
	}

	// Parcel production: delta = local - base, scaled by the worker's
	// shard weight, encoded once through the codec (error feedback stays
	// at the origin), filed into the origin's own store. Every replica of
	// this parcel anywhere in the fleet carries these exact values.
	var produced []Key
	for _, fw := range trainees {
		w := r.workers[fw.Idx]
		enc, err := r.Export(fw, w.weight)
		if err != nil {
			span.EndErr(err)
			return rr, err
		}
		p := &Parcel{Origin: w.Idx, Round: idx, WireBytes: enc.WireBytes, Values: enc.Values}
		if err := p.Validate(); err != nil {
			span.EndErr(err)
			return rr, err
		}
		w.store.Put(p)
		produced = append(produced, p.Key())
		rr.Trained = append(rr.Trained, w.Idx)
	}
	r.produced = append(r.produced, produced)

	// Exchange phase: each reachable worker initiates, in index order so
	// netem's seeded draws replay identically. Partner selection walks
	// the Kademlia table nearest-bucket-first on a per-(round, worker)
	// seeded stream; on anti-entropy rounds one extra partner comes from
	// the farthest occupied bucket. Exchanges are push-pull, so parcels
	// received early in the phase spread second-hand later in the same
	// phase.
	antiEntropy := r.Cfg.antiEntropyEvery() > 0 && (idx+1)%r.Cfg.antiEntropyEvery() == 0
	byName := make(map[string]*worker, len(r.workers))
	for _, w := range r.workers {
		byName[w.Name] = w
	}
	for _, w := range r.workers {
		rng := rand.New(rand.NewSource(r.Cfg.Seed ^ (int64(idx)*1000003 + int64(w.Idx)*7919 + 1)))
		partners := w.table.Select(rng, r.Cfg.fanout())
		if antiEntropy {
			if far, ok := w.table.Farthest(rng); ok {
				partners = append(partners, far)
			}
		}
		seen := map[string]bool{}
		for _, p := range partners {
			// A sweep may evict either end mid-phase.
			if r.out(w, &rr) {
				break
			}
			if seen[p.Name] {
				continue
			}
			seen[p.Name] = true
			peer := byName[p.Name]
			link, err := r.mesh.Link(w.Name, peer.Name)
			if err != nil {
				span.EndErr(err)
				return rr, err
			}
			if r.out(peer, &rr) {
				// The dial times out: bill one empty-digest probe, record
				// the dead partner, move on.
				psp := span.Child("gossip_probe")
				psp.SetAttr("initiator", w.Name)
				psp.SetAttr("peer", peer.Name)
				d, err := r.Transfer(psp.Context(), "gossip_probe", DigestBytes(0), link)
				if err != nil && !faults.Retryable(err) {
					psp.EndErr(err)
					span.EndErr(err)
					return rr, err
				}
				psp.SetSimDuration("probe", d)
				psp.End()
				rr.Unreachable++
				reg.Counter("gossip_exchange_failures_total", obs.L("reason", "unreachable")).Inc()
				continue
			}
			xs, failed, err := r.exchange(span, exchangeKind(antiEntropy, w, p), "peer", w.Name, peer.Name, w.store, peer.store, link)
			if err != nil {
				span.EndErr(err)
				return rr, err
			}
			rr.DigestBytes += xs.digestBytes
			rr.ParcelBytes += xs.parcelBytes
			rr.ParcelsMoved += xs.moved
			if failed {
				rr.FailedExchanges++
				continue
			}
			rr.Exchanges++
			reg.Counter("gossip_exchanges_total").Inc()
		}
	}

	// Cloud-head sync: one rotating contact per round carries the mesh's
	// news across the WAN (and pulls anything the head has that the
	// contact missed). Under a cloud partition the retry budget exhausts
	// and the round simply proceeds headless.
	if contact := r.headContact(idx, &rr); contact != nil {
		xs, failed, err := r.exchange(span, "head_sync", "head", contact.Name, HeadName, contact.store, r.head.store, r.Cfg.CloudLink)
		if err != nil {
			span.EndErr(err)
			return rr, err
		}
		rr.DigestBytes += xs.digestBytes
		rr.ParcelBytes += xs.parcelBytes
		rr.ParcelsMoved += xs.moved
		if failed {
			reg.Counter("gossip_head_sync_skipped_total").Inc()
		} else {
			rr.HeadSynced = true
			reg.Counter("gossip_head_syncs_total").Inc()
			if xs.moved > 0 {
				r.head.dirty = true
			}
		}
	}

	// Checkpoint: only when the head actually learned something new —
	// a stale head rewriting the same bytes during a partition would be
	// noise, and during a full partition it cannot write at all.
	if r.head.dirty {
		if _, err := r.rebuild(r.head.store, r.head.model); err != nil {
			span.EndErr(err)
			return rr, err
		}
		r.head.dirty = false
		if err := r.Checkpoint(idx, span, r.head.model); err != nil {
			span.EndErr(err)
			return rr, err
		}
	}

	// Convergence lag: how far the worst reachable worker trails the
	// fleet's produced-parcel history. Stores are grow-only, so each
	// worker's caught-up watermark only moves forward.
	for _, w := range r.workers {
		for w.caughtUp <= idx && w.store.HasAll(r.produced[w.caughtUp]) {
			w.caughtUp++
		}
		if w.offline {
			continue
		}
		if lag := (idx + 1) - w.caughtUp; lag > rr.ConvergenceLag {
			rr.ConvergenceLag = lag
		}
	}
	reg.Gauge("gossip_convergence_lag_rounds").Set(float64(rr.ConvergenceLag))

	// Validation: the fleet union is what a rejoining peer converges to;
	// the head replica is what the cloud would serve.
	if len(r.val) > 0 {
		union := NewStore()
		for _, w := range r.workers {
			for _, k := range w.store.Keys() {
				if !union.Has(k) {
					union.Put(w.store.Get(k))
				}
			}
		}
		vsp := span.Child("gossip_validate")
		if _, err := r.rebuild(union, r.union); err != nil {
			vsp.EndErr(err)
			span.EndErr(err)
			return rr, err
		}
		fl, err := r.union.Validate(r.val, r.Cfg.BatchSize)
		if err != nil {
			vsp.EndErr(err)
			span.EndErr(err)
			return rr, err
		}
		rr.FleetValLoss = fl
		reg.Gauge("gossip_fleet_val_loss").Set(fl)
		hl, err := r.head.model.Validate(r.val, r.Cfg.BatchSize)
		if err != nil {
			vsp.EndErr(err)
			span.EndErr(err)
			return rr, err
		}
		rr.HeadValLoss = hl
		reg.Gauge("gossip_head_val_loss").Set(hl)
		vsp.SetAttr("fleet_val_loss", fl)
		vsp.SetAttr("head_val_loss", hl)
		vsp.End()
	}
	if err := r.AfterRound(idx, sc); err != nil {
		span.EndErr(err)
		return rr, err
	}

	sort.Ints(rr.Trained)
	sort.Ints(rr.Offline)
	rr.Wall = r.Clock.Now().Sub(wallStart)
	reg.Counter("gossip_rounds_total").Inc()
	reg.Histogram("gossip_round_seconds", obs.DefSecondsBuckets).
		ObserveDurationExemplar(rr.Wall, span.Context().TraceID)
	span.SetAttr("trained", len(rr.Trained))
	span.SetAttr("offline", len(rr.Offline))
	span.SetAttr("exchanges", rr.Exchanges)
	span.SetAttr("parcels_moved", rr.ParcelsMoved)
	span.SetAttr("bytes_on_wire", rr.BytesOnWire())
	span.SetAttr("convergence_lag", rr.ConvergenceLag)
	span.SetAttr("head_synced", rr.HeadSynced)
	span.SetSimDuration("round_wall", rr.Wall)
	span.End()
	return rr, nil
}

// exchangeKind labels a peer exchange span for the trace.
func exchangeKind(antiEntropy bool, w *worker, p Peer) string {
	if antiEntropy && w.table.BucketOf(p.Name) == farthestBucket(w.table) {
		return "anti_entropy"
	}
	return "gossip"
}

// farthestBucket is the highest occupied bucket index, or -1.
func farthestBucket(t *Table) int {
	for i := 63; i >= 0; i-- {
		if len(t.Bucket(i)) > 0 {
			return i
		}
	}
	return -1
}

// headContact picks the round's cloud-sync contact: the first reachable
// worker at or after index round%N (rotating duty, so no single worker
// pays the WAN bill every round). nil when the whole fleet is out.
func (r *Run) headContact(round int, rr *RoundResult) *worker {
	for off := range r.workers {
		if w := r.workers[(round+off)%len(r.workers)]; !r.out(w, rr) {
			return w
		}
	}
	return nil
}

// out applies the fleet's liveness rule; w stays offline for the round.
func (r *Run) out(w *worker, rr *RoundResult) bool {
	if !w.offline && r.Out(w.Worker) {
		w.offline = true
		rr.Offline = append(rr.Offline, w.Idx)
	}
	return w.offline
}

// xferStats accumulates one exchange's billing.
type xferStats struct {
	digestBytes int64
	parcelBytes int64
	moved       int
	dur         time.Duration
}

// exchange runs one push-pull anti-entropy session between two stores
// over link: swap digests, pull what a is missing, push what b is
// missing, applying parcels to both replicas immediately. failed=true
// means link faults exhausted the retry budget mid-exchange (whatever
// transferred before the failure stays applied — gossip is idempotent,
// the next exchange finishes the job); a non-nil error is fatal.
func (r *Run) exchange(parent *obs.Span, kind, wire, initiator, peerName string, a, b *Store, link netem.Link) (xferStats, bool, error) {
	reg := r.Obs.Metrics
	var xs xferStats
	sp := parent.Child("gossip_exchange")
	sp.SetAttr("kind", kind)
	sp.SetAttr("initiator", initiator)
	sp.SetAttr("peer", peerName)
	digestBytes := DigestBytes(a.Len()) + DigestBytes(b.Len())
	d, err := r.Transfer(sp.Context(), "gossip_digest", digestBytes, link)
	xs.dur += d
	if err != nil {
		if !faults.Retryable(err) {
			sp.EndErr(err)
			return xs, false, err
		}
		reg.Counter("gossip_exchange_failures_total", obs.L("reason", "link")).Inc()
		sp.SetAttr("failed", true)
		sp.EndErr(err)
		return xs, true, nil
	}
	xs.digestBytes += digestBytes
	reg.Counter("gossip_bytes_on_wire_total", obs.L("kind", "digest"), obs.L("wire", wire)).Add(float64(digestBytes))

	aKeys, bKeys := a.Keys(), b.Keys()
	legs := []struct {
		dir      string
		keys     []Key
		src, dst *Store
	}{
		{"pull", a.Missing(bKeys), b, a},
		{"push", b.Missing(aKeys), a, b},
	}
	for _, leg := range legs {
		if len(leg.keys) == 0 {
			continue
		}
		var size int64
		for _, k := range leg.keys {
			size += leg.src.Get(k).WireBytes
		}
		psp := sp.Child("gossip_parcels")
		psp.SetAttr("dir", leg.dir)
		psp.SetAttr("parcels", len(leg.keys))
		psp.SetAttr("bytes", size)
		d, err := r.Transfer(psp.Context(), "gossip_parcel", size, link)
		xs.dur += d
		if err != nil {
			psp.EndErr(err)
			if !faults.Retryable(err) {
				sp.EndErr(err)
				return xs, false, err
			}
			reg.Counter("gossip_exchange_failures_total", obs.L("reason", "link")).Inc()
			sp.SetAttr("failed", true)
			sp.End()
			return xs, true, nil
		}
		psp.SetSimDuration(leg.dir, d)
		psp.End()
		for _, k := range leg.keys {
			leg.dst.Put(leg.src.Get(k))
		}
		xs.parcelBytes += size
		xs.moved += len(leg.keys)
		reg.Counter("gossip_bytes_on_wire_total", obs.L("kind", "parcel"), obs.L("wire", wire)).Add(float64(size))
		reg.Counter("gossip_parcels_total", obs.L("dir", leg.dir)).Add(float64(len(leg.keys)))
	}
	sp.SetAttr("parcels_moved", xs.moved)
	sp.SetSimDuration("exchange", xs.dur)
	sp.End()
	return xs, false, nil
}

// rebuild computes genesis plus every parcel in the store, added in
// canonical (round, origin) order — the pure function of the parcel set
// that makes any two same-set replicas bit-identical — installs the
// weights into every given pilot, and returns them.
func (r *Run) rebuild(s *Store, into ...*pilot.Pilot) ([][]float64, error) {
	vals := make([][]float64, len(r.initVals))
	for i, init := range r.initVals {
		vals[i] = append([]float64(nil), init...)
	}
	for _, k := range s.keys {
		pc := s.parcels[k]
		if len(pc.Values) != len(vals) {
			return nil, fmt.Errorf("gossip: parcel %d/%d has %d tensors, model %d",
				pc.Origin, pc.Round, len(pc.Values), len(vals))
		}
		for i, t := range pc.Values {
			dst := vals[i]
			if len(t) != len(dst) {
				return nil, fmt.Errorf("gossip: parcel %d/%d tensor %d has %d entries, param %d",
					pc.Origin, pc.Round, i, len(t), len(dst))
			}
			for j, v := range t {
				dst[j] += v
			}
		}
	}
	return vals, fed.Install(vals, into...)
}
