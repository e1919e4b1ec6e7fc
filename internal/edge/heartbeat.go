package edge

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/faults"
)

// This file models the device daemon's heartbeat: connected devices check
// in periodically; a device that misses its window is marked offline and
// its container is reaped — the failure mode classes hit when a car's
// battery dies mid-session. Play replays a fault plan's scripted silences
// into that loop on the plan's virtual clock.

// HeartbeatWindow is how long a connected device may stay silent before
// the control plane declares it offline: a device silent for
// HeartbeatWindow *or longer* at sweep time is evicted. The boundary is
// inclusive — "may stay silent" ends the instant the full window has
// elapsed, so a sweep landing exactly HeartbeatWindow after the last
// check-in takes the device offline.
const HeartbeatWindow = 90 * time.Second

// Heartbeat records a check-in from the device's daemon at virtual time
// now.
func (h *Hub) Heartbeat(deviceID string, now time.Time) error {
	sh := h.devShard(deviceID)
	sh.mu.Lock()
	d, ok := sh.devices[deviceID]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoDevice, deviceID)
	}
	if d.Status != StatusConnected {
		status := d.Status
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotConnected, deviceID, status)
	}
	sh.lastSeen[deviceID] = now
	sh.mu.Unlock()
	h.reg().Counter("edge_heartbeats_total").Inc()
	return nil
}

// SweepHeartbeats marks devices silent for HeartbeatWindow or longer as
// offline and reaps their containers, returning the IDs of devices taken
// offline (sorted across all shards, so eviction order is deterministic
// regardless of shard layout or map iteration).
//
// First-sweep grace: a connected device that has never heartbeated since
// connecting has no lastSeen entry, so the sweep cannot tell how long it
// has been silent. Rather than evicting on suspicion, the sweep stamps
// lastSeen with its own time — the device then has one full
// HeartbeatWindow from this first observation before a later sweep may
// evict it. (Boot and eviction clear lastSeen, so every connected spell
// re-arms the grace.)
func (h *Hub) SweepHeartbeats(now time.Time) []string {
	var dropped []string
	var reap []string // container IDs owned by evicted devices
	for i := range h.devShards {
		sh := &h.devShards[i]
		sh.mu.Lock()
		for id, d := range sh.devices {
			if d.Status != StatusConnected {
				continue
			}
			seen, ok := sh.lastSeen[id]
			if !ok {
				// First observation: start the clock now (see doc comment).
				sh.lastSeen[id] = now
				continue
			}
			if now.Sub(seen) >= HeartbeatWindow {
				d.Status = StatusOffline
				h.live.Add(-1)
				if ctr, busy := sh.byDevice[id]; busy {
					reap = append(reap, ctr)
					delete(sh.byDevice, id)
				}
				delete(sh.lastSeen, id)
				dropped = append(dropped, id)
			}
		}
		sh.mu.Unlock()
	}
	// Containers shard by their own IDs; reap them after the device stripe
	// is released so no two shard locks are ever held together.
	for _, ctr := range reap {
		cs := h.ctrShard(ctr)
		cs.mu.Lock()
		if _, ok := cs.containers[ctr]; ok {
			delete(cs.containers, ctr)
			h.running.Add(-1)
		}
		cs.mu.Unlock()
	}
	// Shard and map iteration order are arbitrary; sort so traces, logs,
	// and callers see a deterministic eviction order.
	sort.Strings(dropped)
	if len(dropped) > 0 {
		reg := h.reg()
		reg.Counter("edge_sweep_evictions_total").Add(float64(len(dropped)))
		h.publish()
		// Sweeps fire from clock playback, so the trace context arrives
		// ambiently (SetTraceScope) rather than as an argument; only
		// eviction sweeps are interesting enough to record.
		h.cfgMu.Lock()
		tracer, scope := h.tracer, h.traceScope
		h.cfgMu.Unlock()
		if tracer != nil && scope.Valid() {
			span := tracer.StartWith("edge_sweep", scope)
			span.SetAttr("evicted", len(dropped))
			span.SetAttr("devices", strings.Join(dropped, ","))
			span.End()
		}
	}
	return dropped
}

// Member is one device a heartbeat playback drives: the name a fault plan
// scripts its silences under, and its device ID on the hub.
type Member struct {
	Name, ID string
}

// Play replays the members' heartbeat daemons and the control plane's
// sweeps on the plan's clock as virtual time passes. Every
// plan.HeartbeatEvery the members act in slice order: a member inside a
// scripted silence window skips its check-in (a heartbeat_gap injection);
// any other member heartbeats, re-onboarding through FlashImage and Boot
// first if a sweep took it offline. Every plan.SweepEvery the hub sweeps
// for real, and onEvict, when non-nil, receives the ID of each device the
// sweep evicts. The first beat is due one HeartbeatEvery from now and the
// first sweep one SweepEvery from now; a beat due at the same instant as
// a sweep fires first (the daemon's check-in races the reaper and wins).
// Without members Play does nothing.
//
// Playback rides the clock's discrete-event scheduler: one
// self-rescheduling timer fires at each due beat or sweep, so hub state
// changes land at their exact virtual times.
func (h *Hub) Play(plan *faults.Plan, members []Member, onEvict func(id string)) {
	if len(members) == 0 {
		return
	}
	now := plan.Clock.Now()
	pb := &playback{
		hub:     h,
		plan:    plan,
		members: members,
		onEvict: onEvict,
		beat:    now.Add(plan.HeartbeatEvery),
		sweep:   now.Add(plan.SweepEvery),
	}
	plan.Clock.Schedule(pb.next(), pb.tick)
}

// playback is Play's state: the members and the next due beat and sweep.
type playback struct {
	hub         *Hub
	plan        *faults.Plan
	members     []Member
	onEvict     func(id string)
	beat, sweep time.Time
}

// next is the earliest pending instant; beats win ties.
func (pb *playback) next() time.Time {
	if pb.beat.After(pb.sweep) {
		return pb.sweep
	}
	return pb.beat
}

// tick plays every beat and sweep due at now in chronological order
// (normally exactly one, since the clock parks at each due instant), then
// reschedules itself for the next one.
func (pb *playback) tick(now time.Time) {
	for !pb.beat.After(now) || !pb.sweep.After(now) {
		if !pb.beat.After(now) && !pb.beat.After(pb.sweep) {
			pb.beatRound(pb.beat)
			pb.beat = pb.beat.Add(pb.plan.HeartbeatEvery)
			continue
		}
		for _, id := range pb.hub.SweepHeartbeats(pb.sweep) {
			if pb.onEvict != nil {
				pb.onEvict(id)
			}
		}
		pb.sweep = pb.sweep.Add(pb.plan.SweepEvery)
	}
	pb.plan.Clock.Schedule(pb.next(), pb.tick)
}

// beatRound lets every member act at time t.
func (pb *playback) beatRound(t time.Time) {
	for _, m := range pb.members {
		if pb.plan.DeviceSilent(m.Name, t) {
			pb.plan.RecordInjection("heartbeat_gap")
			continue
		}
		d, err := pb.hub.Device(m.ID)
		if err != nil {
			continue
		}
		if d.Status == StatusOffline {
			if _, err := pb.hub.FlashImage(m.ID); err != nil {
				continue
			}
			if _, err := pb.hub.Boot(m.ID); err != nil {
				continue
			}
		}
		_ = pb.hub.Heartbeat(m.ID, t)
	}
}
