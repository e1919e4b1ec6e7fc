package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/faults"
)

// Profiles lists the named fault profiles Profile generates.
func Profiles() []string {
	return []string{"lossy-wan", "flaky-objstore", "heartbeat-gap", "preempt", "chaos"}
}

// Profile generates a named fault profile as a scenario over
// [0, faults.Horizon): WAN partitions and degradations (lossy-wan),
// every third object-store attempt failing (flaky-objstore), BYOD
// heartbeat silences (heartbeat-gap), a training-lease preemption
// 35-65% of the way through its GPU time (preempt), or all four in that
// draw order (chaos). The same name and seed always give the same
// scenario, which pins the seed, so it replays like a file; Format
// renders it as one.
func Profile(name string, seed int64) (*Scenario, error) {
	s := &Scenario{Name: name, Seed: seed}
	gen := rand.New(rand.NewSource(seed))
	flaky := Phase{End: faults.Horizon, Kind: Objstore, Every: 3}
	switch name {
	case "lossy-wan":
		s.genLossyWAN(gen)
	case "flaky-objstore":
		s.Phases = append(s.Phases, flaky)
	case "heartbeat-gap":
		s.genHeartbeatGaps(gen)
	case "preempt":
		s.Preempt = 0.35 + 0.3*gen.Float64()
	case "chaos":
		s.genLossyWAN(gen)
		s.Phases = append(s.Phases, flaky)
		s.genHeartbeatGaps(gen)
		s.Preempt = 0.35 + 0.3*gen.Float64()
	default:
		return nil, fmt.Errorf("scenario: unknown fault profile %q (have %s)",
			name, strings.Join(Profiles(), ", "))
	}
	return s, nil
}

// addClipped appends a generated phase, cutting it at the profile
// horizon (the DSL rejects later windows) and dropping it if it starts
// there or after.
func (s *Scenario) addClipped(ph Phase) {
	if ph.Start >= faults.Horizon {
		return
	}
	ph.End = min(ph.End, faults.Horizon)
	s.Phases = append(s.Phases, ph)
}

// genLossyWAN scatters alternating partition and degradation phases over
// the campus WAN. The cycle period stays under ~30s so any half-minute of
// traffic crosses at least one partition, and every partition is shorter
// than the retry policy's cumulative backoff, so retries always recover.
func (s *Scenario) genLossyWAN(gen *rand.Rand) {
	const link = "campus-wan"
	s.Links = append(s.Links, LinkDecl{Name: link})
	t := time.Duration(2+gen.Intn(4)) * time.Second
	for t < faults.Horizon {
		down := time.Duration(4+gen.Intn(7)) * time.Second // 4-10s partition
		s.addClipped(Phase{Start: t, End: t + down, Kind: Partition, Link: link})
		t += down
		slow := time.Duration(3+gen.Intn(5)) * time.Second // 3-7s degraded tail
		s.addClipped(Phase{Start: t, End: t + slow, Kind: Degrade, Link: link, Factor: 2 + 2*gen.Float64()})
		t += slow
		t += time.Duration(8+gen.Intn(9)) * time.Second // 8-16s healthy
	}
}

// genHeartbeatGaps scripts two BYOD devices whose daemons go silent for
// longer than the heartbeat window (batteries dying mid-session), then
// come back and re-onboard.
func (s *Scenario) genHeartbeatGaps(gen *rand.Rand) {
	for i := 0; i < 2; i++ {
		dev := fmt.Sprintf("chaos-pi-%d", i+1)
		t := time.Duration(45+gen.Intn(76)) * time.Second // first gap 45-120s in
		for t < faults.Horizon {
			gap := time.Duration(120+gen.Intn(121)) * time.Second // 2-4 min silent
			s.addClipped(Phase{Start: t, End: t + gap, Kind: Silence, Device: dev})
			t += gap
			t += time.Duration(120+gen.Intn(181)) * time.Second // 2-5 min healthy
		}
	}
}
