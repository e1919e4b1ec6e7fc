// Classroom simulates the paper's classroom pathway at scale: a 30-student
// lab section shares the Chameleon testbed, every team's car is onboarded
// through the BYOD zero-to-ready pathway, GPU slots are contended through
// advance reservations, the instructor's notebook artifact is published to
// Trovi, and the resulting adoption metrics are reported (§3.4, §5, E7).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/testbed"
	"repro/internal/trovi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2023, 9, 6, 13, 0, 0, 0, time.UTC) // lab section, 1pm

	cfg := core.DefaultConfig()
	cfg.Pathway = core.Classroom
	m, err := core.New(cfg)
	if err != nil {
		return err
	}

	// 1) BYOD onboarding: 10 team cars go through zero-to-ready.
	fmt.Println("== BYOD onboarding (10 team cars)")
	var worst time.Duration
	for team := 1; team <= 10; team++ {
		res, err := m.Edge.ZeroToReady(
			fmt.Sprintf("team-%02d-car", team),
			fmt.Sprintf("team-%02d", team),
			m.Cfg.ProjectID, "autolearn:latest", 800<<20, start)
		if err != nil {
			return err
		}
		if res.Total > worst {
			worst = res.Total
		}
	}
	fmt.Printf("   all cars connected; slowest zero-to-ready %v\n", worst.Round(time.Second))

	// 2) GPU contention: 30 students request a same-afternoon training slot.
	fmt.Println("== GPU reservations (30 students, 1-hour slots)")
	type grant struct {
		gpu  testbed.GPUType
		slot int // 0 = on time, n = pushed n hours later
	}
	grants := map[string]grant{}
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("student-%02d", i)
		s, err := m.Enroll(name, "example.edu")
		if err != nil {
			return err
		}
		// Everyone wants an A100 first; fall back to RTX6000, then to a
		// later A100 slot — the scheduling dance advance reservations make
		// explicit.
		placed := false
		for slot := 0; slot < 4 && !placed; slot++ {
			from := start.Add(time.Duration(slot) * time.Hour)
			to := from.Add(time.Hour)
			for _, gpu := range []testbed.GPUType{testbed.A100, testbed.RTX6000} {
				if _, err := s.Reserve(testbed.NodeFilter{GPU: gpu}, from, to); err == nil {
					grants[name] = grant{gpu: gpu, slot: slot}
					placed = true
					break
				}
			}
		}
		if !placed {
			return fmt.Errorf("student %s could not be scheduled", name)
		}
	}
	byGPU := map[testbed.GPUType]int{}
	delayed := 0
	for _, g := range grants {
		byGPU[g.gpu]++
		if g.slot > 0 {
			delayed++
		}
	}
	fmt.Printf("   grants: %d on A100, %d on RTX6000; %d pushed to a later slot\n",
		byGPU[testbed.A100], byGPU[testbed.RTX6000], delayed)
	util := m.Testbed.Utilization(testbed.NodeFilter{GPU: testbed.A100}, start, start.Add(4*time.Hour))
	fmt.Printf("   A100 utilization over the lab window: %.0f%%\n", util*100)

	// 3) The instructor publishes the notebook artifact and the class (plus
	// the wider community) interacts with it on Trovi.
	fmt.Println("== Trovi artifact adoption")
	instructor, err := m.Enroll("instructor", "example.edu")
	if err != nil {
		return err
	}
	p, err := m.NewPipeline(instructor, ".")
	if err != nil {
		return err
	}
	art, err := p.PublishToTrovi(p.BuildNotebook(), start)
	if err != nil {
		return err
	}
	pop := trovi.DefaultPopulation()
	metrics, err := pop.Run(m.Trovi, art.ID, start)
	if err != nil {
		return err
	}
	fmt.Printf("   launch clicks %d | launching users %d | executing users %d | versions %d\n",
		metrics.LaunchClicks, metrics.LaunchUsers, metrics.ExecUsers, metrics.Versions)
	fmt.Printf("   (paper reported: 35 clicks, 9 launching users, 2 executing users, 8 versions)\n")
	return nil
}
