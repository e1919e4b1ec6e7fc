package trovi

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

func published(t *testing.T) (*Hub, *Artifact) {
	t.Helper()
	h := NewHub()
	a, err := h.Publish("AutoLearn", []string{"Esquivel Morel", "Fowler", "Keahey"}, []byte("v1"), t0)
	if err != nil {
		t.Fatal(err)
	}
	return h, a
}

func TestPublishValidation(t *testing.T) {
	h := NewHub()
	if _, err := h.Publish("", []string{"a"}, nil, t0); !errors.Is(err, ErrBadInput) {
		t.Errorf("got %v", err)
	}
	if _, err := h.Publish("t", nil, nil, t0); !errors.Is(err, ErrBadInput) {
		t.Errorf("got %v", err)
	}
}

func TestVersioning(t *testing.T) {
	h, a := published(t)
	n, err := h.PublishVersion(a.ID, []byte("v2"), "fix typos", t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("version %d", n)
	}
	if m, _ := h.MetricsFor(a.ID); m.Versions != 2 {
		t.Errorf("metrics count %d versions", m.Versions)
	}
	if _, err := h.PublishVersion("nope", nil, "", t0); !errors.Is(err, ErrNoArtifact) {
		t.Errorf("got %v", err)
	}
}

func TestMetricsCountUniqueUsers(t *testing.T) {
	h, a := published(t)
	// One user clicks launch 5 times, another once; only one executes.
	for i := 0; i < 5; i++ {
		if err := h.RecordLaunch(a.ID, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	h.RecordLaunch(a.ID, "bob")
	h.RecordExecution(a.ID, "alice")
	h.RecordView(a.ID)
	h.RecordView(a.ID)
	m, err := h.MetricsFor(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.LaunchClicks != 6 || m.LaunchUsers != 2 || m.ExecUsers != 1 || m.Views != 2 || m.Versions != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestMetricsValidation(t *testing.T) {
	h, a := published(t)
	if err := h.RecordLaunch(a.ID, ""); !errors.Is(err, ErrBadInput) {
		t.Errorf("got %v", err)
	}
	if err := h.RecordLaunch("nope", "u"); !errors.Is(err, ErrNoArtifact) {
		t.Errorf("got %v", err)
	}
	if err := h.RecordExecution("nope", "u"); !errors.Is(err, ErrNoArtifact) {
		t.Errorf("got %v", err)
	}
	if err := h.RecordView("nope"); !errors.Is(err, ErrNoArtifact) {
		t.Errorf("got %v", err)
	}
}

func TestSetMetadata(t *testing.T) {
	h, a := published(t)
	tags := []string{"education", "edge", "chameleon"}
	if err := h.SetMetadata(a.ID, "edge-to-cloud educational module", tags); err != nil {
		t.Fatal(err)
	}
	tags[0] = "changed"
	if a.Description != "edge-to-cloud educational module" || len(a.Tags) != 3 || a.Tags[0] != "education" {
		t.Errorf("metadata = %q %v", a.Description, a.Tags)
	}
	if err := h.SetMetadata("nope", "", nil); !errors.Is(err, ErrNoArtifact) {
		t.Errorf("got %v", err)
	}
}

func TestPopulationModelShapeMatchesPaper(t *testing.T) {
	h, a := published(t)
	m, err := DefaultPopulation().Run(h, a.ID, t0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §5 funnel: 35 clicks > 9 launching users > 2 executing
	// users; 8 published versions (+1 initial here). Check the shape, with
	// generous bands around the reported values.
	if m.Versions != 9 {
		t.Errorf("versions = %d, want 9 (1 initial + 8 published)", m.Versions)
	}
	if !(m.LaunchClicks > m.LaunchUsers && m.LaunchUsers > m.ExecUsers) {
		t.Errorf("funnel inverted: %+v", m)
	}
	if m.LaunchClicks < 15 || m.LaunchClicks > 70 {
		t.Errorf("launch clicks %d far from paper's 35", m.LaunchClicks)
	}
	if m.LaunchUsers < 4 || m.LaunchUsers > 20 {
		t.Errorf("launch users %d far from paper's 9", m.LaunchUsers)
	}
	if m.ExecUsers < 1 || m.ExecUsers > 8 {
		t.Errorf("exec users %d far from paper's 2", m.ExecUsers)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	run := func() Metrics {
		h, a := published(t)
		m, err := DefaultPopulation().Run(h, a.ID, t0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(), run(); a != b {
		t.Errorf("not deterministic: %+v vs %+v", a, b)
	}
}

func TestPopulationValidation(t *testing.T) {
	bad := DefaultPopulation()
	bad.Users = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero users accepted")
	}
	bad = DefaultPopulation()
	bad.LaunchProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("probability > 1 accepted")
	}
	bad = DefaultPopulation()
	bad.ExtraClicksMean = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative clicks accepted")
	}
}

func TestConcurrentMetrics(t *testing.T) {
	h, a := published(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := string(rune('a' + i))
			for j := 0; j < 100; j++ {
				h.RecordLaunch(a.ID, user)
				h.RecordView(a.ID)
			}
		}(i)
	}
	wg.Wait()
	m, _ := h.MetricsFor(a.ID)
	if m.LaunchClicks != 800 || m.LaunchUsers != 8 || m.Views != 800 {
		t.Errorf("metrics = %+v", m)
	}
}
