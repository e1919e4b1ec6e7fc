package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pilot"
	"repro/internal/serve"
	"repro/internal/sim"
)

func TestParseModelSpecs(t *testing.T) {
	specs, err := parseModelSpecs("teacher=/tmp/t.ckpt, /tmp/student.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].name != "teacher" || specs[0].file != "/tmp/t.ckpt" {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].name != "student" || specs[1].file != "/tmp/student.ckpt" {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	if _, err := parseModelSpecs(""); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := parseModelSpecs("a=x.ckpt,a=y.ckpt"); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestCmdServeRequiresModels(t *testing.T) {
	if err := cmdServe(nil); err == nil {
		t.Fatal("serve without -models accepted")
	}
}

// TestCmdServeRejectsUnservableScenario: serve -scenario refuses, by
// name and before loading any model, each directive it cannot apply,
// while the link-only library files get past the check (and fail only
// on the missing checkpoint).
func TestCmdServeRejectsUnservableScenario(t *testing.T) {
	dir := t.TempDir()
	models := "m=" + filepath.Join(dir, "missing.ckpt")
	for i, c := range []struct{ directive, line string }{
		{"objstore", "phase 0s..1m objstore every=2"},
		{"silence", "phase 0s..1m silence device=edge-pi-1"},
		{"preempt", "preempt 0.5"},
	} {
		file := filepath.Join(dir, fmt.Sprintf("s%d.scn", i))
		if err := os.WriteFile(file, []byte("scenario v1\n"+c.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := cmdServe([]string{"-models", models, "-addr", "127.0.0.1:0", "-scenario", file})
		if err == nil || !strings.Contains(err.Error(), c.directive) {
			t.Errorf("%s: serve -scenario returned %v, want an error naming %q", c.directive, err, c.directive)
		}
	}
	for _, file := range []string{"../../scenarios/clean.scn", "../../scenarios/lossy-wan.scn"} {
		err := cmdServe([]string{"-models", models, "-addr", "127.0.0.1:0", "-scenario", file})
		if err == nil || !strings.Contains(err.Error(), "missing.ckpt") {
			t.Errorf("%s: serve -scenario returned %v, want it accepted and the missing checkpoint reported", file, err)
		}
	}
}

// saveServePilot writes a fresh linear checkpoint and returns its config.
func saveServePilot(t *testing.T, file string, seed int64) pilot.Config {
	t.Helper()
	cfg := pilot.DefaultConfig(pilot.Linear, 24, 16, 1)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 4, 8, 16
	cfg.Seed = seed
	p, err := pilot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestServeCommandEndToEnd drives the CLI's serving assembly: checkpoint
// files on disk are registered, answer /predict, and hot-swap on refresh
// when a file changes.
func TestServeCommandEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "student.ckpt")
	cfg := saveServePilot(t, ckpt, 1)

	specs, err := parseModelSpecs("student=" + ckpt)
	if err != nil {
		t.Fatal(err)
	}
	app, err := buildServing(specs, serve.DefaultConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer app.svc.Close()
	ts := httptest.NewServer(app.svc)
	defer ts.Close()

	f, err := sim.NewFrame(cfg.Width, cfg.Height, cfg.Channels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Pix {
		f.Pix[i] = uint8(i % 251)
	}
	body, _ := json.Marshal(map[string]any{
		"model": "student", "width": cfg.Width, "height": cfg.Height, "channels": cfg.Channels,
		"frames": []string{base64.StdEncoding.EncodeToString(f.Pix)},
	})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Angle    float64 `json:"angle"`
		Throttle float64 `json:"throttle"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	infoBefore, _ := app.reg.Info("student")
	// Unchanged file: refresh is a no-op.
	if n, err := app.refresh(); err != nil || n != 0 {
		t.Fatalf("idle refresh = (%d, %v), want (0, nil)", n, err)
	}
	// New weights on disk hot-swap the served model.
	saveServePilot(t, ckpt, 42)
	n, err := app.refresh()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("refresh reloaded %d models, want 1", n)
	}
	infoAfter, _ := app.reg.Info("student")
	if infoAfter.ETag == infoBefore.ETag {
		t.Error("ETag unchanged after checkpoint rewrite")
	}
	resp, err = http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pred2 struct {
		Angle    float64 `json:"angle"`
		Throttle float64 `json:"throttle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pred2.Angle == pred.Angle && pred2.Throttle == pred.Throttle {
		t.Error("prediction identical after hot swap")
	}
}

// TestServeCommandQuantReplicas assembles the CLI serving stack with the
// -quant/-replicas options applied and checks both survive into the
// registry's /models metadata; an unsupported mode must fail the build.
func TestServeCommandQuantReplicas(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "student.ckpt")
	saveServePilot(t, ckpt, 1)
	specs, err := parseModelSpecs("student=" + ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.DefaultConfig()
	cfg.Replicas = 2
	app, err := buildServing(specs, cfg, "int8")
	if err != nil {
		t.Fatal(err)
	}
	defer app.svc.Close()
	info, ok := app.reg.Info("student")
	if !ok {
		t.Fatal("student not registered")
	}
	if info.Quant != "int8" || info.Replicas != 2 {
		t.Fatalf("ModelInfo quant=%q replicas=%d, want int8/2", info.Quant, info.Replicas)
	}

	if _, err := buildServing(specs, serve.DefaultConfig(), "int4"); err == nil {
		t.Fatal("unsupported quantization mode accepted")
	}
}
