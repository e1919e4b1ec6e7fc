package main

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// startApp builds the webserve app with its drive loop running and
// returns a test HTTP server over its mux.
func startApp(t *testing.T, hz float64) *httptest.Server {
	t.Helper()
	a, err := build("default-oval", hz, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.loop(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	srv := httptest.NewServer(a.mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := build("no-such-track", 20, ""); err == nil {
		t.Error("unknown track accepted")
	}
	if _, err := build("default-oval", 0, ""); err == nil {
		t.Error("zero hz accepted")
	}
}

// TestEndpointsAgainstRunningLoop drives every endpoint while the loop is
// stepping the car — under -race this is what catches unsynchronized
// handler reads of loop-owned state.
func TestEndpointsAgainstRunningLoop(t *testing.T) {
	srv := startApp(t, 200)

	// /drive: floor it.
	resp, err := http.Post(srv.URL+"/drive", "application/json",
		strings.NewReader(`{"angle":0,"throttle":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/drive status %d", resp.StatusCode)
	}

	// /mode: both bounds enforced while the loop runs.
	for body, want := range map[string]int{
		`{"constant_throttle":0.3}`: http.StatusNoContent,
		`{"constant_throttle":-4}`:  http.StatusBadRequest,
	} {
		resp, err := http.Post(srv.URL+"/mode", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("/mode %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// /state: poll concurrently with the loop until the throttle command
	// shows up as motion.
	deadline := time.Now().Add(2 * time.Second)
	var speed float64
	for time.Now().Before(deadline) && speed == 0 {
		resp, err := http.Get(srv.URL + "/state")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/state status %d", resp.StatusCode)
		}
		var st struct {
			Speed float64 `json:"speed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		speed = st.Speed
	}
	if speed <= 0 {
		t.Error("car never moved despite full throttle over /drive")
	}

	// /video: a decodable PNG of the camera's shape once a frame exists.
	deadline = time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/video")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			img, err := png.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if img.Bounds().Dx() == 0 || img.Bounds().Dy() == 0 {
				t.Errorf("empty video frame %v", img.Bounds())
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("no video frame before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /metrics: loop series present and advancing.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{"webserve_frames_total", "webserve_loop_hz", "webserve_tick_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestObservabilityEndpoints pins the telemetry surface: /metrics and
// /debug/obs serve the right content types, are GET-only, and a /drive
// command carrying a trace context shows up on the dashboard.
func TestObservabilityEndpoints(t *testing.T) {
	a, err := build("default-oval", 20, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.mux)
	defer srv.Close()

	// A traced drive command: the server must continue the client's trace.
	root := a.tracer.Start("pilot-loop")
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/drive",
		strings.NewReader(`{"angle":0.1,"throttle":0.4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, root.Context().String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/drive status %d", resp.StatusCode)
	}
	root.End()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type"), buf.String()
	}

	code, ct, body := get("/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics = (%d, %q), want (200, text/plain)", code, ct)
	}
	if !strings.Contains(body, `webctl_commands_total{endpoint="drive"} 1`) {
		t.Errorf("/metrics missing the drive command counter:\n%s", body)
	}
	// The registry is quiescent, so back-to-back scrapes must be identical.
	if _, _, again := get("/metrics"); again != body {
		t.Error("/metrics body changed between identical scrapes")
	}

	code, ct, body = get("/debug/obs")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/debug/obs = (%d, %q), want (200, text/html)", code, ct)
	}
	for _, want := range []string{"webctl_drive", root.TraceID, "webserve_loop_hz"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/obs missing %q", want)
		}
	}
	code, ct, body = get("/debug/obs?format=json")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/obs?format=json = (%d, %q), want (200, application/json)", code, ct)
	}
	if _, _, again := get("/debug/obs?format=json"); again != body {
		t.Error("/debug/obs JSON changed between identical requests")
	}

	for _, path := range []string{"/metrics", "/debug/obs"} {
		resp, err := http.Post(srv.URL+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestRunShutsDownOnCancel exercises the graceful-shutdown path main wires
// to SIGINT: cancelation must make run return promptly and cleanly.
func TestRunShutsDownOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, "127.0.0.1:0", "default-oval", 50, "") }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on cancel", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("run did not shut down after cancel")
	}
}

// TestNetctlPaneMounted checks the second dashboard pane: the netctl
// control plane is reachable under /netctl/, its link fabric serves the
// stock profiles, and it runs the empty scenario.
func TestNetctlPaneMounted(t *testing.T) {
	srv := startApp(t, 100)
	resp, err := http.Get(srv.URL + "/netctl/")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "netctl") {
		t.Fatalf("/netctl/ = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/netctl/links")
	if err != nil {
		t.Fatal(err)
	}
	var links []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&links); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(links) != 5 || links[0].Name != "campus-wan" {
		t.Fatalf("netctl links = %+v", links)
	}
	// A live mutation through the pane works end to end.
	resp, err = http.Post(srv.URL+"/netctl/links/shape", "application/json",
		strings.NewReader(`{"link":"campus-wan","bandwidth":"2Mbps"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shape via pane = %d", resp.StatusCode)
	}
	// Without -scenario the pane runs the empty scenario over the stock
	// links, and serves it like a scripted one.
	resp, err = http.Get(srv.URL + "/netctl/scenario")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "name fault-free\nlink campus-wan\n") {
		t.Fatalf("/netctl/scenario = %d %q", resp.StatusCode, buf.String())
	}
}
