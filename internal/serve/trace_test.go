package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// findSpans filters finished spans by name.
func findSpans(spans []*obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestRequestTracePropagation drives /predict with an X-Trace-Context
// header and checks the caller's trace ID tags the request's latency
// exemplar.
func TestRequestTracePropagation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	root := obs.NewTracer().Start("client-drive")
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/predict",
		bytes.NewReader(predictBody(t, testFrame(t, 1))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, root.Context().String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}

	h := env.metrics.Histogram("serve_request_seconds", obs.DefSecondsBuckets, obs.L("model", testModel))
	sawExemplar := false
	for _, ex := range h.Exemplars() {
		if ex.TraceID == root.TraceID {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Error("latency histogram has no exemplar for the request's trace")
	}
}

// TestReloadTraceSpans checks PollOnceCtx links the hot reload (and the
// object-store fetch under it) into the caller's trace.
func TestReloadTraceSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	tr := obs.NewTracer()
	env.reg.SetTracer(tr)
	env.store.SetTracer(tr)

	if _, err := env.store.Put(testContainer, testObject, checkpointBytes(t, testPilot(t, 99)), nil); err != nil {
		t.Fatal(err)
	}
	root := tr.Start("fed-round")
	n, err := env.reg.PollOnceCtx(root.Context())
	if err != nil || n != 1 {
		t.Fatalf("PollOnceCtx = (%d, %v), want (1, nil)", n, err)
	}
	root.End()

	spans := tr.Finished()
	reloads := findSpans(spans, "serve_reload")
	if len(reloads) != 1 {
		t.Fatalf("serve_reload spans = %d, want 1", len(reloads))
	}
	rl := reloads[0]
	if rl.ParentID != root.ID || rl.TraceID != root.TraceID {
		t.Errorf("serve_reload parent/trace = %s/%s, want %s/%s",
			rl.ParentID, rl.TraceID, root.ID, root.TraceID)
	}
	if got := rl.Attr("model"); got != testModel {
		t.Errorf("serve_reload model attr = %v, want %q", got, testModel)
	}
	gets := findSpans(spans, "objstore_get")
	if len(gets) != 1 {
		t.Fatalf("objstore_get spans = %d, want 1", len(gets))
	}
	if gets[0].ParentID != rl.ID {
		t.Errorf("objstore_get parent = %s, want serve_reload %s", gets[0].ParentID, rl.ID)
	}
}

// TestServeDebugObs exercises the dashboard mounted on the service mux.
func TestServeDebugObs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	postPredict(t, ts.URL, predictBody(t, testFrame(t, 1)), 5000)

	resp, err := http.Get(ts.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/obs status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q, want text/html", ct)
	}
	if !strings.Contains(string(body), "serve_requests_total") {
		t.Error("dashboard missing serving series")
	}

	resp, err = http.Get(ts.URL + "/debug/obs?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Schema     int                        `json:"schema"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if payload.Schema != obs.TraceSchemaVersion {
		t.Errorf("debug JSON schema = %d, want %d", payload.Schema, obs.TraceSchemaVersion)
	}
	if len(payload.Histograms) == 0 {
		t.Error("debug JSON has no histograms")
	}

	resp, err = http.Post(ts.URL+"/debug/obs", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/obs status %d, want 405", resp.StatusCode)
	}
}
