package netctl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/scenario"
)

const testScenario = `scenario v1
name netctl-test
link campus-wan
link fabric
phase 1h..2h shape link=campus-wan bandwidth=50Mbps
`

// newTestServer builds a server over a two-link fabric driven by the
// test scenario's virtual clock.
func newTestServer(t *testing.T) (*Server, *scenario.Runtime, *netem.Net, obs.Observer) {
	t.Helper()
	s, err := scenario.ParseString(testScenario)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rt, err := scenario.NewRuntime(s, 11, time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	net := netem.NewNet(11)
	rt.Attach(net)
	srv := New(rt, net)
	o := obs.NewObserver()
	srv.SetObserver(o)
	rt.SetEventHook(srv.PublishEvent)
	return srv, rt, net, o
}

func do(t *testing.T, srv *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

// Every endpoint refuses the wrong method with 405.
func TestMethodNotAllowed(t *testing.T) {
	srv, _, _, _ := newTestServer(t)
	cases := []struct{ method, target string }{
		{http.MethodPost, "/"},
		{http.MethodPost, "/links"},
		{http.MethodGet, "/links/shape"},
		{http.MethodDelete, "/links/shape"},
		{http.MethodGet, "/links/clear"},
		{http.MethodPut, "/scenario"},
		{http.MethodPost, "/probe"},
		{http.MethodPost, "/state"},
		{http.MethodPost, "/events"},
	}
	for _, c := range cases {
		if w := do(t, srv, c.method, c.target, `{"link":"campus-wan"}`); w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405 (%s)", c.method, c.target, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
	}
}

// Every rejection path answers 400 with a reason.
func TestBadRequests(t *testing.T) {
	srv, _, _, _ := newTestServer(t)
	cases := []struct {
		name, method, target, body, wantErr string
	}{
		{"shape bad json", http.MethodPost, "/links/shape", "{", "bad body"},
		{"shape unknown link", http.MethodPost, "/links/shape", `{"link":"dsl","down":true}`, "unknown link"},
		{"shape no effect", http.MethodPost, "/links/shape", `{"link":"campus-wan"}`, "changes nothing"},
		{"shape factor below 1", http.MethodPost, "/links/shape", `{"link":"campus-wan","factor":0.5}`, "factor must be > 1"},
		{"shape bad latency", http.MethodPost, "/links/shape", `{"link":"campus-wan","latency":"fast"}`, "bad latency"},
		{"shape negative latency", http.MethodPost, "/links/shape", `{"link":"campus-wan","latency":"-5ms"}`, "bad latency"},
		{"shape bad jitter", http.MethodPost, "/links/shape", `{"link":"campus-wan","jitter":"-1ms"}`, "bad jitter"},
		{"shape bad bandwidth", http.MethodPost, "/links/shape", `{"link":"campus-wan","bandwidth":"warp9"}`, "bad bandwidth"},
		{"shape loss out of range", http.MethodPost, "/links/shape", `{"link":"campus-wan","loss":1.5}`, "loss must be in [0,1)"},
		{"shape factor overflows latency", http.MethodPost, "/links/shape", `{"link":"campus-wan","factor":1e300}`, "out of range"},
		{"clear bad json", http.MethodPost, "/links/clear", "nope", "bad body"},
		{"clear unknown link", http.MethodPost, "/links/clear", `{"link":"dsl"}`, "unknown link"},
		{"scenario not parseable", http.MethodPost, "/scenario", "scenario v9\n", "line 1"},
		{"scenario non-link phase", http.MethodPost, "/scenario", "scenario v1\nphase 0s..1m objstore every=2\n", "cannot script objstore"},
		{"scenario unknown link", http.MethodPost, "/scenario", "scenario v1\nlink dsl\nphase 0s..1m partition link=dsl\n", "unknown link"},
		{"scenario factor overflows latency", http.MethodPost, "/scenario", "scenario v1\nlink campus-wan\nphase 0s..1m degrade link=campus-wan factor=1e300\n", "phase 0s..1m0s degrade"},
		{"probe missing link", http.MethodGet, "/probe", "", "missing link"},
		{"probe unknown link", http.MethodGet, "/probe?link=dsl", "", "unknown link"},
		{"probe bad bytes", http.MethodGet, "/probe?link=campus-wan&bytes=-1", "", "bad bytes"},
		{"probe bytes overflow a transfer", http.MethodGet, "/probe?link=campus-wan&bytes=9223372036854775807", "", "out of range"},
		{"probe bytes overflow the probe", http.MethodGet, "/probe?link=campus-wan&bytes=100000000000000000", "", "out of range"},
		{"probe bad tol", http.MethodGet, "/probe?link=campus-wan&tol=zero", "", "bad tol"},
	}
	for _, c := range cases {
		w := do(t, srv, c.method, c.target, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, w.Code)
			continue
		}
		if got := w.Body.String(); !strings.Contains(got, c.wantErr) {
			t.Errorf("%s: body %q does not mention %q", c.name, got, c.wantErr)
		}
	}
}

// A shape mutation is visible on /links, bills transfers immediately,
// and a clear reverts to the scheduled script.
func TestShapeClearFlow(t *testing.T) {
	srv, _, net, o := newTestServer(t)

	var links []linkView
	if w := do(t, srv, http.MethodGet, "/links", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /links = %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &links); err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 || links[0].Name != "campus-wan" || links[1].Name != "fabric" {
		t.Fatalf("links = %+v", links)
	}
	if links[0].Effective.Bandwidth != "100Mbps" || links[0].NextChange == "" {
		t.Fatalf("campus-wan before shaping = %+v", links[0])
	}

	w := do(t, srv, http.MethodPost, "/links/shape", `{"link":"campus-wan","bandwidth":"2Mbps"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("shape = %d: %s", w.Code, w.Body)
	}
	var v linkView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Effective.Bandwidth != "2Mbps" || v.Down {
		t.Fatalf("shaped view = %+v", v)
	}
	// 250 kB at 0.25e6 B/s: the mutation bills traffic immediately.
	link := netem.Link{Name: "campus-wan", Bandwidth: 12.5e6}
	res, err := net.Transfer(link, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != time.Second {
		t.Fatalf("shaped transfer = %v, want 1s", res.Duration)
	}

	if w := do(t, srv, http.MethodPost, "/links/clear", `{"link":"campus-wan"}`); w.Code != http.StatusOK {
		t.Fatalf("clear = %d: %s", w.Code, w.Body)
	}
	res, err = net.Transfer(link, 1_250_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 100*time.Millisecond {
		t.Fatalf("cleared transfer = %v, want 100ms", res.Duration)
	}

	snap := o.Metrics.Snapshot()
	if got := snap.Counters[`netctl_mutations_total{endpoint="shape"}`]; got != 1 {
		t.Fatalf("shape mutations counter = %v", got)
	}
	if got := snap.Counters[`netctl_mutations_total{endpoint="clear"}`]; got != 1 {
		t.Fatalf("clear mutations counter = %v", got)
	}
}

// Downing a link flips the view and makes the probe refuse with 503.
func TestDownLink(t *testing.T) {
	srv, _, _, _ := newTestServer(t)
	if w := do(t, srv, http.MethodPost, "/links/shape", `{"link":"fabric","down":true}`); w.Code != http.StatusOK {
		t.Fatalf("down = %d: %s", w.Code, w.Body)
	}
	var v linkView
	if w := do(t, srv, http.MethodGet, "/links", ""); true {
		var links []linkView
		if err := json.Unmarshal(w.Body.Bytes(), &links); err != nil {
			t.Fatal(err)
		}
		v = links[1]
	}
	if !v.Down {
		t.Fatalf("fabric should be down: %+v", v)
	}
	if w := do(t, srv, http.MethodGet, "/probe?link=fabric", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("probe of a down link = %d, want 503", w.Code)
	}
}

// GET /scenario serves the canonical script; POST merges a live one.
func TestScenarioEndpoints(t *testing.T) {
	srv, rt, net, o := newTestServer(t)
	w := do(t, srv, http.MethodGet, "/scenario", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /scenario = %d", w.Code)
	}
	if got := w.Body.String(); got != scenario.Format(rt.Scenario()) {
		t.Fatalf("GET /scenario = %q, not the canonical form", got)
	}

	live := "scenario v1\nlink campus-wan\nphase 0s..30m degrade link=campus-wan factor=5\n"
	w = do(t, srv, http.MethodPost, "/scenario", live)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /scenario = %d: %s", w.Code, w.Body)
	}
	eff, ok, err := net.EffectiveLink(netem.CampusWAN)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || eff.Bandwidth != netem.CampusWAN.Bandwidth/5 {
		t.Fatalf("live degrade not applied: %+v ok=%v", eff, ok)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["netctl_scenario_loads_total"]; got != 1 {
		t.Fatalf("scenario loads counter = %v", got)
	}
}

// The probe endpoint measures the clean stock link within tolerance.
func TestProbeEndpoint(t *testing.T) {
	srv, _, _, o := newTestServer(t)
	w := do(t, srv, http.MethodGet, "/probe?link=campus-wan&bytes=1048576", "")
	if w.Code != http.StatusOK {
		t.Fatalf("probe = %d: %s", w.Code, w.Body)
	}
	var res struct {
		Within   bool `json:"within_tolerance"`
		Measured struct {
			Bandwidth string `json:"bandwidth"`
		} `json:"measured"`
		Tolerance float64 `json:"tolerance"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Within || res.Tolerance != 0.25 {
		t.Fatalf("probe out of tolerance: %s", w.Body)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters[`netctl_probes_total{outcome="within_tolerance"}`]; got != 1 {
		t.Fatalf("probe counter = %v", got)
	}
}

// /state reports virtual now, scenario describe, and the event log; the
// index page serves the pane and 404s elsewhere.
func TestStateAndIndex(t *testing.T) {
	srv, rt, _, o := newTestServer(t)
	rt.Start(o)
	rt.Clock().Advance(90 * time.Minute) // crosses the scheduled 1h shape phase
	defer rt.Finish()

	w := do(t, srv, http.MethodGet, "/state", "")
	if w.Code != http.StatusOK {
		t.Fatalf("state = %d", w.Code)
	}
	var st struct {
		Now         string           `json:"now"`
		Scenario    string           `json:"scenario"`
		Transitions int              `json:"transitions"`
		Events      []scenario.Event `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Now != "2023-09-01T10:30:00Z" {
		t.Fatalf("state now = %q", st.Now)
	}
	if !strings.Contains(st.Scenario, "netctl-test") || st.Transitions != 1 || len(st.Events) != 1 {
		t.Fatalf("state = %+v", st)
	}
	if st.Events[0].Kind != scenario.Shape {
		t.Fatalf("event = %+v", st.Events[0])
	}

	if w := do(t, srv, http.MethodGet, "/", ""); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "netctl") {
		t.Fatalf("index = %d", w.Code)
	}
	if w := do(t, srv, http.MethodGet, "/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", w.Code)
	}
}

// /events streams transitions as SSE: the backlog first, then live ones.
func TestEventsStream(t *testing.T) {
	srv, _, _, _ := newTestServer(t)
	srv.PublishEvent(scenario.Event{Phase: 1, Kind: scenario.Clean, Window: "0s..1m"})

	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	lines := bufio.NewScanner(resp.Body)
	readEvent := func() scenario.Event {
		t.Helper()
		for lines.Scan() {
			if data, ok := strings.CutPrefix(lines.Text(), "data: "); ok {
				var e scenario.Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatalf("bad event %q: %v", data, err)
				}
				return e
			}
		}
		t.Fatalf("stream ended early: %v", lines.Err())
		return scenario.Event{}
	}
	if e := readEvent(); e.Phase != 1 || e.Kind != scenario.Clean {
		t.Fatalf("backlog event = %+v", e)
	}
	srv.PublishEvent(scenario.Event{Phase: 2, Kind: scenario.Partition, Target: "link:fabric"})
	if e := readEvent(); e.Phase != 2 || e.Target != "link:fabric" {
		t.Fatalf("live event = %+v", e)
	}
}

// TestHammerConcurrentMutations drives concurrent REST mutations, state
// reads, clock advances, and in-flight transfers through one server —
// run under -race this is the regression for torn reads between the
// handlers and the transfer path (the webctl handleState pattern).
func TestHammerConcurrentMutations(t *testing.T) {
	srv, rt, net, o := newTestServer(t)
	rt.Start(o)
	defer rt.Finish()

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	post := func(path, body string) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST %s = %d", path, resp.StatusCode)
			}
		}
	}
	get := func(path string) {
		resp, err := client.Get(ts.URL + path)
		if err == nil {
			resp.Body.Close()
		}
	}

	const iters = 150
	var wg sync.WaitGroup
	wg.Add(5)
	go func() { // shaper: alternate two bandwidths
		defer wg.Done()
		for i := 0; i < iters; i++ {
			bw := "8Mbps"
			if i%2 == 0 {
				bw = "1Mbps"
			}
			post("/links/shape", fmt.Sprintf(`{"link":"campus-wan","bandwidth":"%s"}`, bw))
		}
	}()
	go func() { // clearer
		defer wg.Done()
		for i := 0; i < iters; i++ {
			post("/links/clear", `{"link":"campus-wan"}`)
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; i < iters; i++ {
			get("/state")
			get("/links")
		}
	}()
	go func() { // clock: advances fire scheduled phases mid-mutation
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rt.Clock().Advance(time.Millisecond)
		}
	}()
	go func() { // traffic in flight while shapes change under it
		defer wg.Done()
		link := netem.Link{Name: "campus-wan", Bandwidth: 12.5e6}
		for i := 0; i < iters; i++ {
			if _, err := net.Transfer(link, 50_000); err != nil {
				t.Errorf("transfer: %v", err)
			}
		}
	}()
	wg.Wait()

	snap := o.Metrics.Snapshot()
	shapes := snap.Counters[`netctl_mutations_total{endpoint="shape"}`]
	clears := snap.Counters[`netctl_mutations_total{endpoint="clear"}`]
	if shapes != iters || clears != iters {
		t.Fatalf("mutation counters = %v shape / %v clear, want %d each", shapes, clears, iters)
	}
}
