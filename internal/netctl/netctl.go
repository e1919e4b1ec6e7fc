// Package netctl is the live network control plane: a REST/SSE server
// over the scenario shape table that exposes the same mutations a
// scenario file scripts — shape a link, partition it, degrade it, clear
// it back to the script, or load a whole scenario mid-run — plus an
// iperf3-style probe that validates what a link actually delivers
// against its declared profile. It sits alongside webctl (which drives
// the car) as the second pane of the fleet dashboard and shares its
// HTTP conventions: POST mutates, GET reads, 405 for the wrong method,
// 400 with a reason for a bad body.
package netctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Server handles the netctl API over the fabric a scenario runtime
// scripts. Safe for concurrent use: the table and net carry their own
// locks, and the server's mutex covers the observer and the event
// fan-out.
type Server struct {
	rt    *scenario.Runtime
	table *scenario.Table
	net   *netem.Net
	links map[string]netem.Link

	mu      sync.Mutex
	o       obs.Observer
	recent  []scenario.Event
	subs    map[int]chan scenario.Event
	nextSub int

	mux *http.ServeMux
}

// New builds a server over rt's fabric: its shape table, its virtual
// clock, and its declared links, whose base profiles are the stock netem
// links of the same names. net is the fabric rt is attached to.
func New(rt *scenario.Runtime, net *netem.Net) *Server {
	s := &Server{
		rt:    rt,
		table: rt.Table(),
		net:   net,
		links: map[string]netem.Link{},
		subs:  map[int]chan scenario.Event{},
		mux:   http.NewServeMux(),
	}
	for _, name := range s.table.Links() {
		s.links[name], _ = netem.ByName(name)
	}
	s.mux.HandleFunc("/links", s.handleLinks)
	s.mux.HandleFunc("/links/shape", s.handleShape)
	s.mux.HandleFunc("/links/clear", s.handleClear)
	s.mux.HandleFunc("/scenario", s.handleScenario)
	s.mux.HandleFunc("/probe", s.handleProbe)
	s.mux.HandleFunc("/state", s.handleState)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// now is the fabric's virtual clock.
func (s *Server) now() time.Time { return s.rt.Clock().Now() }

// SetObserver attaches metrics: mutations, probes, and live scenario
// loads are counted. Call before serving.
func (s *Server) SetObserver(o obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.o = o
	if o.Metrics != nil {
		o.Metrics.Help("netctl_mutations_total", "live link mutations accepted, by endpoint")
		o.Metrics.Help("netctl_probes_total", "throughput probes served, by outcome")
		o.Metrics.Help("netctl_scenario_loads_total", "scenarios loaded live over the API")
	}
}

func (s *Server) observer() obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.o
}

func (s *Server) count(name string, labels ...obs.Label) {
	if o := s.observer(); o.Metrics != nil {
		o.Metrics.Counter(name, labels...).Inc()
	}
}

// PublishEvent feeds a phase transition into the /events stream and the
// /state event log; wire it as the runtime's event hook:
//
//	rt.SetEventHook(srv.PublishEvent)
func (s *Server) PublishEvent(e scenario.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent = append(s.recent, e)
	if len(s.recent) > 64 {
		s.recent = s.recent[len(s.recent)-64:]
	}
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop rather than stall the clock
		}
	}
}

func (s *Server) subscribe() (int, chan scenario.Event, []scenario.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSub
	s.nextSub++
	ch := make(chan scenario.Event, 16)
	s.subs[id] = ch
	return id, ch, append([]scenario.Event(nil), s.recent...)
}

func (s *Server) unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// linkParams is the wire form of a link profile, rendered in the
// scenario DSL's units so values copy straight into a phase directive.
type linkParams struct {
	Latency   string  `json:"latency"`
	Bandwidth string  `json:"bandwidth"`
	Loss      float64 `json:"loss"`
	Jitter    string  `json:"jitter"`
}

func paramsOf(l netem.Link) linkParams {
	return linkParams{
		Latency:   l.Latency.String(),
		Bandwidth: scenario.FormatBandwidth(l.Bandwidth),
		Loss:      l.LossRate,
		Jitter:    l.Jitter.String(),
	}
}

type linkView struct {
	Name       string     `json:"name"`
	Base       linkParams `json:"base"`
	Effective  linkParams `json:"effective"`
	Down       bool       `json:"down"`
	NextChange string     `json:"next_change,omitempty"` // virtual time of the next scheduled shape change
}

func (s *Server) viewLink(name string) linkView {
	base := s.links[name]
	// The table only holds shapes that compose with these stock bases.
	eff, ok, _ := s.net.EffectiveLink(base)
	v := linkView{Name: name, Base: paramsOf(base), Effective: paramsOf(eff), Down: !ok}
	if _, next := s.table.ShapeAt(name, s.now()); !next.IsZero() {
		v.NextChange = next.UTC().Format(time.RFC3339Nano)
	}
	return v
}

func (s *Server) viewLinks() []linkView {
	names := s.table.Links()
	out := make([]linkView, 0, len(names))
	for _, name := range names {
		out = append(out, s.viewLink(name))
	}
	return out
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.viewLinks())
}

// shapeRequest is the /links/shape body: every field optional except the
// link name, values in DSL syntax. The composed shape replaces whatever
// live shape held before; scheduled scenario epochs still fire later.
type shapeRequest struct {
	Link      string   `json:"link"`
	Down      bool     `json:"down"`
	Factor    float64  `json:"factor"`    // >1 degrades latency, jitter, bandwidth
	Latency   string   `json:"latency"`   // e.g. "60ms"
	Bandwidth string   `json:"bandwidth"` // e.g. "20Mbps"
	Loss      *float64 `json:"loss"`      // [0,1)
	Jitter    string   `json:"jitter"`
}

func (req shapeRequest) shape() (netem.LinkShape, error) {
	var sh netem.LinkShape
	sh.Down = req.Down
	if f := req.Factor; f != 0 {
		if !(f > 1) {
			return sh, fmt.Errorf("factor must be > 1")
		}
		sh.Factor = f
	}
	var p netem.LinkPatch
	if req.Latency != "" {
		d, err := time.ParseDuration(req.Latency)
		if err != nil || d < 0 {
			return sh, fmt.Errorf("bad latency %q", req.Latency)
		}
		p.Latency = &d
	}
	if req.Jitter != "" {
		d, err := time.ParseDuration(req.Jitter)
		if err != nil || d < 0 {
			return sh, fmt.Errorf("bad jitter %q", req.Jitter)
		}
		p.Jitter = &d
	}
	if req.Bandwidth != "" {
		bw, err := scenario.ParseBandwidth(req.Bandwidth)
		if err != nil {
			return sh, err
		}
		p.Bandwidth = &bw
	}
	if req.Loss != nil {
		f := *req.Loss
		if !(f >= 0 && f < 1) {
			return sh, fmt.Errorf("loss must be in [0,1)")
		}
		p.LossRate = &f
	}
	if !p.Zero() {
		q := p
		sh.Patch = &q
	}
	if sh.Zero() {
		return sh, fmt.Errorf("shape changes nothing (set down, factor, or a parameter)")
	}
	return sh, nil
}

func (s *Server) handleShape(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req shapeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	sh, err := req.shape()
	if err != nil {
		http.Error(w, "bad shape: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.table.Apply(req.Link, s.now(), sh); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.count("netctl_mutations_total", obs.L("endpoint", "shape"))
	writeJSON(w, s.viewLink(req.Link))
}

func (s *Server) handleClear(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Link string `json:"link"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.table.Clear(req.Link, s.now()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.count("netctl_mutations_total", obs.L("endpoint", "clear"))
	writeJSON(w, s.viewLink(req.Link))
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, scenario.Format(s.rt.Scenario()))
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		scn, err := scenario.ParseString(string(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.table.Merge(scn, s.now()); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.count("netctl_scenario_loads_total")
		s.count("netctl_mutations_total", obs.L("endpoint", "scenario"))
		writeJSON(w, map[string]any{
			"name":    scn.Name,
			"links":   scn.LinkNames(),
			"phases":  len(scn.Phases),
			"horizon": scn.Horizon().String(),
		})
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("link")
	if name == "" {
		http.Error(w, "missing link parameter", http.StatusBadRequest)
		return
	}
	base, ok := s.links[name]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown link %q", name), http.StatusBadRequest)
		return
	}
	var cfg netem.ProbeConfig
	if v := r.URL.Query().Get("bytes"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			http.Error(w, "bad bytes parameter", http.StatusBadRequest)
			return
		}
		cfg.Bytes = n
	}
	tol := 0.25
	if v := r.URL.Query().Get("tol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) {
			http.Error(w, "bad tol parameter", http.StatusBadRequest)
			return
		}
		tol = f
	}
	res, err := s.net.Probe(base, cfg)
	if err != nil {
		s.count("netctl_probes_total", obs.L("outcome", "failed"))
		code := http.StatusServiceUnavailable
		if errors.Is(err, netem.ErrRange) {
			code = http.StatusBadRequest // bytes too large to model
		}
		http.Error(w, err.Error(), code)
		return
	}
	checkErr := res.Check(tol)
	outcome := "within_tolerance"
	if checkErr != nil {
		outcome = "out_of_tolerance"
	}
	s.count("netctl_probes_total", obs.L("outcome", outcome))
	out := map[string]any{
		"link":     res.Link,
		"declared": paramsOf(res.Declared),
		"measured": map[string]any{
			"bandwidth": scenario.FormatBandwidth(res.MeasuredBandwidth),
			"rtt":       res.MeasuredRTT.String(),
			"loss":      res.MeasuredLoss,
		},
		"transfers":        res.Transfers,
		"retransmits":      res.Retransmits,
		"elapsed":          res.Elapsed.String(),
		"tolerance":        tol,
		"within_tolerance": checkErr == nil,
	}
	if checkErr != nil {
		out["check"] = checkErr.Error()
	}
	writeJSON(w, out)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	events := append([]scenario.Event(nil), s.recent...)
	s.mu.Unlock()
	writeJSON(w, map[string]any{
		"now":         s.now().UTC().Format(time.RFC3339Nano),
		"links":       s.viewLinks(),
		"events":      events,
		"scenario":    s.rt.Describe(),
		"transitions": s.rt.Transitions(),
	})
}

// handleEvents streams phase transitions and live mutations as
// server-sent events: the recent backlog first, then live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	id, ch, backlog := s.subscribe()
	defer s.unsubscribe(id)
	emit := func(e scenario.Event) {
		b, _ := json.Marshal(e)
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
	}
	for _, e := range backlog {
		emit(e)
	}
	for {
		select {
		case e := <-ch:
			emit(e)
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, indexHTML)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

const indexHTML = `<!DOCTYPE html>
<html><head><title>netctl</title><style>
body { font-family: monospace; margin: 1.5em; background: #111; color: #ddd; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; color: #8cf; }
table { border-collapse: collapse; } td, th { padding: 2px 10px; border: 1px solid #333; text-align: left; }
.down { color: #f66; } input, textarea, button { font-family: monospace; background: #222; color: #ddd; border: 1px solid #444; }
#log { max-height: 12em; overflow-y: auto; white-space: pre; color: #9c9; }
</style></head><body>
<h1>netctl &mdash; live network control plane</h1>
<h2>links</h2><table id="links"><tr><th>link</th><th>effective</th><th>next change</th></tr></table>
<h2>shape</h2>
<form onsubmit="return shape(this)">
link <input name="link" size="12"> latency <input name="latency" size="6" placeholder="60ms">
bandwidth <input name="bandwidth" size="8" placeholder="20Mbps"> loss <input name="loss" size="5" placeholder="0.02">
down <input type="checkbox" name="down"> <button>apply</button>
<button type="button" onclick="clearLink(this.form)">clear</button>
</form>
<h2>load scenario</h2>
<form onsubmit="return loadScn(this)"><textarea name="text" rows="6" cols="70"></textarea><br><button>load</button></form>
<h2>events</h2><div id="log"></div>
<script>
function logLine(s) { const d = document.getElementById('log'); d.textContent += s + "\n"; d.scrollTop = d.scrollHeight; }
async function refresh() {
  const links = await (await fetch('links')).json();
  const t = document.getElementById('links');
  while (t.rows.length > 1) t.deleteRow(1);
  for (const l of links) {
    const r = t.insertRow();
    r.insertCell().textContent = l.name;
    const e = r.insertCell();
    e.textContent = l.down ? 'DOWN' : l.effective.latency + ' / ' + l.effective.bandwidth + ' / loss ' + l.effective.loss;
    if (l.down) e.className = 'down';
    r.insertCell().textContent = l.next_change || '-';
  }
}
async function shape(f) {
  const body = { link: f.link.value, down: f.down.checked };
  if (f.latency.value) body.latency = f.latency.value;
  if (f.bandwidth.value) body.bandwidth = f.bandwidth.value;
  if (f.loss.value) body.loss = parseFloat(f.loss.value);
  const r = await fetch('links/shape', { method: 'POST', body: JSON.stringify(body) });
  logLine((r.ok ? 'shaped ' : 'shape rejected: ') + await r.text());
  refresh(); return false;
}
async function clearLink(f) {
  const r = await fetch('links/clear', { method: 'POST', body: JSON.stringify({ link: f.link.value }) });
  logLine((r.ok ? 'cleared ' : 'clear rejected: ') + await r.text());
  refresh();
}
async function loadScn(f) {
  const r = await fetch('scenario', { method: 'POST', body: f.text.value });
  logLine((r.ok ? 'loaded ' : 'load rejected: ') + await r.text());
  refresh(); return false;
}
new EventSource('events').onmessage = (m) => { logLine('event ' + m.data); refresh(); };
refresh(); setInterval(refresh, 2000);
</script></body></html>
`
