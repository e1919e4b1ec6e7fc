package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fixedClock ticks a deterministic amount per call.
func fixedClock(step time.Duration) Clock {
	now := time.Unix(1_700_000_000, 0).UTC()
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: "t1234", SpanID: "s5678"}
	if !sc.Valid() {
		t.Fatal("context should be valid")
	}
	got, ok := ParseSpanContext(sc.String())
	if !ok || got != sc {
		t.Fatalf("ParseSpanContext(%q) = %v, %v", sc.String(), got, ok)
	}
	for _, bad := range []string{"", "noseparator", ":leading", "trailing:"} {
		if _, ok := ParseSpanContext(bad); ok {
			t.Errorf("ParseSpanContext(%q) accepted", bad)
		}
	}
	if (SpanContext{}).Valid() {
		t.Fatal("zero context must be invalid")
	}
	if (SpanContext{}).String() != "" {
		t.Fatal("zero context must serialize empty")
	}
}

func TestHTTPPropagation(t *testing.T) {
	tr := NewTracerWithClock(fixedClock(time.Millisecond))
	client := tr.Start("client-op")

	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set(TraceHeader, client.Context().String())
	if h := req.Header.Get(TraceHeader); h == "" {
		t.Fatal("Inject wrote no header")
	}

	got := ContextFromRequest(req)
	if got != client.Context() {
		t.Fatalf("extracted %v, want %v", got, client.Context())
	}
	server := tr.StartWith("server-op", got)
	if server.TraceID != client.TraceID {
		t.Errorf("server trace %q, want client trace %q", server.TraceID, client.TraceID)
	}
	if server.ParentID != client.ID {
		t.Errorf("server parent %q, want client span %q", server.ParentID, client.ID)
	}
	server.End()
	client.End()

	// No header → fresh root trace.
	fresh := tr.StartWith("server-op", ContextFromRequest(httptest.NewRequest(http.MethodGet, "/x", nil)))
	if fresh.ParentID != "" || fresh.TraceID == client.TraceID {
		t.Fatalf("invalid context should start a fresh root, got parent=%q trace=%q",
			fresh.ParentID, fresh.TraceID)
	}
	fresh.End()
}

func TestDeterministicIDs(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracerWithClock(fixedClock(time.Millisecond))
		root := tr.Start("round")
		a := root.Child("upload")
		a.End()
		b := root.Child("upload") // same name, next sibling
		b.End()
		remote := tr.StartWith("serve", root.Context())
		remote.End()
		root.End()
		return tr
	}
	t1, t2 := build(), build()
	s1, s2 := t1.Finished(), t2.Finished()
	if len(s1) != len(s2) {
		t.Fatalf("span counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].ID != s2[i].ID || s1[i].TraceID != s2[i].TraceID {
			t.Errorf("span %d IDs differ: (%s,%s) vs (%s,%s)",
				i, s1[i].TraceID, s1[i].ID, s2[i].TraceID, s2[i].ID)
		}
	}
	// Sibling spans sharing a name must still get distinct IDs.
	if s1[0].ID == s1[1].ID {
		t.Fatalf("sibling upload spans share ID %s", s1[0].ID)
	}
}

// TestConcurrentExportDeterminism is the regression test for JSONL
// ordering: two runs whose spans finish in scheduler-dependent order must
// still export byte-identical files.
func TestConcurrentExportDeterminism(t *testing.T) {
	run := func() []byte {
		start := time.Unix(1_700_000_000, 0).UTC()
		tr := NewTracerWithClock(func() time.Time { return start })
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				names := []string{"alpha", "beta", "gamma", "delta",
					"epsilon", "zeta", "eta", "theta"}
				root := tr.Start(names[g])
				for j := 0; j < 50; j++ {
					sp := root.Child("op")
					sp.SetAttr("j", j)
					sp.End()
				}
				root.End()
			}(g)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("concurrent runs exported different trace bytes")
	}
}

// TestTraceSchemaGolden pins the v1 JSONL format: any change to the
// record shape must update the golden file and bump TraceSchemaVersion.
func TestTraceSchemaGolden(t *testing.T) {
	tr := NewTracerWithClock(fixedClock(250 * time.Millisecond))
	root := tr.Start("fed-round")
	up := root.Child("upload")
	up.SetAttr("bytes", 4096)
	up.SetSimDuration("transfer", 1500*time.Millisecond)
	up.End()
	remote := tr.StartWith("serve-reload", root.Context())
	remote.EndErr(os.ErrNotExist)
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_schema_v1.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace format drifted from %s:\ngot:\n%swant:\n%s", golden, buf.Bytes(), want)
	}

	// The reader must accept its own format and reject future schemas.
	recs, err := ReadTraceJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("ReadTraceJSONL on golden: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("golden spans = %d, want 3", len(recs))
	}
	if _, err := ReadTraceJSONL(bytes.NewReader(
		[]byte(`{"v":99,"trace":"t","id":"s","name":"x","start":"2023-11-14T22:13:20Z","dur_ms":1}`),
	)); err == nil {
		t.Fatal("future schema version accepted")
	}
}

func TestWriteTraceReport(t *testing.T) {
	tr := NewTracerWithClock(fixedClock(100 * time.Millisecond))
	root := tr.Start("fed-round")
	a := root.Child("upload")
	a.SetSimDuration("transfer", 2*time.Second)
	a.End()
	b := root.Child("aggregate")
	b.End()
	root.End()

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTraceJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := WriteTraceReport(&rep, recs); err != nil {
		t.Fatalf("report error: %v\n%s", err, rep.String())
	}
	out := rep.String()
	for _, want := range []string{"fed-round", "upload", "aggregate",
		"critical path:", "orphans: 0"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// A span pointing at a parent outside the file is an error.
	recs[1].Parent = "s-nonexistent"
	var rep2 bytes.Buffer
	if err := WriteTraceReport(&rep2, recs); err == nil {
		t.Fatal("orphan span did not produce an error")
	}
}
