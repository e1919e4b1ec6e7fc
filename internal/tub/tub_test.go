package tub

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
)

func mkFrame(t testing.TB, w, h, c int, fill uint8) *sim.Frame {
	t.Helper()
	f, err := sim.NewFrame(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Pix {
		f.Pix[i] = fill
	}
	return f
}

func mkRecord(t testing.TB, i int, angle float64) sim.Record {
	t.Helper()
	return sim.Record{
		Index:     i,
		Frame:     mkFrame(t, 8, 6, 1, uint8(i%256)),
		Steering:  angle,
		Throttle:  0.3,
		Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond),
	}
}

func writeN(t testing.TB, tb *Tub, n int, angle func(int) float64) {
	t.Helper()
	w, err := NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Write(mkRecord(t, i, angle(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("expected ErrNotTub")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 25, func(i int) float64 { return float64(i) / 100 })
	recs, err := tb.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Fatalf("got %d records, want 25", len(recs))
	}
	for i, r := range recs {
		if r.Index != i {
			t.Errorf("record %d has index %d", i, r.Index)
		}
		if math.Abs(r.Angle-float64(i)/100) > 1e-12 {
			t.Errorf("record %d angle %g", i, r.Angle)
		}
		if r.Mode != "user" {
			t.Errorf("record %d mode %q", i, r.Mode)
		}
	}
}

func TestCatalogChunking(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	w.CatalogSize = 10
	for i := 0; i < 25; i++ {
		if _, err := w.Write(mkRecord(t, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := tb.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CatalogPaths) != 3 {
		t.Fatalf("got %d catalogs, want 3", len(m.CatalogPaths))
	}
	// Each chunk's sidecar manifest records where it starts and its size.
	var cats []catalogManifest
	for _, p := range m.CatalogPaths {
		data, err := os.ReadFile(filepath.Join(tb.Dir, p+"_manifest"))
		if err != nil {
			t.Fatal(err)
		}
		var cm catalogManifest
		if err := json.Unmarshal(data, &cm); err != nil {
			t.Fatal(err)
		}
		cats = append(cats, cm)
	}
	if cats[0].Count != 10 || cats[1].Count != 10 || cats[2].Count != 5 {
		t.Errorf("catalog counts = %d,%d,%d", cats[0].Count, cats[1].Count, cats[2].Count)
	}
	if cats[1].StartIndex != 10 || cats[2].StartIndex != 20 {
		t.Errorf("start indexes = %d,%d", cats[1].StartIndex, cats[2].StartIndex)
	}
}

func TestAppendAcrossWriters(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 5, func(int) float64 { return 0 })
	writeN(t, tb, 5, func(int) float64 { return 1 })
	recs, err := tb.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	if recs[9].Index != 9 {
		t.Errorf("last index %d, want 9", recs[9].Index)
	}
}

func TestMarkDeletedAndRestore(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 10, func(int) float64 { return 0 })
	if err := tb.MarkDeleted(2, 3, 3, 7); err != nil {
		t.Fatal(err)
	}
	n, err := tb.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("live count = %d, want 7", n)
	}
	recs, err := tb.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Index == 2 || r.Index == 3 || r.Index == 7 {
			t.Errorf("deleted record %d still returned", r.Index)
		}
	}
	if err := tb.Restore(3); err != nil {
		t.Fatal(err)
	}
	n, _ = tb.Count()
	if n != 8 {
		t.Errorf("count after restore = %d, want 8", n)
	}
}

func TestMarkDeletedOutOfRange(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 3, func(int) float64 { return 0 })
	if err := tb.MarkDeleted(5); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := tb.MarkDeleted(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestImagesRoundTrip(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	f := mkFrame(t, 8, 6, 3, 0)
	f.Set(2, 3, 10, 200, 30)
	if _, err := w.Write(sim.Record{Frame: f, Timestamp: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := tb.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.LoadFrame(recs[0].Image, 3)
	if err != nil {
		t.Fatal(err)
	}
	px := got.At(2, 3)
	if px[0] != 10 || px[1] != 200 || px[2] != 30 {
		t.Errorf("pixel round trip = %v", px)
	}
	gray, err := tb.LoadFrame(recs[0].Image, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gray.C != 1 {
		t.Error("grayscale load has wrong channels")
	}
}

// TestFrameCacheDropsRemovedTub: once a tub's directory is removed, the
// next Create drops its cached frames, so LoadFrame on the old handle
// goes to the (missing) file instead of serving the removed pixels, and
// the frames stop counting against the cache bound.
func TestFrameCacheDropsRemovedTub(t *testing.T) {
	root := t.TempDir()
	gone := filepath.Join(root, "gone")
	tb, err := Create(gone)
	if err != nil {
		t.Fatal(err)
	}
	name, err := tb.saveFrame(0, mkFrame(t, 8, 6, 1, 77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.LoadFrame(name, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(filepath.Join(root, "next")); err != nil {
		t.Fatal(err)
	}
	if f, err := tb.LoadFrame(name, 1); err == nil {
		t.Fatalf("LoadFrame served a removed tub's frame (first pixel %d)", f.Pix[0])
	}
	if cacheGetFrame(gone, name) != nil {
		t.Error("removed tub's frame is still cached")
	}
}

func TestWriterRejectsNilFrame(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(sim.Record{}); err == nil {
		t.Error("nil frame accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(mkRecord(t, 0, 0)); err == nil {
		t.Error("write after close accepted")
	}
}

func TestCleanSegments(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 20, func(int) float64 { return 0 })
	n, err := tb.CleanSegments(Segment{Start: 5, End: 10}, Segment{Start: 15, End: 16})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("marked %d, want 6", n)
	}
	live, _ := tb.Count()
	if live != 14 {
		t.Errorf("live = %d, want 14", live)
	}
	if _, err := tb.CleanSegments(Segment{Start: -1, End: 2}); err == nil {
		t.Error("bad segment accepted")
	}
	if _, err := tb.CleanSegments(Segment{Start: 0, End: 99}); err == nil {
		t.Error("overlong segment accepted")
	}
}

func TestDetectBadSegmentsFindsSpike(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Smooth driving with a violent incident in records 40-50.
	writeN(t, tb, 100, func(i int) float64 {
		if i >= 40 && i < 50 {
			return 0.95
		}
		return 0.05 * math.Sin(float64(i)/10)
	})
	segs, err := tb.DetectBadSegments(DefaultCleanerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments detected")
	}
	covered := false
	for _, s := range segs {
		if s.Start <= 42 && s.End >= 48 {
			covered = true
		}
		if s.Len() <= 0 {
			t.Errorf("empty segment %+v", s)
		}
	}
	if !covered {
		t.Errorf("incident not covered by %v", segs)
	}
	// Clean driving outside the incident should survive.
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	if total > 40 {
		t.Errorf("detector too aggressive: marked %d of 100", total)
	}
}

func TestAutoCleanReducesCount(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 60, func(i int) float64 {
		if i >= 20 && i < 30 {
			return 0.9
		}
		return 0
	})
	marked, err := tb.AutoClean(DefaultCleanerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if marked == 0 {
		t.Fatal("autoclean marked nothing")
	}
	live, _ := tb.Count()
	if live+marked != 60 {
		t.Errorf("live %d + marked %d != 60", live, marked)
	}
}

func TestSizeBytesGrowsWithRecords(t *testing.T) {
	dir := t.TempDir()
	tb, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := tb.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, tb, 5, func(int) float64 { return 0 })
	full, err := tb.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if full <= empty {
		t.Errorf("size did not grow: %d -> %d", empty, full)
	}
	// Images are actually on disk.
	entries, err := os.ReadDir(filepath.Join(dir, "images"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Errorf("images dir has %d files, want 5", len(entries))
	}
}

func TestWriteSessionReportsBad(t *testing.T) {
	tb, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.SessionResult{}
	for i := 0; i < 6; i++ {
		r := mkRecord(t, i, 0)
		r.Bad = i == 2 || i == 4
		res.Records = append(res.Records, r)
	}
	bad, err := w.WriteSession(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0] != 2 || bad[1] != 4 {
		t.Errorf("bad indexes = %v", bad)
	}
}

func TestMergeMixAndMatch(t *testing.T) {
	a, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, a, 8, func(i int) float64 { return 0.1 })
	b, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, b, 5, func(i int) float64 { return 0.2 })
	// A deleted record in a source must not travel.
	if err := b.MarkDeleted(2); err != nil {
		t.Fatal(err)
	}
	dst, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Merge(dst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 12 {
		t.Fatalf("copied %d, want 12", copied)
	}
	recs, err := dst.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("merged tub has %d records", len(recs))
	}
	// Indexes are re-sequenced and labels survive.
	if recs[0].Angle != 0.1 || recs[8].Angle != 0.2 {
		t.Errorf("labels scrambled: %g, %g", recs[0].Angle, recs[8].Angle)
	}
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("index %d at position %d", r.Index, i)
		}
	}
	// Images travel.
	if _, err := dst.LoadFrame(recs[11].Image, 1); err != nil {
		t.Errorf("merged image unreadable: %v", err)
	}
}

func TestMergeValidation(t *testing.T) {
	dst, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(nil, dst); err == nil {
		t.Error("nil destination accepted")
	}
	if _, err := Merge(dst); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := Merge(dst, nil); err == nil {
		t.Error("nil source accepted")
	}
}
