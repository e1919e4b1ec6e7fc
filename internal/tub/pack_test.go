package tub

import (
	"archive/tar"
	"bytes"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	src, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, src, 12, func(i int) float64 { return float64(i) / 10 })
	if err := src.MarkDeleted(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Pack(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Unpack(bytes.NewReader(buf.Bytes()), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Errorf("live records after round trip = %d, want 11", n)
	}
	recs, err := dst.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Images travel too.
	if _, err := dst.LoadFrame(recs[0].Image, 1); err != nil {
		t.Errorf("image lost: %v", err)
	}
	// Deletion marks travel.
	for _, r := range recs {
		if r.Index == 3 {
			t.Error("deletion of record 3 lost")
		}
	}
}

func TestUnpackRejectsTraversal(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{Name: "../evil", Mode: 0o644, Size: 1, Typeflag: tar.TypeReg})
	tw.Write([]byte("x"))
	tw.Close()
	if _, err := Unpack(bytes.NewReader(buf.Bytes()), t.TempDir()); err == nil {
		t.Error("path traversal accepted")
	}
}

func TestUnpackRejectsWeirdEntries(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{Name: "link", Linkname: "/etc/passwd", Typeflag: tar.TypeSymlink})
	tw.Close()
	if _, err := Unpack(bytes.NewReader(buf.Bytes()), t.TempDir()); err == nil {
		t.Error("symlink entry accepted")
	}
}

func TestUnpackGarbage(t *testing.T) {
	if _, err := Unpack(bytes.NewReader([]byte("not a tar")), t.TempDir()); err == nil {
		t.Error("garbage accepted")
	}
}
