package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	if err := s.CreateContainer("datasets"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	data := []byte("hello tub")
	info, err := s.Put("datasets", "oval/tub1.tar", data, map[string]string{"track": "oval"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) || info.ETag == "" {
		t.Errorf("info = %+v", info)
	}
	got, gi, err := s.Get("datasets", "oval/tub1.tar")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted")
	}
	if gi.Metadata["track"] != "oval" {
		t.Error("metadata lost")
	}
}

func TestPutCopiesData(t *testing.T) {
	s := newStore(t)
	data := []byte{1, 2, 3}
	if _, err := s.Put("datasets", "x", data, nil); err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	got, _, err := s.Get("datasets", "x")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("Put aliases caller slice")
	}
	got[1] = 99
	again, _, _ := s.Get("datasets", "x")
	if again[1] != 2 {
		t.Error("Get aliases internal storage")
	}
}

func TestETagChangesWithContent(t *testing.T) {
	s := newStore(t)
	a, _ := s.Put("datasets", "x", []byte("v1"), nil)
	b, _ := s.Put("datasets", "x", []byte("v2"), nil)
	if a.ETag == b.ETag {
		t.Error("etag did not change")
	}
	c, _ := s.Put("datasets", "y", []byte("v1"), nil)
	if a.ETag != c.ETag {
		t.Error("same content gave different etags")
	}
}

func TestMissingLookups(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Get("nope", "x"); !errors.Is(err, ErrNoContainer) {
		t.Errorf("got %v", err)
	}
	if _, _, err := s.Get("datasets", "nope"); !errors.Is(err, ErrNoObject) {
		t.Errorf("got %v", err)
	}
	if _, err := s.Head("datasets", "nope"); !errors.Is(err, ErrNoObject) {
		t.Errorf("got %v", err)
	}
}

func TestCreateDuplicateContainer(t *testing.T) {
	s := newStore(t)
	if err := s.CreateContainer("datasets"); !errors.Is(err, ErrExists) {
		t.Errorf("got %v", err)
	}
}

func TestBadNames(t *testing.T) {
	s := newStore(t)
	if err := s.CreateContainer(""); !errors.Is(err, ErrBadName) {
		t.Errorf("empty container name: %v", err)
	}
	if _, err := s.Put("datasets", "", nil, nil); !errors.Is(err, ErrBadName) {
		t.Errorf("empty object name: %v", err)
	}
	if _, err := s.Put("datasets", "a\nb", nil, nil); !errors.Is(err, ErrBadName) {
		t.Errorf("newline name: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", i)
			for j := 0; j < 50; j++ {
				if _, err := s.Put("datasets", name, []byte{byte(j)}, nil); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get("datasets", name); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 16; i++ {
		if info, err := s.Head("datasets", fmt.Sprintf("obj-%d", i)); err != nil || info.Size != 1 {
			t.Errorf("obj-%d: %+v, %v", i, info, err)
		}
	}
}

// Property: any byte content round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	s := newStore(t)
	f := func(data []byte) bool {
		if _, err := s.Put("datasets", "prop", data, nil); err != nil {
			return false
		}
		got, info, err := s.Get("datasets", "prop")
		if err != nil {
			return false
		}
		return bytes.Equal(got, data) && info.Size == int64(len(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
