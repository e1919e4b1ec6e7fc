package tub

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ReadAll returns all live (non-deleted) records in index order.
func (t *Tub) ReadAll() ([]StoredRecord, error) {
	return t.read(false)
}

// ReadAllIncludingDeleted returns every record, including marked ones.
func (t *Tub) ReadAllIncludingDeleted() ([]StoredRecord, error) {
	return t.read(true)
}

func (t *Tub) read(includeDeleted bool) ([]StoredRecord, error) {
	m, err := t.readManifest()
	if err != nil {
		return nil, err
	}
	deleted := make(map[int]bool, len(m.DeletedIndexes))
	for _, i := range m.DeletedIndexes {
		deleted[i] = true
	}
	var out []StoredRecord
	for _, cat := range m.CatalogPaths {
		f, err := os.Open(filepath.Join(t.Dir, cat))
		if err != nil {
			return nil, fmt.Errorf("tub: open catalog %s: %w", cat, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			var rec StoredRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				f.Close()
				return nil, fmt.Errorf("tub: %s line %d: %w", cat, lineNo, err)
			}
			if includeDeleted || !deleted[rec.Index] {
				out = append(out, rec)
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("tub: scan %s: %w", cat, err)
		}
		f.Close()
	}
	return out, nil
}

// SizeBytes returns the total on-disk footprint of the tub (catalogs,
// manifests and images), used by the transfer benchmarks.
func (t *Tub) SizeBytes() (int64, error) {
	var total int64
	err := filepath.Walk(t.Dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("tub: size: %w", err)
	}
	return total, nil
}
