package tub

import (
	"fmt"
	"math"
)

// This file implements the tubclean utility from the paper: "users watch
// the video, select the parts that need to be deleted, which the program
// then correlates to invalid data records that need to be cleaned up."
// The interactive video review is modeled as a segment-selection API plus
// automatic heuristics that propose the segments a student would spot.

// Segment is a half-open index range [Start, End) of records to delete.
type Segment struct {
	Start, End int
}

// Len returns the number of records in the segment.
func (s Segment) Len() int {
	if s.End <= s.Start {
		return 0
	}
	return s.End - s.Start
}

// CleanSegments marks every record in the given segments as deleted, the
// way the tubclean UI commits a student's selections.
func (t *Tub) CleanSegments(segs ...Segment) (marked int, err error) {
	var idx []int
	total, err := t.TotalCount()
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		if s.Start < 0 || s.End > total || s.End < s.Start {
			return 0, fmt.Errorf("tub: segment [%d,%d) out of range [0,%d)", s.Start, s.End, total)
		}
		for i := s.Start; i < s.End; i++ {
			idx = append(idx, i)
		}
	}
	if err := t.MarkDeleted(idx...); err != nil {
		return 0, err
	}
	return len(idx), nil
}

// CleanerConfig tunes the automatic bad-segment detector.
type CleanerConfig struct {
	// JerkThreshold flags steering changes per record larger than this.
	JerkThreshold float64
	// SaturationRun flags runs of at least this many records at |angle| >=
	// SaturationLevel, which in practice is a spin or a crash recovery.
	SaturationRun   int
	SaturationLevel float64
	// Pad widens each detected segment by this many records on both sides,
	// as a human reviewer deletes a little extra around an incident.
	Pad int
}

// DefaultCleanerConfig matches how practiced students clean driving data.
func DefaultCleanerConfig() CleanerConfig {
	return CleanerConfig{
		JerkThreshold:   0.45,
		SaturationRun:   6,
		SaturationLevel: 0.65,
		Pad:             3,
	}
}

// DetectBadSegments proposes segments to delete using the heuristics in
// cfg. It does not modify the tub; pass the result to CleanSegments.
func (t *Tub) DetectBadSegments(cfg CleanerConfig) ([]Segment, error) {
	recs, err := t.ReadAllIncludingDeleted()
	if err != nil {
		return nil, err
	}
	n := len(recs)
	bad := make([]bool, n)

	// Heuristic 1: steering jerk.
	for i := 1; i < n; i++ {
		if math.Abs(recs[i].Angle-recs[i-1].Angle) > cfg.JerkThreshold {
			bad[i] = true
			bad[i-1] = true
		}
	}
	// Heuristic 2: sustained steering saturation.
	run := 0
	for i := 0; i < n; i++ {
		if math.Abs(recs[i].Angle) >= cfg.SaturationLevel {
			run++
		} else {
			run = 0
		}
		if run >= cfg.SaturationRun {
			for j := i - run + 1; j <= i; j++ {
				bad[j] = true
			}
		}
	}
	// Pad and merge into segments. Indexes here are positions in recs; since
	// recs is in index order and includes deleted records, positions equal
	// record indexes for tubs written by this package.
	padded := make([]bool, n)
	for i := 0; i < n; i++ {
		if !bad[i] {
			continue
		}
		lo := i - cfg.Pad
		hi := i + cfg.Pad
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			padded[j] = true
		}
	}
	var segs []Segment
	for i := 0; i < n; {
		if !padded[i] {
			i++
			continue
		}
		j := i
		for j < n && padded[j] {
			j++
		}
		segs = append(segs, Segment{Start: recs[i].Index, End: recs[j-1].Index + 1})
		i = j
	}
	return segs, nil
}

// AutoClean runs DetectBadSegments and commits the result, returning the
// number of records marked. This is the "one-click" cleaning pathway used
// by the quickstart example.
func (t *Tub) AutoClean(cfg CleanerConfig) (int, error) {
	segs, err := t.DetectBadSegments(cfg)
	if err != nil {
		return 0, err
	}
	return t.CleanSegments(segs...)
}
