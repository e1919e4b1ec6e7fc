// Package eval computes the model-evaluation metrics the paper tells
// students to measure when they "drive [cars] around the track measuring
// qualities of interest (speed, number of errors, etc.)": lap times, lap
// counts, crash/off-track error rates, lateral tracking error, and the
// speed-consistency metric of the companion poster "Road To Reliability:
// Optimizing Self-Driving Consistency With Real-Time Speed Data".
package eval

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/track"
)

// Report is the per-run evaluation summary.
type Report struct {
	Laps       int
	Crashes    int
	Records    int
	MeanSpeed  float64 // m/s over moving ticks
	MaxSpeed   float64
	MaxLateral float64 // worst absolute offset from centerline, meters
	RMSLateral float64 // root-mean-square lateral offset
	LapTimes   []time.Duration
	BestLap    time.Duration
	MeanLap    time.Duration
	// SpeedConsistency is the coefficient of variation of per-tick speed
	// over moving ticks (lower = steadier driving; the poster's metric).
	SpeedConsistency float64
	// ErrorsPerLap is crashes divided by completed laps (Inf with zero laps
	// and nonzero crashes, 0 when both are zero).
	ErrorsPerLap float64
}

// Evaluate analyzes a completed session on its track.
func Evaluate(res sim.SessionResult, trk *track.Track, hz float64) (Report, error) {
	if trk == nil {
		return Report{}, fmt.Errorf("eval: nil track")
	}
	if hz <= 0 {
		return Report{}, fmt.Errorf("eval: hz must be positive")
	}
	r := Report{Laps: res.Laps, Crashes: res.Crashes, Records: len(res.Records)}
	switch {
	case r.Laps > 0:
		r.ErrorsPerLap = float64(r.Crashes) / float64(r.Laps)
	case r.Crashes > 0:
		r.ErrorsPerLap = math.Inf(1)
	}
	if len(res.Records) == 0 {
		return r, nil
	}

	cl := trk.Centerline
	lapLen := cl.Length()
	dt := time.Duration(float64(time.Second) / hz)

	var latSq, speedSum, speedSq float64
	var moving int
	progress := 0.0
	prevS := cl.Project(track.Point{X: res.Records[0].State.X, Y: res.Records[0].State.Y}).S
	lapStart := res.Records[0].Timestamp

	for _, rec := range res.Records {
		if a := math.Abs(rec.Lateral); a > r.MaxLateral {
			r.MaxLateral = a
		}
		latSq += rec.Lateral * rec.Lateral
		v := rec.State.Speed
		if v > r.MaxSpeed {
			r.MaxSpeed = v
		}
		if v > 0.05 {
			speedSum += v
			speedSq += v * v
			moving++
		}
		proj := cl.Project(track.Point{X: rec.State.X, Y: rec.State.Y})
		ds := proj.S - prevS
		if ds > lapLen/2 {
			ds -= lapLen
		} else if ds < -lapLen/2 {
			ds += lapLen
		}
		progress += ds
		prevS = proj.S
		for progress >= lapLen {
			progress -= lapLen
			lapEnd := rec.Timestamp.Add(dt)
			r.LapTimes = append(r.LapTimes, lapEnd.Sub(lapStart))
			lapStart = lapEnd
		}
	}

	r.RMSLateral = math.Sqrt(latSq / float64(len(res.Records)))
	if moving > 0 {
		mean := speedSum / float64(moving)
		r.MeanSpeed = mean
		variance := speedSq/float64(moving) - mean*mean
		if variance < 0 {
			variance = 0
		}
		if mean > 0 {
			r.SpeedConsistency = math.Sqrt(variance) / mean
		}
	}
	if len(r.LapTimes) > 0 {
		best := r.LapTimes[0]
		var sum time.Duration
		for _, lt := range r.LapTimes {
			if lt < best {
				best = lt
			}
			sum += lt
		}
		r.BestLap = best
		r.MeanLap = sum / time.Duration(len(r.LapTimes))
	}
	return r, nil
}

// Frontier scores a pilot on the paper's speed-vs-accuracy trade-off
// ("the inferred model was best because it gave the car the ability to
// speed fast, while still being accurate"): mean speed discounted by
// errors. Higher is better.
func (r Report) Frontier() float64 {
	return r.MeanSpeed / (1 + float64(r.Crashes))
}

// Comparison holds one pilot's evaluation row for the six-model table.
type Comparison struct {
	Name       string
	TrainLoss  float64
	ValLoss    float64
	ParamCount int
	Report     Report
}

// Best returns the index of the comparison with the highest frontier score
// (-1 for an empty slice).
func Best(rows []Comparison) int {
	best, bi := math.Inf(-1), -1
	for i, r := range rows {
		if s := r.Report.Frontier(); s > best {
			best, bi = s, i
		}
	}
	return bi
}
