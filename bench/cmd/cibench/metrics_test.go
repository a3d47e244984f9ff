package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The quartile cut points must be the ones Python's
// statistics.quantiles(xs, n=4) gives, which the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A stall confined to two of twelve stretches must leave the windowed
// p90 where the steady stretches put it, while pooling every sample
// would let it through; stretches too small to hold windowMin samples
// are joined until they do.
func TestWindowedIgnoresStalledStretches(t *testing.T) {
	stretch := func(n int, lat float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lat * (1 + float64(i)/float64(n)) // spread over [lat, 2 lat)
		}
		return xs
	}
	var steady, stalled [][]float64
	var pooled []float64
	for k := 0; k < 12; k++ {
		steady = append(steady, stretch(200, 1))
		lat := 1.0
		if k == 5 || k == 6 {
			lat = 50
		}
		stalled = append(stalled, stretch(200, lat))
		pooled = append(pooled, stalled[k]...)
	}
	want := windowed(steady, 0.9)
	if got := windowed(stalled, 0.9); math.Abs(got-want) > 1e-9 {
		t.Errorf("windowed p90 with two stalled stretches = %g, want the steady %g", got, want)
	}
	if p := quantile(pooled, 0.9); p < 2*want {
		t.Errorf("pooled p90 = %g; the stall should have moved it (steady %g)", p, want)
	}
	// 40 samples a stretch: windows of 3 stretches, the leftover stretch
	// joining the last window.
	var small [][]float64
	for k := 0; k < 10; k++ {
		small = append(small, stretch(40, 1))
	}
	if got := windowed(small, 0.5); math.Abs(got-windowed([][]float64{stretch(120, 1)}, 0.5)) > 0.02 {
		t.Errorf("windowed median over small stretches = %g", got)
	}
	// A last stretch too small for a window of its own joins the one
	// before it instead of counting as a window.
	if got := windowed([][]float64{stretch(200, 1), stretch(10, 100)}, 0.5); got > 2 {
		t.Errorf("windowed median = %g; the 10-sample stretch counted as a window", got)
	}
}

// Every time is divided, and every rate multiplied, by the slowdown of
// the stretch it was measured in; counts are not touched, and the raw
// values stay beside the normalised ones.
func TestEndToEndMetricsNormalisePerStretch(t *testing.T) {
	part := func(lat float64) *phaseRec {
		r := &phaseRec{commits: windowMin, labels: 3 * windowMin}
		for i := 0; i < windowMin; i++ {
			r.commitLat = append(r.commitLat, lat)
			r.readLat = append(r.readLat, lat/10)
		}
		return r
	}
	// The host ran twice as slow in the first two stretches, and the code
	// took twice as long there: normalised, the stretches agree.
	u := untracedRun{
		openParts:  []*phaseRec{part(2), part(2), part(1)},
		openSlow:   []float64{2, 2, 1},
		rates:      []float64{500, 500, 1000},
		closedSlow: []float64{2, 2, 1},
		setups:     []float64{0.03, 0.01, 0.02},
		setupSlow:  2,
		peak:       heapPeak{bytes: 64 << 20, samples: 5},
	}
	u.open = &phaseRec{}
	for _, p := range u.openParts {
		u.open.merge(p)
	}
	m := endToEndMetrics(u)
	for _, c := range []struct {
		name     string
		want     float64
		wantRaw  float64
		wantSize int
	}{
		{"commit_p50_ms", 1, 2, 3 * windowMin},
		{"commit_p90_ms", 1, 2, 3 * windowMin},
		{"read_p50_ms", 0.1, 0.2, 3 * windowMin},
		{"read_p90_ms", 0.1, 0.2, 3 * windowMin},
		{"commits_per_s", 1000, 500, 0},
		{"labels_per_commit", 3, 3, 3 * windowMin},
		{"setup_s", 0.01, 0.02, 3},
		{"peak_heap_mb", 64, 64, 5},
	} {
		got := m[c.name]
		if math.Abs(got.value-c.want) > 1e-9 || math.Abs(got.raw-c.wantRaw) > 1e-9 || got.n != c.wantSize {
			t.Errorf("%s = %+v, want value %g, raw %g, n %d", c.name, got, c.want, c.wantRaw, c.wantSize)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
}
