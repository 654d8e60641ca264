package report

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
	if q1, q3 = Quartiles([]float64{5, 1, 3}); q1 != 1 || q3 != 5 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 5", q1, q3)
	}
	if got := Spread([]float64{10, 10, 10, 10}); got != 0 {
		t.Fatalf("spread of a constant = %v", got)
	}
}

func TestDiffVerdicts(t *testing.T) {
	spec := &Spec{
		Workloads: []WorkloadSpec{{Name: "w"}},
		EndToEnd: []MetricSpec{
			{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	file := func(lat, rate []float64) *File {
		f := &File{Cells: map[string]map[string]Cell{"w": {
			"lat_ms": {Unit: "ms", Values: lat}, "rate": {Unit: "1/s", Values: rate},
		}}}
		f.Summarise()
		return f
	}
	base := file([]float64{100, 101, 99, 100, 100}, []float64{50, 50, 51, 49, 50})
	if moves := Diff(spec, base, file([]float64{104, 105, 103, 104, 104}, []float64{48, 48, 49, 47, 48})); len(moves) != 0 {
		t.Fatalf("moves inside the bound were reported: %+v", moves)
	}
	moves := Diff(spec, base, file([]float64{120, 121, 119, 120, 120}, []float64{60, 60, 61, 59, 60}))
	if len(moves) != 2 || moves[0].Verdict != Regressed || moves[1].Verdict != Improved {
		t.Fatalf("want lat_ms REGRESSED and rate improved, got %+v", moves)
	}
	if math.Abs(moves[0].Change-0.20) > 1e-9 {
		t.Fatalf("change = %v, want +0.20", moves[0].Change)
	}
	noisy := file([]float64{80, 100, 120, 90, 110}, []float64{50, 50, 51, 49, 50})
	if moves := Diff(spec, base, noisy); len(moves) != 1 || moves[0].Verdict != Unresolved {
		t.Fatalf("a cell noisier than its bound must be unresolved, got %+v", moves)
	}
}
