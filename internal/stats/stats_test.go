package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHarmonicMean(t *testing.T) {
	if got, err := HarmonicMean([]float64{1, 1, 1}); err != nil || !close(got, 1) {
		t.Errorf("HM(1,1,1) = %v, %v", got, err)
	}
	if got, err := HarmonicMean([]float64{1, 2}); err != nil || !close(got, 4.0/3) {
		t.Errorf("HM(1,2) = %v, %v, want 4/3", got, err)
	}
	if got, err := HarmonicMean(nil); err != nil || got != 0 {
		t.Errorf("HM(nil) = %v, %v", got, err)
	}
}

func TestHarmonicMeanRejectsNonPositive(t *testing.T) {
	for _, xs := range [][]float64{{1, 0}, {-1}, {1, math.NaN()}} {
		if _, err := HarmonicMean(xs); err == nil {
			t.Errorf("HarmonicMean(%v) accepted bad input", xs)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !close(got, 2) {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean not 0")
	}
}

func TestSpeedupAndLostFraction(t *testing.T) {
	if got := Speedup(1.0, 1.43); !close(got, 1.43) {
		t.Errorf("Speedup = %v", got)
	}
	if got := LostFraction(0.43, 1.0); !close(got, 0.57) {
		t.Errorf("LostFraction = %v, want 0.57", got)
	}
	if got := LostFraction(1.2, 1.0); got != 0 {
		t.Errorf("LostFraction clamp = %v", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.43); got != "43.0%" {
		t.Errorf("Pct = %q", got)
	}
}

// Property: HM <= AM for positive inputs.
func TestPropertyMeanInequality(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r%1000)+1)
		}
		if len(xs) == 0 {
			return true
		}
		hm, err := HarmonicMean(xs)
		return err == nil && hm <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
