package core

import (
	"math"
	"sync"
	"testing"

	"esse/internal/rng"
)

func TestAccumulatorDiffsAgainstCentral(t *testing.T) {
	central := []float64{1, 2, 3}
	acc := NewAccumulator(central)
	if err := acc.Add(0, []float64{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	a := acc.Anomalies()
	if a.Rows != 3 || a.Cols != 1 {
		t.Fatalf("anomaly shape %dx%d", a.Rows, a.Cols)
	}
	if a.At(0, 0) != 1 || a.At(1, 0) != 0 || a.At(2, 0) != -1 {
		t.Fatalf("anomaly = %v", a.Data)
	}
}

func TestAccumulatorRejectsDuplicateIndex(t *testing.T) {
	acc := NewAccumulator([]float64{0})
	if err := acc.Add(5, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(5, []float64{2}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if acc.Len() != 1 {
		t.Fatalf("Len = %d after duplicate rejection", acc.Len())
	}
}

func TestAccumulatorRejectsNegativeIndex(t *testing.T) {
	acc := NewAccumulator([]float64{0})
	if err := acc.Add(-1, []float64{1}); err == nil {
		t.Fatal("negative member index accepted")
	}
	if acc.Len() != 0 {
		t.Fatalf("Len = %d after rejection", acc.Len())
	}
}

func TestAccumulatorRejectsWrongDim(t *testing.T) {
	acc := NewAccumulator([]float64{0, 0})
	if err := acc.Add(0, []float64{1}); err == nil {
		t.Fatal("wrong-dimension member accepted")
	}
}

func TestAccumulatorOutOfOrderIndices(t *testing.T) {
	acc := NewAccumulator([]float64{0})
	for _, idx := range []int{7, 2, 9, 1} {
		if err := acc.Add(idx, []float64{float64(idx)}); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshots are canonical (sorted by member index) so results never
	// depend on completion order.
	got := acc.Indices()
	want := []int{1, 2, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want canonical order %v", got, want)
		}
	}
	// Anomaly columns align with the canonical indices.
	a := acc.Anomalies()
	for j, idx := range want {
		if a.At(0, j) != float64(idx) {
			t.Fatalf("column %d = %v, want member %d's value", j, a.At(0, j), idx)
		}
	}
}

func TestAccumulatorEnsembleMean(t *testing.T) {
	acc := NewAccumulator([]float64{10, 20})
	_ = acc.Add(0, []float64{12, 20})
	_ = acc.Add(1, []float64{8, 24})
	mean := acc.EnsembleMean()
	if mean[0] != 10 || mean[1] != 22 {
		t.Fatalf("EnsembleMean = %v, want [10 22]", mean)
	}
}

func TestAccumulatorEmptyMeanIsCentral(t *testing.T) {
	acc := NewAccumulator([]float64{5, 6})
	mean := acc.EnsembleMean()
	if mean[0] != 5 || mean[1] != 6 {
		t.Fatalf("empty mean = %v", mean)
	}
}

func TestAccumulatorCentralIsCopied(t *testing.T) {
	central := []float64{1}
	acc := NewAccumulator(central)
	central[0] = 99
	if acc.Central()[0] != 1 {
		t.Fatal("accumulator aliased the caller's central slice")
	}
	c := acc.Central()
	c[0] = 42
	if acc.Central()[0] != 1 {
		t.Fatal("Central did not return a copy")
	}
}

func TestAccumulatorConcurrentAdds(t *testing.T) {
	const members = 200
	dim := 50
	central := make([]float64, dim)
	acc := NewAccumulator(central)
	s := rng.New(3)
	states := make([][]float64, members)
	for i := range states {
		states[i] = s.NormVec(nil, dim)
	}
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := acc.Add(i, states[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if acc.Len() != members {
		t.Fatalf("Len = %d, want %d", acc.Len(), members)
	}
	// Every index present exactly once.
	seen := make(map[int]bool)
	for _, idx := range acc.Indices() {
		if seen[idx] {
			t.Fatalf("index %d recorded twice", idx)
		}
		seen[idx] = true
	}
	// Anomalies correspond to the recorded index order.
	a := acc.Anomalies()
	idxs := acc.Indices()
	for j, idx := range idxs {
		for i := 0; i < dim; i++ {
			if math.Abs(a.At(i, j)-states[idx][i]) > 1e-15 {
				t.Fatalf("anomaly column %d does not match member %d", j, idx)
			}
		}
	}
}

func TestAnomaliesSnapshotIsolation(t *testing.T) {
	acc := NewAccumulator([]float64{0})
	_ = acc.Add(0, []float64{1})
	snap := acc.Anomalies()
	_ = acc.Add(1, []float64{2})
	if snap.Cols != 1 {
		t.Fatal("snapshot grew after later Add")
	}
}
