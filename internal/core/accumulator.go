package core

import (
	"fmt"
	"sync"

	"esse/internal/linalg"
)

// Accumulator is the "diff loop" of the paper's Fig. 4 run as a data
// structure: ensemble member forecasts arrive in any order and are
// immediately differenced against the central forecast into a growing
// anomaly matrix. Out-of-order arrival is explicitly supported — the
// paper relaxes the requirement that covariance columns appear in
// perturbation order and instead keeps per-column bookkeeping, which is
// exactly what Indices records.
//
// Columns live in slots indexed by member, so snapshots (Anomalies,
// Indices, EnsembleMean) come out in CANONICAL member-index order,
// independent of arrival order: floating-point results must not depend
// on goroutine scheduling, or chaotic model dynamics amplify bit-level
// differences into irreproducible forecasts.
//
// Accumulator is safe for concurrent use: the many forecast tasks of the
// MTC pool feed it directly.
type Accumulator struct {
	mu      sync.Mutex
	central []float64
	slots   [][]float64 // slots[i] is member i's anomaly; nil = absent
	n       int         // non-nil slots
}

// NewAccumulator creates an accumulator for the given central forecast.
// The central state is copied.
func NewAccumulator(central []float64) *Accumulator {
	c := make([]float64, len(central))
	copy(c, central)
	return &Accumulator{central: c}
}

// Add differences one member forecast against the central forecast and
// stores it as that member's anomaly column. Adding the same index twice
// is an error (a lost-and-retried task must be deduplicated by the
// caller's tracker, but this is the last line of defense).
func (a *Accumulator) Add(index int, state []float64) error {
	if len(state) != len(a.central) {
		return fmt.Errorf("core: member %d has dim %d, central has %d", index, len(state), len(a.central))
	}
	if index < 0 {
		return fmt.Errorf("core: negative member index %d", index)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if index < len(a.slots) && a.slots[index] != nil {
		return fmt.Errorf("core: member %d already accumulated", index)
	}
	col := make([]float64, len(state))
	for i, v := range state {
		col[i] = v - a.central[i]
	}
	for len(a.slots) <= index {
		a.slots = append(a.slots, nil)
	}
	a.slots[index] = col
	a.n++
	return nil
}

// Len returns the number of accumulated members.
func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Indices returns the member indices in canonical (sorted) order,
// aligned with Anomalies columns.
func (a *Accumulator) Indices() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, 0, a.n)
	for idx, col := range a.slots {
		if col != nil {
			out = append(out, idx)
		}
	}
	return out
}

// Anomalies snapshots the current anomaly matrix (stateDim × n), with
// columns in canonical member-index order. The matrix is a copy: the
// SVD stage can work on it while more members stream in (this is the
// role of the paper's "safe file").
func (a *Accumulator) Anomalies() *linalg.Dense {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.n
	out := linalg.NewDense(len(a.central), n)
	j := 0
	for _, col := range a.slots {
		if col == nil {
			continue
		}
		for i, v := range col {
			out.Data[i*n+j] = v
		}
		j++
	}
	return out
}

// EnsembleMean returns central + mean(anomalies): the ensemble estimate
// of the conditional mean.
func (a *Accumulator) EnsembleMean() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	mean := make([]float64, len(a.central))
	copy(mean, a.central)
	if a.n == 0 {
		return mean
	}
	// Sum in canonical member order so the floating-point result is
	// independent of completion order.
	inv := 1 / float64(a.n)
	for _, col := range a.slots {
		for i, v := range col {
			mean[i] += v * inv
		}
	}
	return mean
}

// Central returns a copy of the central forecast.
func (a *Accumulator) Central() []float64 {
	out := make([]float64, len(a.central))
	copy(out, a.central)
	return out
}
