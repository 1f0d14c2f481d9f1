package core

import (
	"fmt"
	"math"

	"esse/internal/linalg"
)

// This file implements the smoothing extension of ESSE (Lermusiaux,
// Robinson, Haley & Leslie 2002, "Filtering and smoothing via Error
// Subspace Statistical Estimation" — reference [16] of the paper):
// observations at a later time improve the estimate at an earlier time
// through the ensemble cross-covariance between the two times.
//
// With member anomaly matrices A₀ (earlier time) and A₁ (later time)
// sharing column ↔ member alignment, the smoother gain applied to the
// later-time innovation d = y − H x₁ is
//
//	K₀ = A₀ (H A₁)ᵀ [ (H A₁)(H A₁)ᵀ + (N−1) R ]⁻¹
//
// so  x₀ˢ = x₀ + K₀ d.  (The (N−1) factors cancel against the sample-
// covariance normalization.) It is solved in whitened member
// coordinates, an N × N system in place of the obsDim × obsDim one:
//
//	d̃  = R^{-1/2} d,   Z = R^{-1/2} H A₁ / √(N−1)
//	C  = I + ZᵀZ = L Lᵀ                      (Cholesky)
//	K₀ d = A₀ C⁻¹ Zᵀ d̃ / √(N−1)

// SmootherResult carries the smoothed earlier-time estimate.
type SmootherResult struct {
	// Mean is the smoothed earlier-time state.
	Mean []float64
	// IncrementNorm is ‖x₀ˢ − x₀‖ (diagnostic).
	IncrementNorm float64
}

// SmoothPrevious updates the earlier-time mean x0 using later-time
// observations y through the member-aligned anomaly matrices. The two
// anomaly matrices must have identical column counts with column j of
// each belonging to the same ensemble member (the workflow accumulator's
// Indices bookkeeping provides exactly this alignment).
func SmoothPrevious(x0 []float64, anoms0, anoms1 *linalg.Dense, network ObsOperator, y []float64) (*SmootherResult, error) {
	n := anoms0.Cols
	if anoms1.Cols != n {
		return nil, fmt.Errorf("core: smoother anomaly column mismatch %d vs %d", n, anoms1.Cols)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: smoother needs >= 2 members, got %d", n)
	}
	if len(x0) != anoms0.Rows {
		return nil, fmt.Errorf("core: smoother state dim %d != anomalies %d", len(x0), anoms0.Rows)
	}
	m := network.Len()
	if len(y) != m {
		return nil, fmt.Errorf("core: %d observations but %d values", m, len(y))
	}
	out := &SmootherResult{Mean: append([]float64(nil), x0...)}
	if m == 0 {
		return out, nil
	}

	rInvSqrt, err := whitening(network.RDiag())
	if err != nil {
		return nil, err
	}
	// The caller passes the innovation against the later-time mean as y.
	norm := 1 / math.Sqrt(float64(n-1))
	scale := make([]float64, n)
	for j := range scale {
		scale[j] = norm
	}
	w, ok := whiten(network.ApplyHMat(anoms1), scale, rInvSqrt, y)
	if !ok {
		return nil, fmt.Errorf("core: smoother innovation covariance not positive definite")
	}
	coef := linalg.VecScale(norm, linalg.SolveUpperTri(w.l.T(), w.u)) // C⁻¹ Zᵀ d̃ / √(N−1)
	incr := linalg.MatVec(anoms0, coef)                               // A₀ … (stateDim)
	out.IncrementNorm = linalg.Norm2(incr)
	for i := range out.Mean {
		out.Mean[i] += incr[i]
	}
	return out, nil
}
