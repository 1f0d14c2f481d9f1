package core

import (
	"fmt"
	"math"

	"esse/internal/linalg"
)

// ObsOperator abstracts the measurement system: a point (or generalized)
// operator H with diagonal error covariance R. obs.Network satisfies it;
// wrappers (e.g. non-dimensionalizing scalers) compose around it.
type ObsOperator interface {
	// Len returns the number of observations.
	Len() int
	// ApplyH computes y = H x.
	ApplyH(state []float64) []float64
	// ApplyHMat computes H E for a mode matrix E.
	ApplyHMat(e *linalg.Dense) *linalg.Dense
	// RDiag returns the diagonal of the observation error covariance.
	RDiag() []float64
}

// Analysis is the result of an ESSE assimilation update.
type Analysis struct {
	// Mean is the analysis (posterior) state estimate.
	Mean []float64
	// Posterior is the updated error subspace.
	Posterior *Subspace
	// InnovationNorm is the R⁻¹-weighted misfit ‖y − Hx‖_R⁻¹ before the
	// update. The weighting is what the minimum-error-variance update
	// provably reduces; the unweighted norm can grow when observation
	// errors are heterogeneous.
	InnovationNorm float64
	// ResidualNorm is ‖y − Hx‖_R⁻¹ after the update.
	ResidualNorm float64
	// InnovationConsistency is dᵀS⁻¹d/m for the innovation d = y − Hx
	// and its predicted covariance S = HEΓ(HE)ᵀ + R. It needs no truth:
	// it is ≈ 1 on average when the forecast subspace and R account for
	// the innovations, and well above 1 when the ensemble spread is too
	// small for the misfit it has to explain.
	InnovationConsistency float64
}

// Assimilate performs the ESSE minimum-error-variance (Kalman) update in
// the error subspace. With forecast mean x, subspace (E, σ), point
// measurement operator H, observations y and diagonal error covariance R,
// the update is solved in whitened subspace coordinates:
//
//	d   = y − Hx,  d̃ = R^{-1/2} d        (whitened innovation)
//	Z   = R^{-1/2} H E diag(σ)           (obsDim × p)
//	C   = I + ZᵀZ = L Lᵀ                 (p × p, Cholesky; C ≥ I)
//	xa  = x + E diag(σ) C⁻¹ Zᵀ d̃          (= x + K d)
//	Γa  = diag(σ) C⁻¹ diag(σ)            (= Γ − Γ HEᵀ S⁻¹ HE Γ)
//
// which equals the textbook form with S = HE Γ HEᵀ + R, Γ = diag(σ²), but
// costs O(obsDim·p² + p³) instead of O(obsDim³) and never inverts Γ, so
// modes kept down to 1e-8·σmax (the workflow's SigmaRelTol) cannot make
// the system singular.
//
// Γa is re-diagonalized (Γa = W Λ Wᵀ) and the posterior modes rotated to
// Ea = E W so that the invariant "orthonormal modes, diagonal spectrum"
// holds for the next forecast cycle.
func Assimilate(x []float64, sub *Subspace, network ObsOperator, y []float64) (*Analysis, error) {
	p := sub.Rank()
	mObs := network.Len()
	if len(y) != mObs {
		return nil, fmt.Errorf("core: %d observations but %d values", mObs, len(y))
	}
	if len(x) != sub.StateDim() {
		return nil, fmt.Errorf("core: state dim %d != subspace dim %d", len(x), sub.StateDim())
	}
	if mObs == 0 {
		mean := make([]float64, len(x))
		copy(mean, x)
		return &Analysis{Mean: mean, Posterior: sub.Clone()}, nil
	}
	rDiag := network.RDiag()
	rInvSqrt, err := whitening(rDiag)
	if err != nil {
		return nil, err
	}

	d := linalg.VecSub(y, network.ApplyH(x))
	w, ok := whiten(network.ApplyHMat(sub.Modes), sub.Sigma, rInvSqrt, d)
	if !ok {
		return nil, fmt.Errorf("core: innovation covariance not positive definite (rank %d, %d obs)", p, mObs)
	}

	// M = L⁻¹ diag(σ), so Γa = MᵀM and diag(σ) C⁻¹ Zᵀd̃ = Mᵀ u.
	m := linalg.NewDense(p, p)
	col := make([]float64, p)
	for j := 0; j < p; j++ {
		col[j] = sub.Sigma[j]
		m.SetCol(j, linalg.SolveLowerTri(w.l, col))
		col[j] = 0
	}
	incr := linalg.MatVec(sub.Modes, linalg.MatTVec(m, w.u))
	mean := make([]float64, len(x))
	for i := range x {
		mean[i] = x[i] + incr[i]
	}

	// Re-diagonalize Γa = MᵀM and rotate the modes.
	eig := linalg.SymEig(linalg.MulTA(m, m))
	sigma := make([]float64, p)
	for i, lam := range eig.Values {
		if lam < 0 {
			lam = 0 // clip round-off negatives: covariance is PSD
		}
		sigma[i] = math.Sqrt(lam)
	}
	modes := linalg.Mul(sub.Modes, eig.Vectors)

	post := &Subspace{Modes: modes, Sigma: sigma}
	res := linalg.VecSub(y, network.ApplyH(mean))
	return &Analysis{
		Mean:                  mean,
		Posterior:             post,
		InnovationNorm:        math.Sqrt(w.dNorm2),
		ResidualNorm:          weightedNorm(res, rDiag),
		InnovationConsistency: (w.dNorm2 - linalg.Dot(w.u, w.u)) / float64(mObs),
	}, nil
}

// whitening validates a diagonal R and returns R^{-1/2}. Every variance
// must be finite and strictly positive: a zero would put an infinite
// weight on its observation and NaN into the analysis.
func whitening(rDiag []float64) ([]float64, error) {
	out := make([]float64, len(rDiag))
	for i, r := range rDiag {
		if !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("core: observation %d has error variance %v (want finite and > 0)", i, r)
		}
		out[i] = 1 / math.Sqrt(r)
	}
	return out, nil
}

// whitenedUpdate is the factored ESSE update shared by Assimilate and
// SmoothPrevious: with Z = R^{-1/2} H X diag(w) for k columns X, the
// k × k system C = I + ZᵀZ = L Lᵀ and the whitened innovation d̃.
type whitenedUpdate struct {
	l      *linalg.Dense // Cholesky factor of C (k × k)
	u      []float64     // L⁻¹ Zᵀ d̃, so that C⁻¹ Zᵀ d̃ = L⁻ᵀ u
	dNorm2 float64       // ‖d̃‖² = dᵀR⁻¹d
}

// whiten forms and factors the whitened subspace system for the observed
// columns hx = H X (m × k), column weights w, R^{-1/2} and innovation d.
// ok is false only if C fails to factor, which for finite inputs cannot
// happen since C ≥ I.
func whiten(hx *linalg.Dense, w, rInvSqrt, d []float64) (*whitenedUpdate, bool) {
	z := linalg.NewDense(hx.Rows, hx.Cols)
	dt := make([]float64, len(d))
	for i := range dt {
		row, out := hx.Row(i), z.Row(i)
		for j, v := range row {
			out[j] = rInvSqrt[i] * v * w[j]
		}
		dt[i] = rInvSqrt[i] * d[i]
	}
	c := linalg.MulTA(z, z)
	for j := 0; j < c.Rows; j++ {
		c.Set(j, j, c.At(j, j)+1)
	}
	l, ok := linalg.Cholesky(c)
	if !ok {
		return nil, false
	}
	return &whitenedUpdate{
		l:      l,
		u:      linalg.SolveLowerTri(l, linalg.MatTVec(z, dt)),
		dNorm2: linalg.Dot(dt, dt),
	}, true
}

// weightedNorm computes ‖v‖ in the R⁻¹ metric for diagonal R.
func weightedNorm(v, rDiag []float64) float64 {
	s := 0.0
	for i, x := range v {
		s += x * x / rDiag[i]
	}
	return math.Sqrt(s)
}
