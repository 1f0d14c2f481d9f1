package core

import (
	"math"
	"strings"
	"testing"

	"esse/internal/linalg"
	"esse/internal/rng"
)

// pointObs is a point-observation operator over explicit state offsets
// with an explicit R diagonal, so tests can build heterogeneous or
// invalid error variances that obs.Network would refuse.
type pointObs struct {
	offsets []int
	r       []float64
}

func (o *pointObs) Len() int { return len(o.offsets) }

func (o *pointObs) ApplyH(state []float64) []float64 {
	y := make([]float64, len(o.offsets))
	for i, off := range o.offsets {
		y[i] = state[off]
	}
	return y
}

func (o *pointObs) ApplyHMat(e *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(len(o.offsets), e.Cols)
	for i, off := range o.offsets {
		copy(out.Row(i), e.Row(off))
	}
	return out
}

func (o *pointObs) RDiag() []float64 { return append([]float64(nil), o.r...) }

// randomPointObs observes m distinct state elements with variances
// log-uniform over [rLo, rHi].
func randomPointObs(s *rng.Stream, dim, m int, rLo, rHi float64) *pointObs {
	o := &pointObs{}
	used := map[int]bool{}
	for len(o.offsets) < m {
		off := s.Intn(dim)
		if used[off] {
			continue
		}
		used[off] = true
		o.offsets = append(o.offsets, off)
		o.r = append(o.r, rLo*math.Pow(rHi/rLo, s.Float64()))
	}
	return o
}

// oracleInvertSPD inverts an SPD matrix column by column through its
// Cholesky factor — the explicit inverse the update used to be built on.
func oracleInvertSPD(t *testing.T, a *linalg.Dense) *linalg.Dense {
	t.Helper()
	l, ok := linalg.Cholesky(a)
	if !ok {
		t.Fatal("oracle: matrix not positive definite")
	}
	lt := l.T()
	inv := linalg.NewDense(a.Rows, a.Rows)
	e := make([]float64, a.Rows)
	for j := range e {
		e[j] = 1
		inv.SetCol(j, linalg.SolveUpperTri(lt, linalg.SolveLowerTri(l, e)))
		e[j] = 0
	}
	return inv
}

// oracleAnalysis is the textbook-form update: posterior mean, pointwise
// posterior variance diag(E Γa Eᵀ), and the three diagnostics.
type oracleAnalysis struct {
	mean, variance                    []float64
	innovation, residual, consistency float64
}

// oracleAssimilate is the explicit-inverse update Assimilate replaced:
// S = HE Γ HEᵀ + R, K d = E Γ HEᵀ S⁻¹ d, Γa = Γ − Γ HEᵀ S⁻¹ HE Γ.
func oracleAssimilate(t *testing.T, x []float64, sub *Subspace, network ObsOperator, y []float64) oracleAnalysis {
	t.Helper()
	p, m := sub.Rank(), network.Len()
	he := network.ApplyHMat(sub.Modes)
	r := network.RDiag()
	heg := linalg.NewDense(m, p)
	for i := 0; i < m; i++ {
		for j := 0; j < p; j++ {
			heg.Set(i, j, he.At(i, j)*sub.Sigma[j]*sub.Sigma[j])
		}
	}
	s := linalg.MulBT(heg, he)
	for i := 0; i < m; i++ {
		s.Set(i, i, s.At(i, i)+r[i])
	}
	sInv := oracleInvertSPD(t, s)
	d := linalg.VecSub(y, network.ApplyH(x))
	sid := linalg.MatVec(sInv, d)
	mean := linalg.VecAdd(x, linalg.MatVec(sub.Modes, linalg.MatTVec(heg, sid)))

	gammaA := linalg.Scale(-1, linalg.Mul(linalg.Mul(heg.T(), sInv), heg))
	for j := 0; j < p; j++ {
		gammaA.Set(j, j, gammaA.At(j, j)+sub.Sigma[j]*sub.Sigma[j])
	}
	variance := make([]float64, sub.StateDim())
	for i := range variance {
		row := sub.Modes.Row(i)
		variance[i] = linalg.Dot(row, linalg.MatVec(gammaA, row))
	}
	rNorm := func(v []float64) float64 {
		acc := 0.0
		for i, x := range v {
			acc += x * x / r[i]
		}
		return math.Sqrt(acc)
	}
	return oracleAnalysis{
		mean:        mean,
		variance:    variance,
		innovation:  rNorm(d),
		residual:    rNorm(linalg.VecSub(y, network.ApplyH(mean))),
		consistency: linalg.Dot(d, sid) / float64(m),
	}
}

// oracleSmooth is the explicit-inverse smoother SmoothPrevious replaced:
// x₀ˢ = x₀ + A₀ (HA₁)ᵀ [(HA₁)(HA₁)ᵀ + (N−1)R]⁻¹ d.
func oracleSmooth(t *testing.T, x0 []float64, anoms0, anoms1 *linalg.Dense, network ObsOperator, d []float64) []float64 {
	t.Helper()
	ha1 := network.ApplyHMat(anoms1)
	r := network.RDiag()
	s := linalg.MulBT(ha1, ha1)
	for i := range r {
		s.Set(i, i, s.At(i, i)+float64(anoms0.Cols-1)*r[i])
	}
	w := linalg.MatTVec(ha1, linalg.MatVec(oracleInvertSPD(t, s), d))
	return linalg.VecAdd(x0, linalg.MatVec(anoms0, w))
}

// relDiff is max|a−b| / max|b|: a relative error on the scale of the
// reference vector, not per element (tiny elements carry no weight).
func relDiff(a, b []float64) float64 {
	diff, scale := 0.0, 0.0
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

func relScalar(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }

// equivalenceTol is the agreement the whitened subspace update must reach
// with the explicit-inverse oracle: 1e-9 relative on the mean, on the
// pointwise posterior variance diag(E Γa Eᵀ) (invariant to the basis the
// posterior modes are rotated into) and on the diagnostics.
const equivalenceTol = 1e-9

// equivalenceCases span the shapes the update meets: heterogeneous R,
// fewer observations than modes, many more, a single observation, and a
// σ spectrum spread down to the workflow's 1e-8·σmax truncation.
var equivalenceCases = []struct {
	name     string
	dim, p   int
	m        int
	rLo, rHi float64
	sigmaMin float64 // σ log-spaced from 1 down to sigmaMin
}{
	{"heterogeneous-R", 120, 8, 40, 1e-2, 10, 0.1},
	{"m<p", 120, 10, 3, 0.05, 0.5, 0.1},
	{"m>>p", 400, 5, 300, 0.01, 1, 0.2},
	{"single-obs", 60, 6, 1, 0.3, 0.3, 0.1},
	{"sigma-spread-1e-8", 150, 12, 60, 1e-3, 1, 1e-8},
}

func caseSigma(p int, sigmaMin float64) []float64 {
	sig := make([]float64, p)
	for j := range sig {
		sig[j] = math.Pow(sigmaMin, float64(j)/float64(p-1))
	}
	return sig
}

func TestAssimilateMatchesExplicitInverseOracle(t *testing.T) {
	for ci, c := range equivalenceCases {
		for seed := uint64(0); seed < 5; seed++ {
			s := rng.New(100*uint64(ci) + seed)
			sub := randomSubspace(s, c.dim, c.p, caseSigma(c.p, c.sigmaMin))
			network := randomPointObs(s, c.dim, c.m, c.rLo, c.rHi)
			x := s.NormVec(nil, c.dim)
			y := network.ApplyH(s.NormVec(nil, c.dim))

			an, err := Assimilate(x, sub, network, y)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			want := oracleAssimilate(t, x, sub, network, y)
			checks := []struct {
				what string
				err  float64
			}{
				{"mean", relDiff(an.Mean, want.mean)},
				{"posterior variance", relDiff(an.Posterior.VariancePointwise(), want.variance)},
				{"InnovationNorm", relScalar(an.InnovationNorm, want.innovation)},
				{"ResidualNorm", relScalar(an.ResidualNorm, want.residual)},
				{"InnovationConsistency", relScalar(an.InnovationConsistency, want.consistency)},
			}
			for _, ch := range checks {
				if !(ch.err <= equivalenceTol) {
					t.Errorf("%s seed %d: %s differs from the oracle by %.3g relative (tol %g)",
						c.name, seed, ch.what, ch.err, equivalenceTol)
				}
			}
		}
	}
}

func TestSmoothPreviousMatchesExplicitInverseOracle(t *testing.T) {
	for ci, c := range equivalenceCases {
		for seed := uint64(0); seed < 5; seed++ {
			s := rng.New(100*uint64(ci) + seed + 50)
			network := randomPointObs(s, c.dim, c.m, c.rLo, c.rHi)
			members := c.p + 2
			anoms0 := linalg.NewDense(c.dim, members)
			anoms1 := linalg.NewDense(c.dim, members)
			sig := caseSigma(members, c.sigmaMin)
			for i := range anoms0.Data {
				anoms0.Data[i] = s.Norm()
				anoms1.Data[i] = s.Norm() * sig[i%members]
			}
			x0 := s.NormVec(nil, c.dim)
			d := s.NormVec(nil, c.m)

			got, err := SmoothPrevious(x0, anoms0, anoms1, network, d)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			want := oracleSmooth(t, x0, anoms0, anoms1, network, d)
			if e := relDiff(got.Mean, want); !(e <= equivalenceTol) {
				t.Errorf("%s seed %d: smoothed mean differs from the oracle by %.3g relative (tol %g)",
					c.name, seed, e, equivalenceTol)
			}
		}
	}
}

// badRVariances are error variances no update may accept.
var badRVariances = []float64{0, -1, math.NaN(), math.Inf(1)}

func TestAssimilateRejectsBadR(t *testing.T) {
	s := rng.New(21)
	sub := randomSubspace(s, 20, 3, []float64{1, 0.5, 0.2})
	x := s.NormVec(nil, 20)
	for _, bad := range badRVariances {
		network := &pointObs{offsets: []int{1, 4, 9}, r: []float64{0.5, bad, 0.5}}
		_, err := Assimilate(x, sub, network, []float64{1, 2, 3})
		if err == nil || !strings.Contains(err.Error(), "error variance") {
			t.Fatalf("R entry %v: err = %v, want an error-variance rejection", bad, err)
		}
	}
}

func TestSmoothPreviousRejectsBadR(t *testing.T) {
	x0, _, anoms0, anoms1, _, _ := smootherTwin(t, 22, 6)
	for _, bad := range badRVariances {
		network := &pointObs{offsets: []int{0, 3}, r: []float64{bad, 0.1}}
		_, err := SmoothPrevious(x0, anoms0, anoms1, network, []float64{0.5, -0.5})
		if err == nil || !strings.Contains(err.Error(), "error variance") {
			t.Fatalf("R entry %v: err = %v, want an error-variance rejection", bad, err)
		}
	}
}

// TestInnovationConsistencyIsOneOnAverage draws the truth from the prior
// subspace around the forecast and observes it with R-distributed noise,
// so the innovation has covariance exactly S and dᵀS⁻¹d is χ² with m
// degrees of freedom. The mean of dᵀS⁻¹d/m over the draws then has
// standard error √(2/(m·draws)) ≈ 0.014; the bound is five of those.
func TestInnovationConsistencyIsOneOnAverage(t *testing.T) {
	const (
		dim, p, m = 150, 10, 25
		draws     = 400
		bound     = 0.07
	)
	s := rng.New(31)
	sub := randomSubspace(s, dim, p, caseSigma(p, 0.05))
	network := randomPointObs(s, dim, m, 0.01, 1)
	x := s.NormVec(nil, dim)
	sum := 0.0
	for k := 0; k < draws; k++ {
		truth := sub.Perturb(nil, s, 0)
		for i := range truth {
			truth[i] += x[i]
		}
		y := network.ApplyH(truth)
		for i, r := range network.r {
			y[i] += math.Sqrt(r) * s.Norm()
		}
		an, err := Assimilate(x, sub, network, y)
		if err != nil {
			t.Fatal(err)
		}
		sum += an.InnovationConsistency
	}
	if mean := sum / draws; math.Abs(mean-1) > bound {
		t.Fatalf("mean dᵀS⁻¹d/m over %d draws = %.4f, want 1 ± %g", draws, mean, bound)
	}
}

// BenchmarkAssimilateObsDense times one update at the obs-dense cycle
// shape: a 14×14×6 five-variable state (4900 elements), a rank-27
// subspace and 281 observations with heterogeneous errors.
func BenchmarkAssimilateObsDense(b *testing.B) {
	const dim, p, m = 4900, 27, 281
	s := rng.New(1)
	sub := randomSubspace(s, dim, p, caseSigma(p, 1e-3))
	network := randomPointObs(s, dim, m, 0.01, 1)
	x := s.NormVec(nil, dim)
	y := network.ApplyH(s.NormVec(nil, dim))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assimilate(x, sub, network, y); err != nil {
			b.Fatal(err)
		}
	}
}
