package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"esse/internal/rng"
)

func TestQRReconstruction(t *testing.T) {
	s := rng.New(10)
	a := randomDense(s, 8, 5)
	f := QR(a)
	if !Mul(f.Q, f.R).EqualApprox(a, 1e-10) {
		t.Fatal("QR does not reconstruct A")
	}
}

func TestQROrthonormalColumns(t *testing.T) {
	s := rng.New(11)
	a := randomDense(s, 10, 6)
	f := QR(a)
	qtq := MulTA(f.Q, f.Q)
	if !qtq.EqualApprox(Identity(6), 1e-10) {
		t.Fatal("QᵀQ != I")
	}
}

func TestQRUpperTriangular(t *testing.T) {
	s := rng.New(12)
	a := randomDense(s, 7, 7)
	f := QR(a)
	for i := 1; i < 7; i++ {
		for j := 0; j < i; j++ {
			if f.R.At(i, j) != 0 {
				t.Fatalf("R[%d,%d] = %v below diagonal", i, j, f.R.At(i, j))
			}
		}
	}
}

func TestQRProperty(t *testing.T) {
	s := rng.New(13)
	f := func(seed uint16) bool {
		st := s.Split(uint64(seed))
		n := 1 + st.Intn(8)
		m := n + st.Intn(8)
		a := randomDense(st, m, n)
		qr := QR(a)
		if !Mul(qr.Q, qr.R).EqualApprox(a, 1e-9) {
			return false
		}
		return MulTA(qr.Q, qr.Q).EqualApprox(Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveUpperTri(t *testing.T) {
	r := NewDenseFrom(3, 3, []float64{2, 1, -1, 0, 3, 2, 0, 0, 4})
	x := SolveUpperTri(r, []float64{1, 13, 8})
	// Back-check.
	b := MatVec(r, x)
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-13) > 1e-12 || math.Abs(b[2]-8) > 1e-12 {
		t.Fatalf("SolveUpperTri residual: %v", b)
	}
}

func TestSolveLowerTri(t *testing.T) {
	l := NewDenseFrom(2, 2, []float64{2, 0, 1, 3})
	x := SolveLowerTri(l, []float64{4, 7})
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-5.0/3) > 1e-12 {
		t.Fatalf("SolveLowerTri = %v", x)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: least squares must solve it exactly.
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	x := LeastSquares(a, []float64{5, 11})
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("LeastSquares = %v, want [1 2]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through noisy-free points: exact recovery expected.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewDense(5, 2)
	b := make([]float64, 5)
	for i, x := range xs {
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	coef := LeastSquares(a, b)
	if math.Abs(coef[0]-2) > 1e-10 || math.Abs(coef[1]-1) > 1e-10 {
		t.Fatalf("LeastSquares fit = %v, want [2 1]", coef)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	s := rng.New(14)
	// Build SPD matrix A = BᵀB + I.
	b := randomDense(s, 6, 6)
	a := MulTA(b, b)
	AddInPlace(a, Identity(6))
	l, ok := Cholesky(a)
	if !ok {
		t.Fatal("Cholesky failed on SPD matrix")
	}
	if !MulBT(l, l).EqualApprox(a, 1e-9) {
		t.Fatal("LLᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, ok := Cholesky(a); ok {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	s := rng.New(15)
	b := randomDense(s, 5, 5)
	a := MulTA(b, b)
	AddInPlace(a, Identity(5))
	rhs := []float64{1, 2, 3, 4, 5}
	x, ok := SolveSPD(a, rhs)
	if !ok {
		t.Fatal("SolveSPD failed")
	}
	res := VecSub(MatVec(a, x), rhs)
	if Norm2(res) > 1e-9 {
		t.Fatalf("SolveSPD residual %v", Norm2(res))
	}
}

func BenchmarkQR64(b *testing.B) {
	s := rng.New(1)
	a := randomDense(s, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}
