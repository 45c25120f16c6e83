package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored packed in lu with the unit diagonal of L implicit.
type LU struct {
	lu  *Matrix
	piv []int
}

// Factor computes the LU factorization of a square matrix a.
// It returns ErrSingular if a pivot is (numerically) zero.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrShape, a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: choose the largest magnitude in column k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				v := lu.At(k, j)
				lu.Set(k, j, lu.At(p, j))
				lu.Set(p, j, v)
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// SolveVec solves A·x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// Solve solves the square system A·x = b directly.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}
