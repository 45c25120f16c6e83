package stats

// Moments accumulates streaming mean and variance (Welford's algorithm)
// without storing the samples.
type Moments struct {
	n        int
	mean, m2 float64
}

// Push adds a sample.
func (m *Moments) Push(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Mean returns the mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	var m Moments
	for _, x := range xs {
		m.Push(x)
	}
	return m.Variance()
}
