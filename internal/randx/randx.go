// Package randx provides deterministic, splittable pseudo-random number
// generation and sampling primitives used throughout the library.
//
// All stochastic components of the library (corpus synthesis, culinary
// evolution models, bootstrap statistics) draw exclusively from this
// package so that every experiment is exactly reproducible from a single
// 64-bit seed. The generator is a 128-bit xoshiro-style PCG seeded through
// SplitMix64, matching the construction recommended by O'Neill for
// simulation workloads: small state, fast, and with independent streams
// obtained via Split.
package randx

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; use Split to derive independent generators for
// concurrent workers.
type Source struct {
	s0, s1 uint64
}

// New returns a Source seeded from the given seed. Two Sources created with
// the same seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.s0 = splitmix64(&seed)
	s.s1 = splitmix64(&seed)
	// Avoid the all-zero state, which is a fixed point of xoroshiro.
	if s.s0 == 0 && s.s1 == 0 {
		s.s0 = 0x9E3779B97F4A7C15
	}
	return s
}

// splitmix64 advances the state and returns the next SplitMix64 output.
// It is used both for seeding and for stream splitting.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits (xoroshiro128++).
func (s *Source) Uint64() uint64 {
	a, b := s.s0, s.s1
	r := bits.RotateLeft64(a+b, 17) + a
	b ^= a
	s.s0 = bits.RotateLeft64(a, 49) ^ b ^ (b << 21)
	s.s1 = bits.RotateLeft64(b, 28)
	return r
}

// Split derives a new Source whose stream is statistically independent of
// the parent's. The parent advances by two outputs; the child is seeded
// from those outputs through SplitMix64, which decorrelates the streams.
func (s *Source) Split() *Source {
	seed := s.Uint64() ^ bits.RotateLeft64(s.Uint64(), 32)
	return New(seed)
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Norm returns a normally distributed value with mean 0 and standard
// deviation 1, generated with the polar (Marsaglia) method.
func (s *Source) Norm() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// NormAt returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) NormAt(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// TruncNormInt draws an integer from a normal distribution with the given
// mean and standard deviation, truncated (by rejection) to [lo, hi]. The
// result is the nearest integer of an accepted draw. It panics if lo > hi.
func (s *Source) TruncNormInt(mean, stddev float64, lo, hi int) int {
	if lo > hi {
		panic("randx: TruncNormInt with lo > hi")
	}
	if lo == hi {
		return lo
	}
	for i := 0; i < 1024; i++ {
		v := int(math.Round(s.NormAt(mean, stddev)))
		if v >= lo && v <= hi {
			return v
		}
	}
	// Pathological parameters (mean far outside the interval): fall back to
	// the nearest bound so callers always make progress.
	if mean < float64(lo) {
		return lo
	}
	return hi
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher-Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// SampleInts returns k distinct integers drawn uniformly from [0, n)
// without replacement, in random order. It panics if k > n or k < 0.
//
// For small k relative to n it uses Floyd's algorithm (O(k) expected);
// otherwise it materializes a partial Fisher-Yates shuffle.
func (s *Source) SampleInts(n, k int) []int {
	if k < 0 || k > n {
		panic("randx: SampleInts called with k < 0 or k > n")
	}
	if k == 0 {
		return nil
	}
	if k*4 <= n {
		// Floyd's algorithm.
		chosen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := s.Intn(j + 1)
			if _, ok := chosen[t]; ok {
				t = j
			}
			chosen[t] = struct{}{}
			out = append(out, t)
		}
		s.ShuffleInts(out)
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	// Partial Fisher-Yates: only the first k positions need to be fixed.
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// SampleBuf holds the reusable scratch behind SampleIntsBuf. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls.
type SampleBuf struct {
	out  []int
	perm []int
}

// SampleIntsBuf is SampleInts drawing the identical random stream but
// writing into buf's reusable storage, so steady-state callers (the
// evolution-model kernel drawing one recipe per iteration) sample
// without allocating. The returned slice aliases buf and is valid only
// until the next call with the same buf.
//
// Stream identity with SampleInts is load-bearing: the simulation
// kernels are pinned byte-for-byte against reference implementations
// that call SampleInts, so both methods must consume the same draws in
// the same order for every (n, k).
func (s *Source) SampleIntsBuf(n, k int, buf *SampleBuf) []int {
	if k < 0 || k > n {
		panic("randx: SampleIntsBuf called with k < 0 or k > n")
	}
	if k == 0 {
		return nil
	}
	if k*4 <= n {
		// Floyd's algorithm. The chosen set is exactly the elements of
		// out, so membership is a linear scan instead of a map; k is
		// small (recipe-sized) by the branch condition.
		if cap(buf.out) < k {
			buf.out = make([]int, 0, k)
		}
		out := buf.out[:0]
		for j := n - k; j < n; j++ {
			t := s.Intn(j + 1)
			for _, x := range out {
				if x == t {
					t = j
					break
				}
			}
			out = append(out, t)
		}
		s.ShuffleInts(out)
		buf.out = out
		return out
	}
	if cap(buf.perm) < n {
		// This path runs only while n < 4k, so room for 4k ids serves
		// every n a growing caller will pass before Floyd takes over.
		buf.perm = make([]int, n, 4*k)
	}
	p := buf.perm[:n]
	for i := range p {
		p[i] = i
	}
	// Partial Fisher-Yates: only the first k positions need to be fixed.
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// Choice returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Choice[T any](s *Source, xs []T) T {
	if len(xs) == 0 {
		panic("randx: Choice on empty slice")
	}
	return xs[s.Intn(len(xs))]
}

// WeightedSampler draws indices in [0, n) with probability proportional to
// the weights supplied at construction, in O(1) per draw (Vose's alias
// method). The structure is immutable after construction and safe for
// concurrent use with distinct Sources.
type WeightedSampler struct {
	prob  []float64
	alias []int
}

// NewWeightedSampler builds an alias table for the given non-negative
// weights. At least one weight must be positive; otherwise it panics.
func NewWeightedSampler(weights []float64) *WeightedSampler {
	n := len(weights)
	if n == 0 {
		panic("randx: NewWeightedSampler with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("randx: NewWeightedSampler with invalid weight")
		}
		total += w
	}
	if total <= 0 {
		panic("randx: NewWeightedSampler with all-zero weights")
	}
	ws := &WeightedSampler{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		ws.prob[l] = scaled[l]
		ws.alias[l] = g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		ws.prob[g] = 1
	}
	for _, l := range small {
		ws.prob[l] = 1 // numerical residue; treat as certain
	}
	return ws
}

// Len returns the number of categories in the sampler.
func (ws *WeightedSampler) Len() int { return len(ws.prob) }

// Draw returns an index in [0, Len()) with probability proportional to its
// weight.
func (ws *WeightedSampler) Draw(s *Source) int {
	i := s.Intn(len(ws.prob))
	if s.Float64() < ws.prob[i] {
		return i
	}
	return ws.alias[i]
}

// DrawDistinct returns k distinct indices drawn according to the weights
// (a weighted sample without replacement, by rejection on the alias
// table). It panics if k exceeds the number of categories. For k close to
// Len() the rejection loop degrades; callers in this library always use
// k ≪ Len() (recipe size ≪ pool size), and a guard falls back to an
// explicit renormalizing scan when rejection stalls.
func (ws *WeightedSampler) DrawDistinct(s *Source, k int) []int {
	n := len(ws.prob)
	if k < 0 || k > n {
		panic("randx: DrawDistinct called with k < 0 or k > n")
	}
	if k == 0 {
		return nil
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	misses := 0
	for len(out) < k {
		i := ws.Draw(s)
		if _, dup := seen[i]; dup {
			misses++
			if misses > 32*(k+1) {
				return ws.drawDistinctSlow(s, k, seen, out)
			}
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}

// drawDistinctSlow completes a without-replacement draw by explicit
// renormalization over the not-yet-chosen categories. The alias table does
// not retain original weights exactly, so we reconstruct effective weights
// from prob/alias: each category i contributes prob[i] directly plus the
// overflow mass routed to it by its aliasing partners.
func (ws *WeightedSampler) drawDistinctSlow(s *Source, k int, seen map[int]struct{}, out []int) []int {
	n := len(ws.prob)
	eff := make([]float64, n)
	for i := 0; i < n; i++ {
		eff[i] += ws.prob[i]
		if ws.prob[i] < 1 {
			eff[ws.alias[i]] += 1 - ws.prob[i]
		}
	}
	for len(out) < k {
		total := 0.0
		for i := 0; i < n; i++ {
			if _, dup := seen[i]; !dup {
				total += eff[i]
			}
		}
		target := s.Float64() * total
		pick := -1
		for i := 0; i < n; i++ {
			if _, dup := seen[i]; dup {
				continue
			}
			target -= eff[i]
			pick = i
			if target <= 0 {
				break
			}
		}
		seen[pick] = struct{}{}
		out = append(out, pick)
	}
	return out
}
