package svdd

import (
	"math"
	"slices"
	"sync"

	"dbsvec/internal/dist"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// GaussianKernel evaluates the Gaussian (RBF) kernel of Eq. 6,
// K(a,b) = exp(-||a-b||² / (2σ²)).
func GaussianKernel(a, b []float64, sigma float64) float64 {
	return math.Exp(-dist.SqDist(a, b) / (2 * sigma * sigma))
}

// kernelMatrix is the symmetric ñ×ñ Gaussian kernel matrix over a target
// set, held as a cache of rows: row i is built the first time the solver, the
// adaptive-weights pass or finish reads it, and nothing is evaluated before
// that. This keeps SMO at the paper's O(ñ) per iteration (Section IV-D) —
// only the rows the solver actually touches are evaluated, and with few
// support vectors that is a small fraction of the matrix.
//
// Building row i copies K(i,j) = rows[j][i] from every row j already cached
// and evaluates only the remaining columns, in one batched distance call
// over the uncached target positions. So no entry is ever computed twice: a
// matrix whose rows are all read costs ñ(ñ−1)/2 evaluations, as a dense
// fill of the upper triangle would. The copy is exact: every entry is a
// per-pair-independent evaluation, and each distance route is symmetric bit
// for bit — ‖a−b‖² squares the same differences up to sign, and the
// cached-norms identity ‖a‖²+‖b‖²−2a·b is built from commutative IEEE
// additions and products — so rows[j][i] is the value row i would have
// computed for column j. Every K(i,j) is therefore independent of the order
// in which rows are read, and trained models do not depend on it.
type kernelMatrix struct {
	ds  *vec.Dataset
	ids []int32
	// m (or m32 in float32 storage mode, where m is empty) holds the
	// targets' coordinates gathered into one contiguous block, row i being
	// target i: the batched kernels then stream the uncached columns in
	// order instead of chasing ids across the whole dataset, which measured
	// about a quarter off the kernel time on 64-d embeddings.
	m     dist.Matrix
	m32   dist.Matrix32
	gamma float64 // 1/(2σ²)
	n     int
	rows  [][]float64 // rows[i] once read, nil before
	// norms caches ‖x_i‖² per target for the cached-norms distance identity;
	// nil below dist.NormCachedMinDim, where the identity does not pay off,
	// and nil in float32 storage mode, where the identity's catastrophic
	// cancellation on large-magnitude coordinates is not worth the speedup.
	// The identity reassociates arithmetic (ULP-level error), which the
	// tolerance-based SMO solver absorbs — range-query backends never use it.
	norms []float64
	// entries counts the kernel entries evaluated so far (copies from
	// cached rows and the unit diagonal are free).
	entries int64
	// cached lists the targets whose rows are built. uncached lists the
	// others in ascending order — exactly the columns a new row must
	// evaluate — with their norms alongside when the identity is on.
	cached   []int32
	uncached []int32
	unorms   []float64
	d2       []float64 // squared-distance scratch
}

// weightsExactCap is the largest target size for which the adaptive weights
// (Eq. 7) use exact kernel row sums, which read every row. Beyond it the
// pivot-sampled estimate is used.
const weightsExactCap = 256

// rowPool recycles kernel rows: SMO materializes a row per touched target,
// and consecutive trainings touch similar row counts at similar lengths.
var rowPool sync.Pool

func getRowBuf(n int) []float64 {
	if v := rowPool.Get(); v != nil {
		buf := v.([]float64)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// releaseMatrix returns the materialized rows to the pool; called by Train
// once the solver is done with them.
func releaseMatrix(km *kernelMatrix) {
	for i, r := range km.rows {
		if r != nil {
			rowPool.Put(r) //nolint:staticcheck // slice reuse is the point
			km.rows[i] = nil
		}
	}
	km.rows = nil
}

// newKernelMatrix prepares the row cache for the target set; no kernel entry
// is evaluated until a row is read.
func newKernelMatrix(ds *vec.Dataset, ids []int32, sigma float64) *kernelMatrix {
	n, d := len(ids), ds.Dim()
	km := &kernelMatrix{
		ds: ds, ids: ids, gamma: 1 / (2 * sigma * sigma), n: n,
		rows:   make([][]float64, n),
		cached: make([]int32, 0, n), uncached: vec.Iota(n),
		d2: make([]float64, n),
	}
	if m32 := ds.Matrix32(); m32.Coords != nil {
		km.m32 = dist.Matrix32{Coords: make([]float32, 0, n*d), Dim: d}
		for _, id := range ids {
			km.m32.Coords = append(km.m32.Coords, m32.Row(int(id))...)
		}
		return km
	}
	m := ds.Matrix()
	km.m = dist.Matrix{Coords: make([]float64, 0, n*d), Dim: d}
	for _, id := range ids {
		km.m.Coords = append(km.m.Coords, m.Row(int(id))...)
	}
	if d >= dist.NormCachedMinDim {
		km.norms = dist.Norms(km.m)
		km.unorms = slices.Clone(km.norms)
	}
	return km
}

// row returns row i of the kernel matrix (length ñ), building and caching it
// on first access: entries mirrored in already-cached rows are copied, the
// rest are evaluated in one batched call.
func (km *kernelMatrix) row(i int) []float64 {
	if r := km.rows[i]; r != nil {
		return r
	}
	fault.PanicNow(fault.WorkerPanic)
	r := getRowBuf(km.n)
	for _, j := range km.cached {
		r[j] = km.rows[j][i]
	}
	r[i] = 1
	km.cached = append(km.cached, int32(i))
	p, _ := slices.BinarySearch(km.uncached, int32(i))
	km.uncached = slices.Delete(km.uncached, p, p+1)
	if km.unorms != nil {
		km.unorms = slices.Delete(km.unorms, p, p+1)
	}
	if miss := km.uncached; len(miss) > 0 {
		d2 := km.d2[:len(miss)]
		q := km.ds.Point(int(km.ids[i]))
		switch {
		case km.norms != nil:
			dist.SqDistsToCached(km.m, q, km.norms[i], miss, km.unorms, d2)
		case km.m32.Coords != nil:
			dist.SqDistsTo32(km.m32, q, miss, d2)
		default:
			dist.SqDistsTo(km.m, q, miss, d2)
		}
		for k, j := range miss {
			r[j] = math.Exp(-d2[k] * km.gamma)
		}
		km.entries += int64(len(miss))
	}
	km.rows[i] = r
	return r
}

// KernelDistances evaluates the kernel distance function D(x) of Eq. 5 for
// every point of the target set: the squared feature-space distance from
// Φ(x_i) to the kernel centroid (1/ñ)ΣΦ(x_j). Exact O(ñ²) version; the
// solver's internal weight computation uses the pivot-sampled estimate
// instead.
func KernelDistances(ds *vec.Dataset, ids []int32, sigma float64) []float64 {
	n := len(ids)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	gamma := 1 / (2 * sigma * sigma)
	m := ds.Matrix()
	m32 := ds.Matrix32()
	var norms []float64
	if ds.Precision() == vec.F64 && ds.Dim() >= dist.NormCachedMinDim {
		norms = dist.NormsIDs(m, ids)
	}
	// s[i] = Σ_j K(x_i, x_j); the double sum is Σ_i s[i].
	s := make([]float64, n)
	scratch := make([]float64, n)
	var double float64
	for i := 0; i < n; i++ {
		s[i] += 1 // K(x_i,x_i)
		row := scratch[:n-i-1]
		switch {
		case norms != nil:
			dist.SqDistsToCached(m, ds.Point(int(ids[i])), norms[i], ids[i+1:], norms[i+1:], row)
		case m32.Coords != nil:
			dist.SqDistsTo32(m32, ds.Point(int(ids[i])), ids[i+1:], row)
		default:
			dist.SqDistsTo(m, ds.Point(int(ids[i])), ids[i+1:], row)
		}
		for k, d2 := range row {
			v := math.Exp(-d2 * gamma)
			s[i] += v
			s[i+1+k] += v
		}
	}
	for i := 0; i < n; i++ {
		double += s[i]
	}
	nf := float64(n)
	c := double / (nf * nf)
	for i := 0; i < n; i++ {
		d := c + 1 - 2*s[i]/nf
		if d < 0 {
			d = 0 // numeric guard; D is a squared norm
		}
		out[i] = d
	}
	return out
}

// SigmaLowerBound returns the paper's kernel width choice σ = r/√2
// (Section IV-B2), where r is the distance from the centroid of the target
// points to the farthest target point. A small positive floor keeps the
// kernel well-defined for degenerate targets (single point, duplicates).
func SigmaLowerBound(ds *vec.Dataset, ids []int32) float64 {
	const floor = 1e-9
	if len(ids) == 0 {
		return floor
	}
	mean := ds.Mean(ids)
	var maxD2 float64
	for _, id := range ids {
		if d2 := vec.SqDist(ds.Point(int(id)), mean); d2 > maxD2 {
			maxD2 = d2
		}
	}
	sigma := math.Sqrt(maxD2) / math.Sqrt2
	if sigma < floor {
		sigma = floor
	}
	return sigma
}

// NuStar returns the paper's adaptive penalty factor
// ν* = d·√(log_MinPts ñ)/ñ (Eq. 20), clamped into (0, 1].
func NuStar(dim, minPts, targetSize int) float64 {
	if targetSize <= 0 {
		return 1
	}
	nf := float64(targetSize)
	nu := 1 / nf // minimum meaningful value: a single support vector
	if minPts > 1 && targetSize > 1 {
		l := math.Log(nf) / math.Log(float64(minPts))
		if l > 0 {
			nu = float64(dim) * math.Sqrt(l) / nf
		}
	}
	if nu < 1/nf {
		nu = 1 / nf
	}
	if nu > 1 {
		nu = 1
	}
	return nu
}
