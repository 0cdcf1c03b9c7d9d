package svdd

import (
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

func precTestDataset(t *testing.T, rng *rand.Rand, n, d int, offset float64) *vec.Dataset {
	t.Helper()
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = offset + rng.Float64()*10
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// kernelRef returns an independent per-pair evaluation of the kernel
// entries over the target ids — plain SqDist, or the cached-norms identity
// where the row cache uses it (f64 at d >= NormCachedMinDim), then Exp — to
// check the row cache against.
func kernelRef(ds *vec.Dataset, ids []int32, sigma float64) func(i, j int) float64 {
	gamma := 1 / (2 * sigma * sigma)
	norms := ds.Precision() == vec.F64 && ds.Dim() >= dist.NormCachedMinDim
	return func(i, j int) float64 {
		if i == j {
			return 1
		}
		a, b := ds.Point(int(ids[i])), ds.Point(int(ids[j]))
		var d2 float64
		if norms {
			d2 = max(dist.Norm2(a)+dist.Norm2(b)-2*dist.Dot(a, b), 0)
		} else {
			d2 = dist.SqDist(a, b)
		}
		return math.Exp(-d2 * gamma)
	}
}

// checkRows fails unless every entry of the listed cached rows equals ref
// bit for bit.
func checkRows(t *testing.T, what string, km *kernelMatrix, rows []int, ref func(i, j int) float64) {
	t.Helper()
	for _, i := range rows {
		r := km.rows[i]
		for j := 0; j < km.n; j++ {
			if w := ref(i, j); r[j] != w {
				t.Fatalf("%s: entry (%d,%d) = %x, per-pair %x",
					what, i, j, math.Float64bits(r[j]), math.Float64bits(w))
			}
		}
	}
}

// TestFillDenseBlockedBitIdentical pins the row cache's storage guarantee
// for a full fill (every row read, as exact adaptive weights do): in
// whatever order the rows are read, every entry K(i,j) equals, bit for bit,
// an independent per-pair evaluation, so an entry copied from the mirrored
// row j is indistinguishable from one row i evaluates itself. Rows come from
// the shared pool, so each order also overwrites the previous order's stale
// rows. The fill evaluates exactly the ñ(ñ−1)/2 upper-triangle entries. The
// name is that of the cache-blocked dense fill this cache replaced.
func TestFillDenseBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		d    int
		prec vec.Precision
	}{
		{"f64-small-dim", 6, vec.F64},
		{"f64-norms", 24, vec.F64}, // d >= NormCachedMinDim: cached-norms rows
		{"f32", 6, vec.F32},
		{"f32-large-dim", 24, vec.F32}, // norms stay off in f32 mode
	} {
		t.Run(tc.name, func(t *testing.T) {
			const total, n = 300, 205
			ds := precTestDataset(t, rng, total, tc.d, 0)
			ds, err := ds.ToPrecision(tc.prec)
			if err != nil {
				t.Fatal(err)
			}
			// A scattered subset, so gathered ids differ from target positions.
			ids := make([]int32, n)
			for k, p := range rng.Perm(total)[:n] {
				ids[k] = int32(p)
			}
			sigma := SigmaLowerBound(ds, ids)
			ref := kernelRef(ds, ids, sigma)

			forward := make([]int, n)
			reverse := make([]int, n)
			for i := range forward {
				forward[i], reverse[i] = i, n-1-i
			}
			orders := map[string][]int{
				"forward": forward, "reverse": reverse,
				"random1": rng.Perm(n), "random2": rng.Perm(n),
			}
			for name, order := range orders {
				km := newKernelMatrix(ds, ids, sigma)
				for _, i := range order {
					km.row(i)
				}
				km.row(order[0]) // a re-read is free
				if want := int64(n) * int64(n-1) / 2; km.entries != want {
					t.Errorf("%s: %d kernel entries for a full fill, want %d", name, km.entries, want)
				}
				checkRows(t, name, km, order, ref)
				releaseMatrix(km)
			}
		})
	}
}

// TestF32ModeDisablesNormsIdentity is the regression for the cached-norms
// cancellation hazard: in float32 storage mode the kernel matrix and
// KernelDistances must not route through the ‖a‖²+‖q‖²−2a·q identity even
// above NormCachedMinDim, because on large-magnitude coordinates the
// identity's cancellation error dwarfs the distances float32 mode cares
// about. The plain f32 kernels keep full accuracy: their kernel distances
// must agree with a direct SqDist evaluation to ULP precision where the
// norms identity would be off by orders of magnitude more.
func TestF32ModeDisablesNormsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, d = 60, 24 // d >= NormCachedMinDim
	// Coordinates near 1e6 with spread ~10: ‖a‖² ≈ 2.4e13 while distances are
	// ~1e3, the regime where the identity loses ~10 digits.
	ds64 := precTestDataset(t, rng, n, d, 1e6)
	ds, err := ds64.ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	ids := vec.Iota(n)
	sigma := SigmaLowerBound(ds, ids)

	if km := newKernelMatrix(ds, ids, sigma); km.norms != nil {
		t.Fatal("f32-mode kernel matrix cached norms; the identity must be gated off")
	}
	// The F64 view of the same quantized coordinates does use the identity.
	master, err := ds.ToPrecision(vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	if km := newKernelMatrix(master, ids, sigma); km.norms == nil {
		t.Fatal("f64 kernel matrix at d>=NormCachedMinDim should cache norms")
	}

	got := KernelDistances(ds, ids, sigma)
	// Naive reference with plain full-precision distances.
	gamma := 1 / (2 * sigma * sigma)
	s := make([]float64, n)
	var double float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Exp(-dist.SqDist(ds.Point(i), ds.Point(j)) * gamma)
			s[i] += v
		}
	}
	for i := 0; i < n; i++ {
		double += s[i]
	}
	for i := 0; i < n; i++ {
		want := double/float64(n*n) + 1 - 2*s[i]/float64(n)
		if want < 0 {
			want = 0
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("KernelDistances[%d] = %v, plain-kernel reference %v", i, got[i], want)
		}
	}
}

// TestTrainF32MatchesWidenedMaster: below the norms threshold both storage
// modes run the very same float64 arithmetic, so training on float32 storage
// must reproduce the widened-master model bit for bit — support vectors,
// multipliers, radius and all.
func TestTrainF32MatchesWidenedMaster(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n, d = 200, 8
	ds64 := precTestDataset(t, rng, n, d, 0)
	ds32, err := ds64.ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	master, err := ds32.ToPrecision(vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	ids := vec.Iota(n)
	cfg := func() Config {
		return Config{Nu: 0.1, Times: make([]int, n), Tol: 1e-4, Dim: d, MinPts: 20}
	}
	m32, err := Train(ds32, ids, cfg())
	if err != nil {
		t.Fatal(err)
	}
	m64, err := Train(master, ids, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if m32.R2 != m64.R2 || m32.Iterations != m64.Iterations {
		t.Fatalf("f32 model (R2=%v, iters=%d) != widened-master model (R2=%v, iters=%d)",
			m32.R2, m32.Iterations, m64.R2, m64.Iterations)
	}
	if len(m32.Alpha) != len(m64.Alpha) {
		t.Fatalf("alpha lengths differ: %d vs %d", len(m32.Alpha), len(m64.Alpha))
	}
	for i := range m32.Alpha {
		if m32.Alpha[i] != m64.Alpha[i] {
			t.Fatalf("alpha[%d]: f32 %v != widened %v", i, m32.Alpha[i], m64.Alpha[i])
		}
	}
}
