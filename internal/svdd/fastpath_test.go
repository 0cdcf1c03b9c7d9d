package svdd

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dbsvec/internal/vec"
)

// gaussCloud builds an n×d standard-normal cloud, scaled so the σ = r/√2
// rule yields a well-conditioned kernel.
func gaussCloud(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 0, n*d)
	for i := 0; i < n*d; i++ {
		coords = append(coords, rng.NormFloat64()*3)
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

// TestParallelFillBitIdentical pins the row cache under concurrency: caches
// of the same target filled at the same time on 2 and 8 goroutines, each in
// its own random row order and all drawing rows from the shared pool, hold
// bit-identical matrices to a cache filled alone, and each evaluates the
// same ñ(ñ−1)/2 entries.
func TestParallelFillBitIdentical(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{200, 4}, {200, 24}, {512, 8}, {512, 24}} {
		ds := gaussCloud(tc.n, tc.d, int64(tc.n+tc.d))
		ids := vec.Iota(tc.n)
		sigma := SigmaLowerBound(ds, ids)
		fill := func(km *kernelMatrix, order []int) {
			for _, i := range order {
				km.row(i)
			}
		}
		forward := make([]int, tc.n)
		for i := range forward {
			forward[i] = i
		}
		ref := newKernelMatrix(ds, ids, sigma)
		fill(ref, forward)

		for _, workers := range []int{2, 8} {
			rng := rand.New(rand.NewSource(int64(workers)))
			kms := make([]*kernelMatrix, workers)
			orders := make([][]int, workers)
			for w := range kms {
				kms[w] = newKernelMatrix(ds, ids, sigma)
				orders[w] = rng.Perm(tc.n)
			}
			var wg sync.WaitGroup
			for w := range kms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fill(kms[w], orders[w])
				}()
			}
			wg.Wait()
			for w, km := range kms {
				if km.entries != ref.entries {
					t.Errorf("n=%d d=%d workers=%d: %d kernel entries, alone %d",
						tc.n, tc.d, workers, km.entries, ref.entries)
				}
				for i := 0; i < tc.n; i++ {
					for j, v := range km.rows[i] {
						if want := ref.rows[i][j]; v != want {
							t.Fatalf("n=%d d=%d workers=%d cache %d: entry (%d,%d) = %x, alone %x",
								tc.n, tc.d, workers, w, i, j, math.Float64bits(v), math.Float64bits(want))
						}
					}
				}
				releaseMatrix(km)
			}
		}
		releaseMatrix(ref)
	}
}

// TestLazyRowsMatchDenseFill pins a partial read, as the solver makes above
// weightsExactCap: rows read lazily, a third of them in random order, hold
// bit-identical values to the same rows of a fully filled cache and to a
// per-pair evaluation, in both the plain and cached-norms distance regimes,
// and reading k rows evaluates exactly k(ñ−1) − k(k−1)/2 entries — each
// entry once, none outside the rows read.
func TestLazyRowsMatchDenseFill(t *testing.T) {
	for _, d := range []int{8, 24} { // below and above dist.NormCachedMinDim
		const n = 300
		ds := gaussCloud(n, d, int64(d))
		ids := vec.Iota(n)
		sigma := SigmaLowerBound(ds, ids)

		dense := newKernelMatrix(ds, ids, sigma)
		for i := 0; i < n; i++ {
			dense.row(i)
		}
		lazy := newKernelMatrix(ds, ids, sigma)
		read := rand.New(rand.NewSource(int64(d))).Perm(n)[:n/3]
		for _, i := range read {
			lazy.row(i)
		}
		k := int64(len(read))
		if want := k*int64(n-1) - k*(k-1)/2; lazy.entries != want {
			t.Errorf("d=%d: %d kernel entries for %d rows, want %d", d, lazy.entries, k, want)
		}
		for i, r := range lazy.rows {
			if r != nil && !slices.Contains(read, i) {
				t.Fatalf("d=%d: row %d built without being read", d, i)
			}
		}
		for _, i := range read {
			for j, v := range lazy.rows[i] {
				if want := dense.rows[i][j]; v != want {
					t.Fatalf("d=%d: row %d entry %d lazy %x dense %x", d, i, j,
						math.Float64bits(v), math.Float64bits(want))
				}
			}
		}
		checkRows(t, "lazy", lazy, read, kernelRef(ds, ids, sigma))
		releaseMatrix(lazy)
		releaseMatrix(dense)
	}
}

// TestTrainWorkersDeterministic verifies that a training is a function of
// its inputs only: trainings running concurrently on 2 and 8 goroutines,
// which share the kernel row pool and so build their rows from recycled
// buffers, produce bit-identical models and evaluate the same number of
// kernel entries as a training run alone.
func TestTrainWorkersDeterministic(t *testing.T) {
	for _, d := range []int{8, 24} {
		ds := gaussCloud(400, d, 11)
		ids := vec.Iota(400)
		times := make([]int, 400)
		base, err := Train(ds, ids, Config{Nu: 0.1, Times: times})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			models := make([]*Model, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range models {
				wg.Add(1)
				go func() {
					defer wg.Done()
					models[w], errs[w] = Train(ds, ids, Config{Nu: 0.1, Times: times})
				}()
			}
			wg.Wait()
			for w, m := range models {
				if errs[w] != nil {
					t.Fatal(errs[w])
				}
				if m.Iterations != base.Iterations || m.R2 != base.R2 || m.Times.KernelEntries != base.Times.KernelEntries {
					t.Fatalf("d=%d workers=%d: iterations/R2/entries %d/%v/%d differ from a lone training %d/%v/%d",
						d, workers, m.Iterations, m.R2, m.Times.KernelEntries, base.Iterations, base.R2, base.Times.KernelEntries)
				}
				for i := range m.Alpha {
					if m.Alpha[i] != base.Alpha[i] {
						t.Fatalf("d=%d workers=%d: alpha[%d] differs", d, workers, i)
					}
				}
			}
		}
	}
}

// TestKernelEntriesBounded pins the kernel-work counter of single trainings:
// no training evaluates more than the ñ(ñ−1)/2 entries of the upper
// triangle; a target of at most weightsExactCap points with adaptive weights
// reads every row and so costs exactly that; and above the cap the solver
// touches only part of the matrix, so the count is strictly below it.
func TestKernelEntriesBounded(t *testing.T) {
	for _, tc := range []struct {
		n       int
		weights bool
	}{{100, true}, {100, false}, {weightsExactCap, true}, {400, true}, {1074, true}} {
		ds := gaussCloud(tc.n, 8, int64(tc.n))
		cfg := Config{Nu: 0.1}
		if tc.weights {
			cfg.Times = make([]int, tc.n)
		}
		m, err := Train(ds, vec.Iota(tc.n), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dense := int64(tc.n) * int64(tc.n-1) / 2
		got := m.Times.KernelEntries
		switch {
		case got <= 0 || got > dense:
			t.Errorf("n=%d weights=%v: %d kernel entries, want in (0, %d]", tc.n, tc.weights, got, dense)
		case tc.weights && tc.n <= weightsExactCap && got != dense:
			t.Errorf("n=%d: exact weights read every row, want %d entries, got %d", tc.n, dense, got)
		case tc.n > weightsExactCap && got >= dense:
			t.Errorf("n=%d: %d kernel entries, want fewer than the dense %d", tc.n, got, dense)
		}
	}
}

// kktViolation returns the maximal-violating-pair gap of a trained model:
// max over feasible down candidates of f_i minus min over feasible up
// candidates of f_j. Convergence means the gap is below tolerance.
func kktViolation(t *testing.T, ds *vec.Dataset, m *Model) float64 {
	t.Helper()
	km := newKernelMatrix(ds, m.IDs, m.Sigma)
	defer releaseMatrix(km)
	n := len(m.IDs)
	upVal, downVal := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		var f float64
		row := km.row(i)
		for j := 0; j < n; j++ {
			f += m.Alpha[j] * row[j]
		}
		if m.Alpha[i] < m.Upper[i]-svThreshold && f < upVal {
			upVal = f
		}
		if m.Alpha[i] > svThreshold && f > downVal {
			downVal = f
		}
	}
	return downVal - upVal
}

// TestShrinkMatchesFullScan verifies that shrinking changes no observable
// output: the final full-pass KKT re-check makes the shrunk solver converge
// to a model satisfying the same conditions, and on these inputs the very
// same iterate path.
func TestShrinkMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := gaussCloud(350, 6, seed)
		ids := vec.Iota(350)
		times := make([]int, 350)
		full, err := Train(ds, ids, Config{Nu: 0.05, Times: times, NoShrink: true})
		if err != nil {
			t.Fatal(err)
		}
		shrunk, err := Train(ds, ids, Config{Nu: 0.05, Times: times})
		if err != nil {
			t.Fatal(err)
		}
		if g := kktViolation(t, ds, shrunk); g >= defaultTol {
			t.Errorf("seed %d: shrunk model violates KKT by %g", seed, g)
		}
		// Shrinking may select different pairs after the first prune, so the
		// iterate paths can diverge — but both minimize the same convex dual
		// to the same KKT gap, bounding the objective difference by O(tol).
		if math.Abs(full.ObjectiveValue()-shrunk.ObjectiveValue()) > 1e-3 {
			t.Errorf("seed %d: objective %g (shrink) vs %g (full scan)",
				seed, shrunk.ObjectiveValue(), full.ObjectiveValue())
		}
		if s := shrunk.SumAlpha(); math.Abs(s-1) > 1e-9 {
			t.Errorf("seed %d: sum alpha = %g", seed, s)
		}
	}
}

// TestWarmStartEquivalent verifies a warm-started training converges to the
// same dual solution as a cold start at the same tolerance: equal objective
// within tolerance, full KKT satisfied, feasible simplex mass.
func TestWarmStartEquivalent(t *testing.T) {
	ds := gaussCloud(500, 4, 9)
	allIds := vec.Iota(500)
	prev, err := Train(ds, allIds[:400], Config{Nu: 0.08, Times: make([]int, 400)})
	if err != nil {
		t.Fatal(err)
	}
	warmAlpha := make([]float64, 500)
	copy(warmAlpha, prev.Alpha)

	cold, err := Train(ds, allIds, Config{Nu: 0.08, Times: make([]int, 500)})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Train(ds, allIds, Config{Nu: 0.08, Times: make([]int, 500), WarmAlpha: warmAlpha})
	if err != nil {
		t.Fatal(err)
	}
	if g := kktViolation(t, ds, warm); g >= defaultTol {
		t.Errorf("warm model violates KKT by %g", g)
	}
	if s := warm.SumAlpha(); math.Abs(s-1) > 1e-9 {
		t.Errorf("warm sum alpha = %g", s)
	}
	// Identical minima up to the solver tolerance: the dual is convex, so
	// both runs end within tol-induced distance of the optimum.
	if diff := math.Abs(warm.ObjectiveValue() - cold.ObjectiveValue()); diff > 1e-3 {
		t.Errorf("warm objective %g vs cold %g (diff %g)",
			warm.ObjectiveValue(), cold.ObjectiveValue(), diff)
	}
}

// TestWarmStartRejectsBadLength pins the config validation.
func TestWarmStartRejectsBadLength(t *testing.T) {
	ds := gaussCloud(20, 2, 1)
	if _, err := Train(ds, vec.Iota(20), Config{Nu: 0.5, WarmAlpha: make([]float64, 7)}); err == nil {
		t.Fatal("want error for mismatched WarmAlpha length")
	}
}

// TestInitAlpha covers the warm-start normalization cases directly.
func TestInitAlpha(t *testing.T) {
	upper := []float64{0.5, 0.5, 0.5, 0.5}
	sum := func(a []float64) float64 {
		var s float64
		for _, v := range a {
			s += v
		}
		return s
	}

	// Cold start: greedy cap-respecting fill.
	a := make([]float64, 4)
	initAlpha(a, upper, nil)
	if a[0] != 0.5 || a[1] != 0.5 || a[2] != 0 || sum(a) != 1 {
		t.Errorf("cold fill = %v", a)
	}

	// Excess mass scales down inside the boxes.
	a = make([]float64, 4)
	initAlpha(a, upper, []float64{0.5, 0.5, 0.5, 0.5})
	if math.Abs(sum(a)-1) > 1e-12 || a[0] != 0.25 {
		t.Errorf("scaled warm = %v", a)
	}

	// Deficit is pushed onto the nonzero entries first, keeping zeros zero.
	a = make([]float64, 4)
	initAlpha(a, upper, []float64{0.4, 0.2, 0, 0})
	if math.Abs(sum(a)-1) > 1e-12 || a[2] != 0 || a[3] != 0 {
		t.Errorf("sparse top-up = %v", a)
	}

	// Clamping: negatives and over-cap values land inside the box.
	a = make([]float64, 4)
	initAlpha(a, upper, []float64{2, -1, 0.25, 0})
	if a[0] != 0.5 || a[1] != 0 || math.Abs(sum(a)-1) > 1e-12 {
		t.Errorf("clamped warm = %v", a)
	}

	// All-zero warm vector falls back to the cold fill.
	a = make([]float64, 4)
	initAlpha(a, upper, []float64{0, 0, 0, 0})
	if a[0] != 0.5 || a[1] != 0.5 || sum(a) != 1 {
		t.Errorf("zero warm fill = %v", a)
	}
}

// TestTopSupportVectorsTieBreak pins the deterministic ordering when
// support vectors tie on boundary score: ids ascend.
func TestTopSupportVectorsTieBreak(t *testing.T) {
	m := &Model{
		IDs:     []int32{42, 7, 19, 3, 88},
		Alpha:   []float64{0.2, 0.2, 0.2, 0.2, 0.2},
		Upper:   []float64{1, 1, 1, 1, 1},
		svScore: []float64{0.5, 0.5, 0.5, 0.5, 0.5},
	}
	got := m.TopSupportVectors(3)
	want := []int32{3, 7, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal-score tie break = %v, want %v", got, want)
		}
	}
	// Mixed scores: higher score first, ties among the rest by id.
	m.svScore = []float64{0.5, 0.9, 0.5, 0.5, 0.5}
	got = m.TopSupportVectors(3)
	want = []int32{7, 3, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed-score tie break = %v, want %v", got, want)
		}
	}
	// Nil svScore (untrained construction) must not panic and still order
	// by id on the all-equal scores.
	m.svScore = nil
	got = m.TopSupportVectors(2)
	want = []int32{3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nil-score tie break = %v, want %v", got, want)
		}
	}
}

// benchTrainConfig mirrors a DBSVEC training round at the acceptance shape
// ñ=512, d=8.
func benchTrainConfig() Config {
	return Config{Nu: 0.1, Times: make([]int, 512), Dim: 8, MinPts: 100}
}

// BenchmarkTrain512d8 is the micro-benchmark recorded in
// internal/svdd/README.md: a DBSVEC-shaped training with the full-scan
// solver and with shrinking, reporting the kernel entries each evaluates.
func BenchmarkTrain512d8(b *testing.B) {
	ds := gaussCloud(512, 8, 3)
	ids := vec.Iota(512)
	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		var entries int64
		for i := 0; i < b.N; i++ {
			m, err := Train(ds, ids, cfg)
			if err != nil {
				b.Fatal(err)
			}
			entries += m.Times.KernelEntries
		}
		b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
	}
	b.Run("full-scan", func(b *testing.B) {
		cfg := benchTrainConfig()
		cfg.NoShrink = true
		run(b, cfg)
	})
	b.Run("shrink", func(b *testing.B) {
		run(b, benchTrainConfig())
	})
}

// BenchmarkKernelFill512 isolates the kernel evaluation cost: every row of
// a 512-point matrix is read, which evaluates each upper-triangle entry
// once and copies the rest.
func BenchmarkKernelFill512(b *testing.B) {
	ds := gaussCloud(512, 8, 3)
	ids := vec.Iota(512)
	sigma := SigmaLowerBound(ds, ids)
	var entries int64
	for i := 0; i < b.N; i++ {
		km := newKernelMatrix(ds, ids, sigma)
		for r := 0; r < km.n; r++ {
			km.row(r)
		}
		entries += km.entries
		releaseMatrix(km)
	}
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}
