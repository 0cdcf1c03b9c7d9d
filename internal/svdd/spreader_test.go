package svdd_test

import (
	"sort"
	"testing"

	"dbsvec/internal/data"
	"dbsvec/internal/dist"
	"dbsvec/internal/svdd"
)

// TestSpreaderKernelEntriesBelowDense trains DBSVEC-shaped rounds on the
// paper's SeedSpreader data — each target the ñ nearest points of a seed,
// with adaptive weights and ν* — and checks the kernel work: no training
// evaluates more than the ñ(ñ−1)/2 entries a dense fill would, and in total
// the row cache evaluates strictly fewer.
func TestSpreaderKernelEntriesBelowDense(t *testing.T) {
	ds := data.SeedSpreader{N: 20000, D: 8, Seed: 1}.Generate()
	var got, dense int64
	for k, n := range []int{128, 256, 384, 512, 768, 1024} {
		seed := ds.Point(k * 3331)
		order := make([]int32, ds.Len())
		d2 := make([]float64, ds.Len())
		for i := range order {
			order[i] = int32(i)
			d2[i] = dist.SqDist(ds.Point(i), seed)
		}
		sort.Slice(order, func(a, b int) bool { return d2[order[a]] < d2[order[b]] })
		ids := append([]int32(nil), order[:n]...)

		m, err := svdd.Train(ds, ids, svdd.Config{Times: make([]int, n), Dim: ds.Dim(), MinPts: 100})
		if m == nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		full := int64(n) * int64(n-1) / 2
		if e := m.Times.KernelEntries; e <= 0 || e > full {
			t.Errorf("n=%d: %d kernel entries, want in (0, %d]", n, e, full)
		}
		got += m.Times.KernelEntries
		dense += full
	}
	if got >= dense {
		t.Errorf("%d kernel entries in total, want fewer than the dense %d", got, dense)
	}
	t.Logf("kernel entries %d of dense %d (%.0f%%)", got, dense, 100*float64(got)/float64(dense))
}
