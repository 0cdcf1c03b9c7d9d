// Benchmarks mapping one testing.B to every table and figure of the
// paper's evaluation (Section V). They time the same algorithm/workload
// pairs the corresponding experiment regenerates; run the cmd/benchall
// harness for the full printed tables.
package dbsvec

import (
	"context"
	"fmt"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/eval"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/index/rtree"
	"dbsvec/internal/kmeans"
	"dbsvec/internal/lshdbscan"
	"dbsvec/internal/nqdbscan"
	"dbsvec/internal/rhodbscan"
	"dbsvec/internal/vec"
)

// benchSpreader caches generated datasets across sub-benchmarks.
var benchCache = map[string]*vec.Dataset{}

func spreader(n, d int) *vec.Dataset {
	key := fmt.Sprintf("s/%d/%d", n, d)
	if ds, ok := benchCache[key]; ok {
		return ds
	}
	ds := data.SeedSpreader{N: n, D: d, Seed: 1}.Generate()
	benchCache[key] = ds
	return ds
}

// BenchmarkFig1_T48K times DBSCAN vs DBSVEC on the t4.8k analogue with the
// paper's parameters (MinPts=20, eps=8.5) — Figure 1.
func BenchmarkFig1_T48K(b *testing.B) {
	ds := data.Chameleon48K(1)
	b.Run("DBSCAN", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dbscan.Run(ds, dbscan.Params{Eps: 8.5, MinPts: 20}, rtree.Build); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DBSVEC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Run(ds, core.Options{Eps: 8.5, MinPts: 20, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3_Recall times the four accuracy contenders on a Table III
// dataset (t7.10k analogue) and reports the recall each achieves.
func BenchmarkTable3_Recall(b *testing.B) {
	e, err := data.SuiteByName("t7.10k")
	if err != nil {
		b.Fatal(err)
	}
	ds := e.Gen(1)
	truth, _, err := dbscan.Run(ds, dbscan.Params{Eps: e.Eps, MinPts: e.MinPts}, rtree.Build)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, res *benchResult) {
		rec, err := eval.PairRecall(truth, res.r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rec, "recall")
	}
	b.Run("DBSVEC", func(b *testing.B) {
		var last *benchResult
		for i := 0; i < b.N; i++ {
			r, _, err := core.Run(ds, core.Options{Eps: e.Eps, MinPts: e.MinPts, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			last = &benchResult{r}
		}
		report(b, last)
	})
	b.Run("DBSVECmin", func(b *testing.B) {
		var last *benchResult
		for i := 0; i < b.N; i++ {
			r, _, err := core.Run(ds, core.Options{Eps: e.Eps, MinPts: e.MinPts, NuMin: true, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			last = &benchResult{r}
		}
		report(b, last)
	})
	b.Run("RhoApprox", func(b *testing.B) {
		var last *benchResult
		for i := 0; i < b.N; i++ {
			r, _, err := rhodbscan.Run(ds, rhodbscan.Params{Eps: e.Eps, MinPts: e.MinPts, Rho: 0.001})
			if err != nil {
				b.Fatal(err)
			}
			last = &benchResult{r}
		}
		report(b, last)
	})
	b.Run("DBSCANLSH", func(b *testing.B) {
		var last *benchResult
		for i := 0; i < b.N; i++ {
			r, _, err := lshdbscan.Run(ds, lshdbscan.Params{Eps: e.Eps, MinPts: e.MinPts})
			if err != nil {
				b.Fatal(err)
			}
			last = &benchResult{r}
		}
		report(b, last)
	})
}

type benchResult struct{ r *cluster.Result }

// BenchmarkTable4_Validation times DBSVEC vs k-MEANS plus the validation
// metrics on the Dim64 stand-in — Table IV.
func BenchmarkTable4_Validation(b *testing.B) {
	e, err := data.SuiteByName("Dim64")
	if err != nil {
		b.Fatal(err)
	}
	ds := e.Gen(1)
	b.Run("DBSVEC+metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, err := core.Run(ds, core.Options{Eps: e.Eps, MinPts: e.MinPts, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eval.Silhouette(ds, res); err != nil {
				b.Fatal(err)
			}
			if _, err := eval.DaviesBouldin(ds, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KMeans+metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, _, err := kmeans.Run(ds, kmeans.Params{K: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eval.Silhouette(ds, res); err != nil {
				b.Fatal(err)
			}
			if _, err := eval.DaviesBouldin(ds, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6a_Cardinality times the main contenders across cardinalities
// (d=8, MinPts=100, eps=5000) — Figure 6a.
func BenchmarkFig6a_Cardinality(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		ds := spreader(n, 8)
		b.Run(fmt.Sprintf("DBSVEC/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("kdDBSCAN/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dbscan.Run(ds, dbscan.Params{Eps: 5000, MinPts: 100}, kdtree.Build); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("RhoApprox/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rhodbscan.Run(ds, rhodbscan.Params{Eps: 5000, MinPts: 100, Rho: 0.001}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6b_Dimensionality times DBSVEC and ρ-approximate across
// dimensionalities — Figure 6b (ρ-approx deteriorates with d).
func BenchmarkFig6b_Dimensionality(b *testing.B) {
	for _, d := range []int{2, 8, 16} {
		ds := spreader(10000, d)
		b.Run(fmt.Sprintf("DBSVEC/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("RhoApprox/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rhodbscan.Run(ds, rhodbscan.Params{Eps: 5000, MinPts: 100, Rho: 0.001}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7_Radius times DBSVEC and kd-DBSCAN across radii — Figure 7.
func BenchmarkFig7_Radius(b *testing.B) {
	ds := spreader(10000, 8)
	for _, eps := range []float64{5000, 25000, 45000} {
		b.Run(fmt.Sprintf("DBSVEC/eps=%.0f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: eps, MinPts: 100, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("kdDBSCAN/eps=%.0f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dbscan.Run(ds, dbscan.Params{Eps: eps, MinPts: 100}, kdtree.Build); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8_Nu times DBSVEC as ν grows — Figure 8 (runtime increases
// with ν).
func BenchmarkFig8_Nu(b *testing.B) {
	ds := spreader(10000, 8)
	for _, nu := range []float64{0.005, 0.02, 0.08, 0.3} {
		b.Run(fmt.Sprintf("nu=%.3f", nu), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Nu: nu, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9a_Ablation times the accuracy-affecting SVDD ablations on
// the t4.8k analogue — Figure 9a.
func BenchmarkFig9a_Ablation(b *testing.B) {
	ds := data.Chameleon48K(1)
	variants := map[string]core.Options{
		"NoWeights": {Eps: 8.5, MinPts: 20, DisableWeights: true, Seed: 1},
		"Full":      {Eps: 8.5, MinPts: 20, Seed: 1},
	}
	for name, opts := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9b_Ablation times the efficiency-affecting SVDD ablations on
// 8-d synthetic data — Figure 9b.
func BenchmarkFig9b_Ablation(b *testing.B) {
	ds := spreader(10000, 8)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"NoIncremental", core.Options{Eps: 5000, MinPts: 100, LearnThreshold: -1, Seed: 1}},
		{"RandomKernel", core.Options{Eps: 5000, MinPts: 100, RandomKernel: true, Seed: 1}},
		{"Full", core.Options{Eps: 5000, MinPts: 100, Seed: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkersScaling times DBSVEC on 8-d synthetic data as the
// query-engine worker count grows — the acceptance check for the batched
// execution engine. Labels and θ-term stats are identical across worker
// counts (see TestWorkersDeterminism); only wall-clock should move.
func BenchmarkWorkersScaling(b *testing.B) {
	ds := spreader(20000, 8)
	for _, workers := range []int{1, 2, 4, 0} { // 0 = all CPUs
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelDBSCANWorkers times the engine-backed parallel DBSCAN
// baseline across worker counts on the same workload.
func BenchmarkParallelDBSCANWorkers(b *testing.B) {
	ds := spreader(20000, 8)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dbscan.RunParallel(ds, dbscan.Params{Eps: 5000, MinPts: 100}, kdtree.Build, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNQ_DBSCAN times the NQ-DBSCAN baseline (Table II complexity
// context).
func BenchmarkNQ_DBSCAN(b *testing.B) {
	ds := spreader(10000, 8)
	for i := 0; i < b.N; i++ {
		if _, _, err := nqdbscan.Run(ds, nqdbscan.Params{Eps: 5000, MinPts: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelAssign times Model.AssignContext on the SeedSpreader n=20k,
// d=8 model (see spreaderModel) in single-point and 64-point batches of
// training points, on one worker. It reports µs per point and how many
// snapshots got a distance pass per point, out of Snapshots().
func BenchmarkModelAssign(b *testing.B) {
	m, train := spreaderModel(b)
	dim := train.Dim()
	for _, size := range []int{1, 64} {
		// 2,048 training points, cut into batches of size.
		var batches []*Dataset
		coords := train.ds.Matrix().Coords
		for lo := 0; lo < 2048; lo += size {
			ds, err := FromFlat(append([]float64(nil), coords[lo*dim:(lo+size)*dim]...), dim)
			if err != nil {
				b.Fatal(err)
			}
			batches = append(batches, ds)
		}
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			ctx := context.Background()
			var scored int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, n, err := m.assignContext(ctx, batches[i%len(batches)], 1, false)
				if err != nil {
					b.Fatal(err)
				}
				scored += n
			}
			points := float64(b.N * size)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/points, "µs/point")
			b.ReportMetric(float64(scored)/points, "snapshots/point")
		})
	}
}
