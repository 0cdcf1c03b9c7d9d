package dbsvec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/data"
	"dbsvec/internal/dist"
	"dbsvec/internal/leakcheck"
	"dbsvec/internal/svdd"
)

func blobDataset(t *testing.T, n, d, k int, seed int64) *Dataset {
	t.Helper()
	raw := data.Blobs(n, d, k, 2, 100, 0.05, seed)
	ds, err := FromFlat(append([]float64(nil), raw.Coords()...), d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestModelSaveLoadAssign is the headline acceptance path: a model trained
// by Cluster is saved, loaded as if in a fresh process, and Assign labels
// the original training points consistently with Result.Labels (non-noise
// agreement >= 0.99); save → load → save is byte-identical.
func TestModelSaveLoadAssign(t *testing.T) {
	for _, spec := range []struct {
		n, d, k int
		seed    int64
	}{
		{1500, 2, 4, 3},
		{1000, 3, 3, 4},
		{800, 5, 2, 5},
	} {
		ds := blobDataset(t, spec.n, spec.d, spec.k, spec.seed)
		res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 3})
		if err != nil {
			t.Fatalf("d=%d: %v", spec.d, err)
		}
		m := res.Model()
		if m == nil {
			t.Fatalf("d=%d: Cluster retained no model", spec.d)
		}
		if m.Clusters() != res.Clusters || m.Dim() != spec.d || m.Eps() != 3 || m.MinPts() != 8 {
			t.Fatalf("d=%d: model parameters drifted: %d clusters dim %d eps %g minPts %d",
				spec.d, m.Clusters(), m.Dim(), m.Eps(), m.MinPts())
		}
		if res.Stats.RetainedModels == 0 || m.Snapshots() == 0 {
			t.Fatalf("d=%d: no snapshots retained", spec.d)
		}

		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("d=%d save: %v", spec.d, err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		loaded, err := LoadModel(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("d=%d load: %v", spec.d, err)
		}
		var buf2 bytes.Buffer
		if err := loaded.Save(&buf2); err != nil {
			t.Fatalf("d=%d re-save: %v", spec.d, err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("d=%d: save → load → save is not byte-identical", spec.d)
		}

		labels, err := loaded.Assign(ds, 1)
		if err != nil {
			t.Fatalf("d=%d assign: %v", spec.d, err)
		}
		agree, total := 0, 0
		for i, want := range res.Labels {
			if want == Noise {
				continue
			}
			total++
			if labels[i] == want {
				agree++
			}
		}
		if total == 0 {
			t.Fatalf("d=%d: clustering labeled nothing", spec.d)
		}
		if frac := float64(agree) / float64(total); frac < 0.99 {
			t.Errorf("d=%d: Assign agrees with Result.Labels on %.4f of non-noise points, want >= 0.99",
				spec.d, frac)
		}
	}
}

// TestAssignWorkerConformance pins the determinism discipline on the scoring
// path: a 100k-point batch assigned with any worker count produces
// bit-identical labels, because the range partition is deterministic and
// every point's work is independent.
func TestAssignWorkerConformance(t *testing.T) {
	train := blobDataset(t, 4000, 2, 4, 7)
	res, err := Cluster(train, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()

	batch := blobDataset(t, 100_000, 2, 4, 8)
	want, err := m.Assign(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8, 16, 0} {
		got, err := m.Assign(batch, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: label %d differs (%d != %d)", workers, i, got[i], want[i])
			}
		}
	}
}

// TestClusterWarmFrom drives the warm-restart path through the public API
// and a full save/load cycle: re-clustering unchanged data from the loaded
// model must reproduce the original clustering (ARI >= 0.99) and actually
// seed SVDD rounds from the snapshots.
func TestClusterWarmFrom(t *testing.T) {
	ds := blobDataset(t, 1500, 2, 4, 3)
	opts := Options{Eps: 3, MinPts: 8, Seed: 3}
	cold, err := Cluster(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.Model().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	wopts := opts
	wopts.WarmFrom = loaded
	warm, err := Cluster(ds, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmRestarts == 0 {
		t.Fatal("no SVDD round was warm-restarted from the loaded model")
	}
	ari, err := ARI(cold, warm)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("warm-from-loaded-model ARI = %v, want >= 0.99", ari)
	}
}

// TestModelAssignRejectsMismatchedDim: dimension mismatches fail up front
// instead of producing garbage labels.
func TestModelAssignRejectsMismatchedDim(t *testing.T) {
	ds := blobDataset(t, 600, 2, 2, 9)
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	wrong := blobDataset(t, 10, 3, 1, 9)
	if _, err := res.Model().Assign(wrong, 1); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("Assign on wrong dimensionality: err = %v, want ErrInvalidParams", err)
	}
	if err := res.Model().CheckAssignable(wrong); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("CheckAssignable on wrong dimensionality: err = %v, want ErrInvalidParams", err)
	}
	var nilModel *Model
	if err := nilModel.CheckAssignable(ds); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("CheckAssignable on nil model: err = %v, want ErrInvalidParams", err)
	}
}

// TestLoadModelRejectsKindMismatch: the two loaders reject each other's
// artifacts with ErrMalformed.
func TestLoadModelRejectsKindMismatch(t *testing.T) {
	ds := blobDataset(t, 300, 2, 1, 11)
	oc, err := TrainOneClass(ds, OneClassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ocBuf bytes.Buffer
	if err := oc.Save(&ocBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(ocBuf.Bytes())); !errors.Is(err, ErrMalformed) {
		t.Fatalf("LoadModel on a one-class artifact: err = %v, want ErrMalformed", err)
	}

	res, err := Cluster(ds, Options{Eps: 3, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	var cBuf bytes.Buffer
	if err := res.Model().Save(&cBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOneClass(bytes.NewReader(cBuf.Bytes())); !errors.Is(err, ErrMalformed) {
		t.Fatalf("LoadOneClass on a clustering artifact: err = %v, want ErrMalformed", err)
	}
}

// pollCancelCtx is a context whose Err() flips to context.Canceled after a
// fixed number of Err() polls. AssignContext only ever consults ctx.Err()
// (never Done()), so this drives mid-fan-out cancellation deterministically:
// the budget is spent strictly inside the worker loops.
type pollCancelCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAssignContextCancelledMidFanOut: cancellation that lands while the
// assign fan-out is running aborts the batch with ctx's error and leaks no
// goroutines. The poll budget (3) survives AssignContext's two whole-batch
// checks plus the first in-loop poll, so the cancel is observed strictly
// inside the worker loop.
func TestAssignContextCancelledMidFanOut(t *testing.T) {
	leakcheck.Check(t)
	ds := blobDataset(t, 2000, 2, 3, 21)
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()

	ctx := &pollCancelCtx{Context: context.Background()}
	ctx.polls.Store(3)
	if _, err := m.AssignContext(ctx, ds, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-fan-out cancel: err = %v, want context.Canceled", err)
	}

	// A pre-cancelled context never starts the fan-out.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.AssignContext(done, ds, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	// And the model still works afterwards.
	labels, err := m.Assign(ds, 4)
	if err != nil || len(labels) != ds.Len() {
		t.Fatalf("post-cancel Assign: labels %d err %v", len(labels), err)
	}
}

// TestAssignNearestContext: the degraded-path entry point is deterministic
// across worker counts, labels stay in range, and it broadly agrees with
// the full boundary path on training data (the nearest-SV fallback is the
// final tiebreak of the full path, so most points coincide).
func TestAssignNearestContext(t *testing.T) {
	ds := blobDataset(t, 1200, 2, 3, 25)
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()
	ctx := context.Background()

	one, err := m.AssignNearestContext(ctx, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := m.AssignNearestContext(ctx, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("nearest assignment depends on worker count at %d: %d vs %d", i, one[i], four[i])
		}
		if one[i] != -1 && (one[i] < 0 || int(one[i]) >= m.Clusters()) {
			t.Fatalf("nearest label[%d] = %d outside [-1, %d)", i, one[i], m.Clusters())
		}
	}

	full, err := m.Assign(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range full {
		if full[i] == one[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(full)); frac < 0.8 {
		t.Fatalf("nearest path agrees with the full path on only %.2f of points", frac)
	}
}

// refAssign is the all-SV scorer the pruned path replaced, kept verbatim as
// the differential reference: one distance pass over every SV of every
// snapshot, every boundary score, then the nearest-SV fallback over all
// rows.
func refAssign(p *assignPlan, q []float64) int32 {
	d2 := make([]float64, p.svs.Len())
	if len(d2) == 0 {
		return Noise
	}
	dist.SqDistsToAll(p.svs, q, d2)
	best := math.Inf(1)
	bestCluster := cluster.Noise
	for _, e := range p.entries {
		var s float64
		for i := e.lo; i < e.hi; i++ {
			s += p.alpha[i] * math.Exp(-d2[i]*e.gamma)
		}
		score := e.bias - 2*s
		if score < best || (score == best && e.cluster < bestCluster) {
			best = score
			bestCluster = e.cluster
		}
	}
	if best <= 0 {
		return bestCluster
	}
	return refNearestWithinEps(p, d2)
}

// refAssignNearest is the reference degraded path: the fallback alone.
func refAssignNearest(p *assignPlan, q []float64) int32 {
	d2 := make([]float64, p.svs.Len())
	if len(d2) == 0 {
		return cluster.Noise
	}
	dist.SqDistsToAll(p.svs, q, d2)
	return refNearestWithinEps(p, d2)
}

func refNearestWithinEps(p *assignPlan, d2 []float64) int32 {
	ni, nd := 0, d2[0]
	for i := 1; i < len(d2); i++ {
		if d2[i] < nd {
			ni, nd = i, d2[i]
		}
	}
	if nd <= p.eps2 {
		return p.cluster[ni]
	}
	return cluster.Noise
}

// checkAgainstReference requires AssignContext and AssignNearestContext to
// return exactly the reference scorer's labels on every point of q, with 1
// and 4 workers. It returns how many points the reference put inside a
// boundary, attached by the fallback, and left as Noise, so callers can
// check that their inputs reach every branch.
func checkAgainstReference(t *testing.T, name string, m *Model, q *Dataset) (inside, attached, noise int) {
	t.Helper()
	ctx := context.Background()
	p := m.assignPlan()
	noFallback := *p
	noFallback.eps2 = -1 // no d² is ≤ -1: only a boundary can label a point
	mat := q.ds.Matrix()
	want := make([]int32, q.Len())
	wantNear := make([]int32, q.Len())
	for i := range want {
		want[i] = refAssign(p, mat.Row(i))
		wantNear[i] = refAssignNearest(p, mat.Row(i))
		switch {
		case refAssign(&noFallback, mat.Row(i)) != Noise:
			inside++
		case want[i] != Noise:
			attached++
		default:
			noise++
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := m.AssignContext(ctx, q, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		gotNear, err := m.AssignNearestContext(ctx, q, workers)
		if err != nil {
			t.Fatalf("%s workers=%d nearest: %v", name, workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s workers=%d: Assign label[%d] = %d, reference %d", name, workers, i, got[i], want[i])
			}
			if gotNear[i] != wantNear[i] {
				t.Fatalf("%s workers=%d: AssignNearest label[%d] = %d, reference %d", name, workers, i, gotNear[i], wantNear[i])
			}
		}
	}
	return inside, attached, noise
}

// probePoints builds the differential inputs for a model: nTrain random
// training points, as many midpoints between random training points and
// between random SVs, SVs themselves, points at exactly ε from an SV along one
// axis (kept only where the evaluated d² is exactly ε²), and far points.
// The far points are returned separately, since they must all be Noise.
func probePoints(t *testing.T, m *Model, train *Dataset, nTrain int, seed int64) (probe, far *Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := m.Dim()
	p := m.assignPlan()
	var coords []float64
	tm := train.ds.Matrix()
	for i := 0; i < nTrain; i++ {
		coords = append(coords, tm.Row(rng.Intn(train.Len()))...)
	}
	mid := func(a, b []float64) {
		for j := range a {
			coords = append(coords, (a[j]+b[j])/2)
		}
	}
	for i := 0; i < nTrain; i++ {
		mid(tm.Row(rng.Intn(train.Len())), tm.Row(rng.Intn(train.Len())))
		mid(p.svs.Row(rng.Intn(p.svs.Len())), p.svs.Row(rng.Intn(p.svs.Len())))
	}
	// At most maxSVProbes SVs, drawn at random when the model has more.
	const maxSVProbes = 512
	svIDs := rng.Perm(p.svs.Len())
	if len(svIDs) > maxSVProbes {
		svIDs = svIDs[:maxSVProbes]
	}
	exact := 0
	for _, i := range svIDs {
		sv := p.svs.Row(i)
		coords = append(coords, sv...)
		q := append([]float64(nil), sv...)
		q[i%dim] += m.Eps()
		if dist.SqDist(q, sv) == p.eps2 {
			coords = append(coords, q...)
			exact++
		}
	}
	if exact == 0 {
		t.Fatal("no probe landed at exactly ε from its SV")
	}
	probe, err := FromFlat(coords, dim)
	if err != nil {
		t.Fatal(err)
	}
	var farCoords []float64
	for i := 0; i < 64; i++ {
		for j := 0; j < dim; j++ {
			farCoords = append(farCoords, 1e9*(1+rng.Float64()))
		}
	}
	far, err = FromFlat(farCoords, dim)
	if err != nil {
		t.Fatal(err)
	}
	return probe, far
}

var (
	spreaderOnce  sync.Once
	spreaderTrain *Dataset
	spreaderFit   *Model
	spreaderErr   error
)

// spreaderModel is the SeedSpreader n=20k, d=8 model (ε = 2000, MinPts =
// 100) shared by the assign tests and BenchmarkModelAssign.
func spreaderModel(tb testing.TB) (*Model, *Dataset) {
	tb.Helper()
	spreaderOnce.Do(func() {
		spreaderTrain = &Dataset{ds: data.SeedSpreader{N: 20000, D: 8, Seed: 1}.Generate()}
		var res *Result
		res, spreaderErr = Cluster(spreaderTrain, Options{Eps: 2000, MinPts: 100, Seed: 1})
		if spreaderErr == nil {
			spreaderFit = res.Model()
		}
	})
	if spreaderErr != nil {
		tb.Fatal(spreaderErr)
	}
	return spreaderFit, spreaderTrain
}

// TestAssignMatchesReferenceScorer: the pruned scorer returns the all-SV
// reference's labels byte for byte on a fresh model, the same model after
// Save/LoadModel, and a model trained on float32 storage, over training
// points, interpolated points, the SVs themselves, points at exactly ε
// from an SV, and far points (which must all be Noise).
func TestAssignMatchesReferenceScorer(t *testing.T) {
	fresh, train := spreaderModel(t)
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	blobs := blobDataset(t, 3000, 3, 4, 31)
	blobs32, err := blobs.ToPrecision(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	res32, err := Cluster(blobs32, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     *Model
		train *Dataset
	}{
		{"fresh", fresh, train},
		{"loaded", loaded, train},
		{"f32", res32.Model(), blobs32},
	} {
		probe, far := probePoints(t, tc.m, tc.train, 256, 41)
		inside, attached, noise := checkAgainstReference(t, tc.name, tc.m, probe)
		t.Logf("%s: %d probes inside a boundary, %d attached by the fallback, %d Noise", tc.name, inside, attached, noise)
		if inside == 0 || attached == 0 || noise == 0 {
			t.Errorf("%s: probes reach only inside=%d attached=%d noise=%d", tc.name, inside, attached, noise)
		}
		checkAgainstReference(t, tc.name+"/far", tc.m, far)
		labels, err := tc.m.Assign(far, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range labels {
			if l != Noise {
				t.Fatalf("%s: far point %d labeled %d, want Noise", tc.name, i, l)
			}
		}
	}
}

// handBuiltModel wraps hand-made snapshots in a clustering model, bypassing
// training, so the differential test reaches corners a training run rarely
// produces.
func handBuiltModel(t *testing.T, eps float64, dim int, snaps []*svdd.Snapshot, clusters []int32) *Model {
	t.Helper()
	art := &data.ModelArtifact{Kind: data.ModelKindClustering, Eps: eps, MinPts: 4, Dim: dim}
	for i, s := range snaps {
		art.Entries = append(art.Entries, data.ModelEntry{Cluster: clusters[i], Snap: s})
		art.Clusters = max(art.Clusters, int(clusters[i])+1)
	}
	return &Model{art: art}
}

// snap builds a snapshot over the given SV rows.
func snap(dim int, sigma, r2, alphaDot float64, alpha []float64, rows ...[]float64) *svdd.Snapshot {
	s := &svdd.Snapshot{Dim: dim, Nu: 0.1, Sigma: sigma, R2: r2, AlphaDot: alphaDot, Alpha: alpha}
	for i, r := range rows {
		s.IDs = append(s.IDs, int32(i))
		s.Score = append(s.Score, 0)
		s.Coords = append(s.Coords, r...)
	}
	return s
}

// TestAssignMatchesReferenceHandBuilt drives the corners of the pruning
// bounds against the reference scorer: negative α, bias ≤ 0 (a boundary
// that contains everything), σ so small that γ overflows to +Inf,
// single-SV snapshots, coincident SVs (a zero-radius ball), and random
// snapshots whose bias straddles 0, in 2, 3 and 5 dimensions. Each model is
// also checked after a Save/LoadModel round trip.
func TestAssignMatchesReferenceHandBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{2, 3, 5} {
		at := func(v ...float64) []float64 {
			r := make([]float64, dim)
			copy(r, v)
			return r
		}
		cases := []struct {
			name     string
			snaps    []*svdd.Snapshot
			clusters []int32
		}{
			{"negative-alpha", []*svdd.Snapshot{
				snap(dim, 2, 0.4, 0.3, []float64{0.7, -0.2, 0.5}, at(0, 0), at(1, 0), at(0, 1)),
				snap(dim, 1, 0.5, 0.2, []float64{0.6, 0.4}, at(30, 0), at(31, 1)),
			}, []int32{0, 1}},
			{"bias-nonpositive", []*svdd.Snapshot{
				snap(dim, 1, 0.5, 0.2, []float64{1}, at(0, 0)),
				snap(dim, 1, 3, 0.5, []float64{0.5, 0.5}, at(50, 50), at(51, 50)),
				snap(dim, 1, 1.2, 0.2, []float64{1}, at(-40, 0)),
			}, []int32{2, 1, 0}},
			{"gamma-overflow", []*svdd.Snapshot{
				snap(dim, 1e-200, 0.5, 0.2, []float64{0.5, 0.5}, at(0, 0), at(2, 0)),
				snap(dim, 1e-200, 1.5, 0.2, []float64{1}, at(10, 0)),
			}, []int32{0, 1}},
			{"single-sv", []*svdd.Snapshot{
				snap(dim, 1, 0.9, 1, []float64{1}, at(0, 0)),
				snap(dim, 0.5, 0.9, 1, []float64{1}, at(3, 0)),
				snap(dim, 4, 0.2, 1, []float64{1}, at(0, 20)),
			}, []int32{0, 1, 1}},
			{"coincident", []*svdd.Snapshot{
				snap(dim, 1, 0.6, 0.4, []float64{0.5, 0.3, 0.2}, at(5, 5), at(5, 5), at(5, 5)),
				snap(dim, 1, 0.6, 0.4, []float64{0.5, 0.5}, at(5, 5), at(5, 5)),
			}, []int32{1, 0}},
		}
		var random []*svdd.Snapshot
		var randomClusters []int32
		for k := 0; k < 40; k++ {
			nsv := 1 + rng.Intn(6)
			center := make([]float64, dim)
			for j := range center {
				center[j] = rng.Float64() * 100
			}
			var rows [][]float64
			alpha := make([]float64, nsv)
			for i := range alpha {
				r := make([]float64, dim)
				for j := range r {
					r[j] = center[j] + rng.NormFloat64()*3
				}
				rows = append(rows, r)
				alpha[i] = rng.Float64() - 0.2
			}
			sigma := math.Pow(10, rng.Float64()*3-1)
			random = append(random, snap(dim, sigma, 0.5+rng.Float64(), rng.Float64(), alpha, rows...))
			randomClusters = append(randomClusters, int32(rng.Intn(5)))
		}
		cases = append(cases, struct {
			name     string
			snaps    []*svdd.Snapshot
			clusters []int32
		}{"random", random, randomClusters})

		for _, tc := range cases {
			name := fmt.Sprintf("%s/d=%d", tc.name, dim)
			m := handBuiltModel(t, 2.5, dim, tc.snaps, tc.clusters)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			loaded, err := LoadModel(&buf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// A grid over the snapshots' bounding box and past it, on top of
			// the SVs, the ε shells and the far points.
			p := m.assignPlan()
			lo, hi := make([]float64, dim), make([]float64, dim)
			for j := 0; j < dim; j++ {
				lo[j], hi[j] = math.Inf(1), math.Inf(-1)
			}
			for i := 0; i < p.svs.Len(); i++ {
				for j, v := range p.svs.Row(i) {
					lo[j], hi[j] = math.Min(lo[j], v), math.Max(hi[j], v)
				}
			}
			var grid []float64
			for i := 0; i < 4000; i++ {
				for j := 0; j < dim; j++ {
					span := hi[j] - lo[j] + 20
					grid = append(grid, lo[j]-10+rng.Float64()*span)
				}
			}
			gridDS, err := FromFlat(grid, dim)
			if err != nil {
				t.Fatal(err)
			}
			probe, far := probePoints(t, m, gridDS, 0, 7)
			for _, mm := range []*Model{m, loaded} {
				checkAgainstReference(t, name, mm, gridDS)
				checkAgainstReference(t, name+"/probe", mm, probe)
				checkAgainstReference(t, name+"/far", mm, far)
			}
			if tc.name == "random" { // the grid must reach the pruned branch
				_, scored, err := m.assignContext(context.Background(), gridDS, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				if all := int64(gridDS.Len() * len(p.entries)); scored >= all {
					t.Errorf("%s: %d of %d (point, snapshot) pairs scored, none pruned", name, scored, all)
				}
			}
		}
	}
}

// TestAssignWorkBound pins how much of the model the pruning leaves: over
// 2,048 training points of the SeedSpreader n=20k, d=8 model, at most 15%
// of the (point, snapshot) pairs get a distance pass. The count is a
// deterministic function of model and points.
func TestAssignWorkBound(t *testing.T) {
	m, train := spreaderModel(t)
	coords := append([]float64(nil), train.ds.Matrix().Coords[:2048*train.Dim()]...)
	q, err := FromFlat(coords, train.Dim())
	if err != nil {
		t.Fatal(err)
	}
	_, scored, err := m.assignContext(context.Background(), q, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	share := float64(scored) / float64(q.Len()*len(m.assignPlan().entries))
	t.Logf("%d snapshots, %.2f scored per point (%.1f%%)", len(m.assignPlan().entries), float64(scored)/float64(q.Len()), 100*share)
	if share > 0.15 {
		t.Fatalf("%.1f%% of (point, snapshot) pairs got a distance pass, want <= 15%%", 100*share)
	}
}

// TestAssignSinglePointAllocs: a single-point request allocates scratch
// sized to the largest snapshot, not to every SV of the model: under 4 KB
// beyond its labels.
func TestAssignSinglePointAllocs(t *testing.T) {
	m, train := spreaderModel(t)
	one, err := FromFlat(append([]float64(nil), train.Point(0)...), train.Dim())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.AssignContext(ctx, one, 1); err != nil { // builds the plan
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := m.AssignContext(ctx, one, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc)/runs - 8 // the one-label slice
	t.Logf("%.0f bytes per single-point AssignContext beyond its labels (model: %d SVs)", perCall, m.SupportVectors())
	if perCall >= 4096 {
		t.Fatalf("single-point AssignContext allocates %.0f bytes beyond its labels, want < 4096", perCall)
	}
}
