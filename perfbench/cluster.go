package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dbsvec"
	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/eval"
	"dbsvec/internal/index"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/index/rproj"
	"dbsvec/internal/shard"
	"dbsvec/internal/vec"
)

// ariFloor is the lowest ARI against exact DBSCAN a run accepts. DBSVEC is
// an approximation; on these generators it stays above 0.99 (see README).
const ariFloor = 0.95

// clusterSpec is one clustering workload.
type clusterSpec struct {
	name   string
	eps    float64
	minPts int
	kind   dbsvec.IndexKind
	// build is the construction function dbsvec resolves for kind; the
	// traced run wraps it. exact builds the index of the exact reference.
	build func(workers int) index.CtxBuilder
	exact func(workers int) index.Builder
	gen   func(seed int64) *vec.Dataset
	// shards > 0 writes the input to a binary file in set-up and clusters
	// it out-of-core with that many slabs at concurrency 1.
	shards int
	// inputs is how many datasets a run draws from its seed (0 means one).
	// The out-of-core cost depends on where the slab cuts fall, which
	// changes with the data, so that workload averages over several.
	inputs int
}

func spreader(seed int64) *vec.Dataset {
	return data.SeedSpreader{N: 100_000, D: 8, Seed: seed}.Generate()
}

func embeddings(seed int64) *vec.Dataset { return data.Embeddings(30_000, 64, 16, 0.35, seed) }

var (
	spreaderKD = clusterSpec{
		name: "spreader-kd", eps: 2000, minPts: 100, kind: dbsvec.IndexKDTree,
		build: kdtree.BuildWorkersCtx, exact: kdtree.BuildWorkers, gen: spreader,
	}
	embedRProj = clusterSpec{
		name: "embed-rproj", eps: 0.5, minPts: 20, kind: dbsvec.IndexRProj,
		build: rproj.BuildWorkersCtx, exact: rproj.BuildWorkers, gen: embeddings,
	}
	spreaderOutOfCore = clusterSpec{
		name: "spreader-outofcore", eps: 2000, minPts: 100, kind: dbsvec.IndexKDTree,
		build: kdtree.BuildWorkersCtx, exact: kdtree.BuildWorkers, gen: spreader, shards: 4, inputs: 6,
	}
)

// workCounts are the deterministic counters of one clustering call. Two
// calls over the same input must agree on every one. SMOIterations is -1
// where the call path does not report it.
type workCounts struct {
	RangeQueries, RangeCounts, SupportVectors, SMOIterations int64
	Seeds, Merges, NoiseList, SVDDTrainings, Degraded        int
	BoundaryPoints, CrossMerges                              int
}

func (a workCounts) matches(b workCounts) bool {
	if a.SMOIterations < 0 || b.SMOIterations < 0 {
		a.SMOIterations, b.SMOIterations = 0, 0
	}
	return a == b
}

func countsOf(st core.Stats) workCounts {
	return workCounts{
		RangeQueries: st.RangeQueries, RangeCounts: st.RangeCounts,
		SupportVectors: st.SupportVectors, SMOIterations: st.SVDDIterations,
		Seeds: st.Seeds, Merges: st.Merges, NoiseList: st.NoiseList,
		SVDDTrainings: st.SVDDTrainings, Degraded: st.Degraded,
	}
}

func publicCounts(st dbsvec.Stats) workCounts {
	w := workCounts{
		RangeQueries: st.RangeQueries, RangeCounts: st.RangeCounts,
		SupportVectors: st.SupportVectors, SMOIterations: -1,
		Seeds: st.Seeds, Merges: st.Merges, NoiseList: st.NoiseList,
		SVDDTrainings: st.SVDDTrainings, Degraded: st.Degraded,
	}
	if sh := st.Sharding; sh != nil {
		w.SMOIterations = 0
		for _, s := range sh.Shards {
			w.SMOIterations += s.Core.SVDDIterations
		}
		w.BoundaryPoints, w.CrossMerges = sh.BoundaryPoints, sh.CrossMerges
	}
	return w
}

// sumShards adds up the per-slab core statistics of a sharded run.
func sumShards(sst *shard.Stats) core.Stats {
	var st core.Stats
	for _, s := range sst.Shards {
		c := s.Core
		st.Seeds += c.Seeds
		st.SupportVectors += c.SupportVectors
		st.Merges += c.Merges
		st.NoiseList += c.NoiseList
		st.RangeQueries += c.RangeQueries
		st.RangeCounts += c.RangeCounts
		st.SVDDTrainings += c.SVDDTrainings
		st.SVDDIterations += c.SVDDIterations
		st.Degraded += c.Degraded
		st.Phases.Init += c.Phases.Init
		st.Phases.Expand += c.Phases.Expand
		st.Phases.Verify += c.Phases.Verify
		st.SVDD.Add(c.SVDD)
	}
	return st
}

// clusterRun is one input of a run and what its calls found.
type clusterRun struct {
	spec    clusterSpec
	cfg     config
	seed    int64           // the generator seed of this input
	raw     *vec.Dataset    // nil on the out-of-core path during calls
	pub     *dbsvec.Dataset // raw, as the public API sees it
	dir     string          // where the out-of-core input file goes
	path    string          // the out-of-core input file
	n       int
	sum     [sha256.Size]byte // digest of the first call's labels
	counts  workCounts
	smo     int64 // SMO iterations of the first traced call
	checked bool
	walls   []float64 // wall seconds per public call
	cpus    []float64 // CPU seconds per public call
}

func (r *clusterRun) options() dbsvec.Options {
	o := dbsvec.Options{Eps: r.spec.eps, MinPts: r.spec.minPts, Index: r.spec.kind, Workers: r.cfg.workers}
	if r.spec.shards > 0 {
		o.Shards, o.ShardConcurrency = r.spec.shards, 1
	}
	return o
}

// setup generates the inputs and, on the out-of-core path, writes them to
// the binary file the calls stream from.
func (r *clusterRun) setup() error {
	r.raw = r.spec.gen(r.seed)
	r.n = r.raw.Len()
	pub, err := dbsvec.FromFlat(r.raw.Coords(), r.raw.Dim())
	if err != nil {
		return err
	}
	r.pub = pub
	if r.spec.shards == 0 {
		return nil
	}
	r.path = filepath.Join(r.dir, fmt.Sprintf("%s-seed%d.bin", r.spec.name, r.seed))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := pub.WriteBinary(&buf); err != nil {
		return err
	}
	return os.WriteFile(r.path, buf.Bytes(), 0o644)
}

// public makes one untraced call through the library's public API.
func (r *clusterRun) public() (*dbsvec.Result, error) {
	if r.spec.shards > 0 {
		return dbsvec.RunShardedFile(r.path, r.options())
	}
	return dbsvec.ClusterContext(context.Background(), r.pub, r.options())
}

// labelSum digests a labeling. The determinism check keeps the digest, not
// the labels, so the benchmark holds no per-input slice while it samples
// the library's heap.
func labelSum(labels []int32) [sha256.Size]byte {
	buf := make([]byte, 4*len(labels))
	for i, l := range labels {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(l))
	}
	return sha256.Sum256(buf)
}

// check compares a call's labels and counters with the first call's.
func (r *clusterRun) check(o *outcome, what string, labels []int32, w workCounts) bool {
	sum := labelSum(labels)
	if !r.checked {
		r.sum, r.counts, r.checked = sum, w, true
		return true
	}
	ok := true
	if sum != r.sum {
		o.fail("%s: labels differ from the first call's", what)
		ok = false
	}
	if !w.matches(r.counts) {
		o.fail("%s: work counters %+v differ from the first call's %+v", what, w, r.counts)
		ok = false
	}
	return ok
}

// traced makes one call with every layer boundary the benchmark can reach
// from outside wrapped in spans, and returns the call's per-layer metrics.
func (r *clusterRun) traced(o *outcome, tr *tracer, run int64) (map[string]float64, error) {
	root := tr.open()
	var ic indexCounts
	copts := core.Options{
		Eps: r.spec.eps, MinPts: r.spec.minPts, Workers: r.cfg.workers,
		IndexBuilderCtx: tracedBuilder(r.spec.build(r.cfg.workers), tr, run, root, &ic),
	}
	var (
		res   *cluster.Result
		st    core.Stats
		sst   *shard.Stats
		src   *tracedSource
		rootN string
	)
	start := time.Now()
	if r.spec.shards > 0 {
		rootN = "shard.run"
		fs, err := shard.OpenFile(r.path)
		if err != nil {
			return nil, err
		}
		src = &tracedSource{inner: fs, t: tr, run: run, parent: root}
		var stats shard.Stats
		res, _, stats, err = shard.Run(src, shard.Options{Core: copts, Shards: r.spec.shards, Concurrency: 1, Retain: true})
		fs.Close()
		if err != nil {
			return nil, err
		}
		sst, st = &stats, sumShards(&stats)
	} else {
		rootN = "core.run"
		var err error
		res, _, st, err = core.RunRetained(r.raw, copts)
		if err != nil {
			return nil, err
		}
	}
	tr.record(root, 0, run, rootN, start, time.Now())

	w := countsOf(st)
	if sst != nil {
		w.BoundaryPoints, w.CrossMerges = sst.BoundaryPoints, sst.CrossMerges
	}
	r.check(o, fmt.Sprintf("traced call %d", run), res.Labels, w)
	if r.smo == 0 {
		r.smo = st.SVDDIterations
	} else if st.SVDDIterations != r.smo {
		o.fail("traced call %d: %d SMO iterations, first traced call %d", run, st.SVDDIterations, r.smo)
	}
	if ic.queries != st.RangeQueries || ic.counts != st.RangeCounts {
		o.fail("traced call %d: the index saw %d queries and %d counts, core reports %d and %d",
			run, ic.queries, ic.counts, st.RangeQueries, st.RangeCounts)
	}

	total, self := tr.byName(run)
	svdd := st.SVDD.Total()
	iq := total["index.query"] + total["index.count"]
	n := float64(r.n)
	m := map[string]float64{
		"index.build_s":              total["index.build"].Seconds(),
		"index.query_busy_s":         total["index.query"].Seconds(),
		"index.count_busy_s":         total["index.count"].Seconds(),
		"index.range_queries":        float64(ic.queries),
		"index.range_counts":         float64(ic.counts),
		"index.self_s":               (total["index.build"] + iq).Seconds(),
		"svdd.fill_s":                st.SVDD.Fill.Seconds(),
		"svdd.solve_s":               st.SVDD.Solve.Seconds(),
		"svdd.finish_s":              st.SVDD.Finish.Seconds(),
		"svdd.trainings":             float64(st.SVDDTrainings),
		"svdd.smo_iterations":        float64(st.SVDDIterations),
		"svdd.self_s":                svdd.Seconds(),
		"core.init_s":                st.Phases.Init.Seconds(),
		"core.expand_s":              st.Phases.Expand.Seconds(),
		"core.verify_s":              st.Phases.Verify.Seconds(),
		"core.seeds":                 float64(st.Seeds),
		"core.support_vectors":       float64(st.SupportVectors),
		"core.merges":                float64(st.Merges),
		"core.noise_list":            float64(st.NoiseList),
		"core.degraded":              float64(st.Degraded),
		"core.theta_per_point":       st.Theta(r.spec.minPts) / n,
		"core.query_ratio":           float64(st.RangeQueries+st.RangeCounts) / n,
		"index.neighbours_per_query": 0,
	}
	if ic.queries > 0 {
		m["index.neighbours_per_query"] = float64(ic.hits) / float64(ic.queries)
	}
	if sst == nil {
		// The root's self time is core's own work plus SVDD training.
		m["core.self_s"] = max(self[rootN]-svdd, 0).Seconds()
		return m, nil
	}
	// Core's phases enclose its index queries and SVDD training; the rest
	// of the root's self time is the sharded runner's own work, including
	// the planning callbacks inside each source scan.
	phases := st.Phases.Total()
	m["core.self_s"] = max(phases-iq-svdd, 0).Seconds()
	var busy, slowest time.Duration
	var working int
	for _, s := range sst.Shards {
		busy += s.Elapsed
		slowest = max(slowest, s.Elapsed)
		working += s.N
	}
	m["shard.plan_s"] = sst.Plan.Seconds()
	m["shard.merge_s"] = sst.Merge.Seconds()
	m["shard.slab_busy_s"] = busy.Seconds()
	m["shard.max_slab_s"] = slowest.Seconds()
	m["shard.halo_ratio"] = float64(working) / n
	m["shard.boundary_points"] = float64(sst.BoundaryPoints)
	m["shard.cross_merges"] = float64(sst.CrossMerges)
	m["shard.bytes_read"] = float64(src.bytes.Load())
	m["shard.source_s"] = (self["shard.scan"] + total["shard.slab"]).Seconds()
	m["shard.self_s"] = max(self[rootN]+iq+total["shard.plan_block"]-phases, 0).Seconds()
	return m, nil
}

func runCluster(spec clusterSpec, cfg config) (*outcome, error) {
	o := newOutcome()
	inputs := make([]*clusterRun, max(spec.inputs, 1))
	for j := range inputs {
		// Input j > 0 gets a seed no other run's first input uses.
		inputs[j] = &clusterRun{spec: spec, cfg: cfg, seed: cfg.seed + int64(j)*1_000_000, dir: filepath.Join(".bench_build", "data")}
	}
	var (
		setups    []float64
		setupTime time.Duration // set-up time since the calls began
	)
	// release drops the datasets on the out-of-core path, which streams
	// from the files: they are not resident while it runs.
	release := func() {
		if spec.shards == 0 {
			return
		}
		for _, r := range inputs {
			r.raw, r.pub = nil, nil
		}
	}
	// A run sets its inputs up before and after the exact reference and
	// after every call, and setup_s is the median CPU time over all of
	// them: the host's speed shifts over seconds, so set-ups spread over
	// the run see it as the calls do.
	setup := func() error {
		// Every set-up starts from the same heap: the previous inputs
		// dropped and collected.
		for _, r := range inputs {
			r.raw, r.pub = nil, nil
		}
		runtime.GC()
		start, cpu := time.Now(), cpuTime()
		for _, r := range inputs {
			if err := r.setup(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, (cpuTime() - cpu).Seconds())
		setupTime += time.Since(start)
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	for _, r := range inputs {
		if r.path != "" {
			defer os.Remove(r.path)
		}
	}

	// The exact reference of the first input, outside every timed region.
	first := inputs[0]
	exact, _, err := dbscan.RunParallel(first.raw, dbscan.Params{Eps: spec.eps, MinPts: spec.minPts}, spec.exact(cfg.workers), cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("exact reference: %w", err)
	}
	exactClusters := exact.Clusters
	if err := setup(); err != nil {
		return nil, err
	}
	release()

	var (
		heaps, overheads []float64
		layers           []map[string]float64
		tr               *tracer
		ari              float64
		clusters         int // input 0's clusters in its first call
		traceErr         error
	)
	if cfg.trace {
		tr = newTracer()
	}
	// traceCall makes the traced call that pairs with an untraced one and
	// returns its CPU time.
	traceCall := func(r *clusterRun, call int64) (time.Duration, bool) {
		o.attempted++
		cpu := cpuTime()
		m, err := r.traced(o, tr, call)
		tw := cpuTime() - cpu
		if err != nil {
			o.failed++
			o.fail("traced call %d: %v", call, err)
			traceErr = err
			return 0, false
		}
		layers = append(layers, m)
		return tw, true
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	setupTime = 0
	for call := int64(1); ; call++ {
		r := inputs[int(call-1)%len(inputs)]
		// Even calls run the traced side of a pair first, so the pairs'
		// median overhead carries no order effect.
		var tw time.Duration
		tracedFirst := cfg.trace && call%2 == 0
		if tracedFirst {
			var ok bool
			if tw, ok = traceCall(r, call); !ok {
				break
			}
		}
		o.attempted++
		heap := startHeapSampler()
		start, cpu0 := time.Now(), cpuTime()
		res, err := r.public()
		wall, cpu := time.Since(start), cpuTime()-cpu0
		peak := heap.Stop()
		if err != nil {
			o.failed++
			o.fail("call %d: %v", call, err)
			break
		}
		if !r.check(o, fmt.Sprintf("call %d", call), res.Labels, publicCounts(res.Stats)) {
			o.failed++
		}
		if exact != nil && r == first {
			// Input 0's first call: score it and let the reference go,
			// so neither is live while later calls are sampled.
			ari, err = eval.AdjustedRandIndex(exact, &cluster.Result{Labels: res.Labels, Clusters: res.Clusters})
			if err != nil {
				return nil, fmt.Errorf("ARI: %w", err)
			}
			clusters, exact = res.Clusters, nil
		}
		r.walls = append(r.walls, wall.Seconds())
		r.cpus = append(r.cpus, cpu.Seconds())
		heaps = append(heaps, peak)
		if cfg.trace && !tracedFirst {
			var ok bool
			if tw, ok = traceCall(r, call); !ok {
				break
			}
		}
		if cfg.trace {
			overheads = append(overheads, tw.Seconds()/cpu.Seconds()-1)
		}
		if err := setup(); err != nil {
			return nil, err
		}
		release()
		// Every input runs at least once; then stop at the call boundary
		// nearest the time budget, which set-ups do not count against.
		if el := time.Since(begin) - setupTime; int(call) >= len(inputs) && el+wall/2 >= budget {
			break
		}
	}
	if len(first.walls) == 0 || traceErr != nil {
		return o, nil
	}

	if ari < ariFloor {
		o.fail("ARI against exact DBSCAN %.4f is below %.2f", ari, ariFloor)
	}
	// Per input the median and the tail of its calls; across inputs the
	// mean, so a run's figure averages over the inputs its seed draws.
	var p50, tail, cpu float64
	var calls int
	for j, r := range inputs {
		q, label := tailQuantile(len(r.walls))
		med, tl := median(r.walls), quantile(r.walls, q)
		p50 += med / float64(len(inputs))
		tail += tl / float64(len(inputs))
		cpu += median(r.cpus) / float64(len(inputs))
		calls += len(r.walls)
		o.note("cluster_s            %.4f s wall, %.4f s CPU (input %d, seed %d: median of %d calls, %s %.4f s wall)",
			med, median(r.cpus), j, r.seed, len(r.walls), label, tl)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["cpu_ms_per_op"] = cpu * 1e3
	o.note("latency_p50_ms       %.2f ms wall", p50*1e3)
	o.note("latency_tail_ms      %.2f ms wall", tail*1e3)
	// The live-heap metric changes only when a collection ends, so a call
	// can miss its own peak when no collection ends near it; the largest
	// reading over the calls is the steadier figure.
	o.metrics["peak_heap_mb"] = slices.Max(heaps)
	o.metrics["ari_vs_exact"] = ari
	o.note("points_per_s         %.1f 1/s wall, %.1f 1/s per CPU second, at n=%d (%d calls over %d inputs)",
		float64(first.n)/p50, float64(first.n)/cpu, first.n, calls, len(inputs))
	o.note("peak_heap_mb         %.2f MB (largest of %d per-call peaks; median %.2f MB)", slices.Max(heaps), len(heaps), median(heaps))
	o.note("ari_vs_exact         %.6f (input 0: %d clusters, exact DBSCAN %d)", ari, clusters, exactClusters)
	o.note("setup_s              %.4f s CPU (median of %d set-ups)", median(setups), len(setups))
	o.note("error_ratio          %.4f (%d of %d calls failed)", ratio(o.failed, o.attempted), o.failed, o.attempted)

	if cfg.trace {
		for _, name := range sortedKeys(layers[0]) {
			var xs []float64
			for _, m := range layers {
				xs = append(xs, m[name])
			}
			o.metrics[name] = median(xs)
		}
		o.metrics["trace_overhead_ratio"] = median(overheads)
		o.note("trace                %d traced calls, spans in %s", len(layers), traceFile(spec.name, cfg.seed))
		if err := tr.write(traceFile(spec.name, cfg.seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return o, nil
}
