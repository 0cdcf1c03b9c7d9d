package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dbsvec"
	"dbsvec/internal/data"
	"dbsvec/internal/vec"
)

// TestMain lets the test binary stand in for the load generator's
// process, which the serving test starts as os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == clientArg {
		if err := clientMain(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// small returns a copy of spec over a few thousand points, so the
// determinism checks run in seconds.
func small(spec clusterSpec) clusterSpec {
	if spec.kind == dbsvec.IndexRProj {
		spec.gen = func(seed int64) *vec.Dataset { return data.Embeddings(3000, 64, 8, 0.35, seed) }
		return spec
	}
	spec.gen = func(seed int64) *vec.Dataset { return data.SeedSpreader{N: 6000, D: 8, Seed: seed}.Generate() }
	spec.eps = 5000
	return spec
}

// TestTracedRunsMatchUntraced runs every clustering workload twice through
// the public API and twice through the traced path, and requires the
// labels and every deterministic counter to agree byte for byte: the
// outside-in wrappers must not change the work.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, spec := range []clusterSpec{spreaderKD, embedRProj, spreaderOutOfCore} {
		t.Run(spec.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				cfg := config{seed: seed, seconds: 1, trace: true, workers: runtime.NumCPU()}
				r := &clusterRun{spec: small(spec), cfg: cfg, seed: seed, dir: t.TempDir()}
				if err := r.setup(); err != nil {
					t.Fatal(err)
				}
				o := newOutcome()
				for call := 0; call < 2; call++ {
					res, err := r.public()
					if err != nil {
						t.Fatal(err)
					}
					r.check(o, "public", res.Labels, publicCounts(res.Stats))
				}
				tr := newTracer()
				for run := int64(1); run <= 2; run++ {
					m, err := r.traced(o, tr, run)
					if err != nil {
						t.Fatal(err)
					}
					if m["svdd.trainings"] == 0 || m["index.range_queries"] == 0 {
						t.Errorf("seed %d: traced call %d measured no work: %v", seed, run, m)
					}
				}
				for _, p := range o.problems {
					t.Errorf("seed %d: %s", seed, p)
				}
				if r.smo <= 0 {
					t.Errorf("seed %d: traced calls reported no SMO iterations", seed)
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that the seed reaches the generators: two
// seeds must give different inputs, one seed the same inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, spec := range []clusterSpec{spreaderKD, embedRProj} {
		a, b, c := small(spec).gen(1), small(spec).gen(1), small(spec).gen(2)
		if !equalCoords(a, b) {
			t.Errorf("%s: the same seed gave different inputs", spec.name)
		}
		if equalCoords(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", spec.name)
		}
	}
}

func equalCoords(a, b *vec.Dataset) bool { return slices.Equal(a.Coords(), b.Coords()) }

// TestSelfTimes pins the self-time rule: a span's duration minus its
// children's, per run.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.open()
	scan := tr.open()
	tr.record(0, scan, 1, "shard.plan_block", at(2), at(5))
	tr.record(scan, root, 1, "shard.scan", at(1), at(6))
	tr.record(0, root, 1, "index.query", at(7), at(9))
	tr.record(root, 0, 1, "shard.run", at(0), at(10))
	tr.record(0, 0, 2, "shard.run", at(20), at(21))
	total, self := tr.byName(1)
	want := map[string]time.Duration{"shard.run": 3, "shard.scan": 2, "shard.plan_block": 3, "index.query": 2}
	for name, ms := range want {
		if self[name] != ms*time.Millisecond {
			t.Errorf("self[%s] = %v, want %v", name, self[name], ms*time.Millisecond)
		}
	}
	if total["shard.run"] != 10*time.Millisecond {
		t.Errorf("total[shard.run] = %v, want 10ms", total["shard.run"])
	}
}

// TestQuantileWithFailures pins quantiles over samples with failed
// requests, whose latency is +Inf: a quantile that reaches the failures is
// +Inf, one below them is finite, and neither is NaN.
func TestQuantileWithFailures(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, inf}, 0.5, 2.5},
		{[]float64{1, 2, inf}, 0.5, 2},
		{[]float64{1, 2, inf}, 1, inf},
		{[]float64{1, inf, inf}, 0.75, inf},
		{[]float64{1, 2, inf}, 0.75, inf},
		{[]float64{inf, inf}, 0.5, inf},
		{[]float64{4}, 0.99, 4},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	o := newOutcome()
	o.metrics["cpu_ms_per_op"] = quantile([]float64{1, inf}, 1)
	o.attempted, o.failed = 2, 1
	summarize(o, false)
	found := false
	for _, p := range o.problems {
		found = found || strings.Contains(p, "cpu_ms_per_op is +Inf (1 of 2 operations failed)")
	}
	if !found {
		t.Errorf("problems %q do not name the failed operations", o.problems)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program in step:
// the same workloads and the same metrics with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestServeStepChecksOut plays a short traced step against a small model
// and requires every response to match the in-process model, with one
// server span per request sent.
func TestServeStepChecksOut(t *testing.T) {
	cfg := config{seed: 3, seconds: 1, trace: true, workers: runtime.NumCPU()}
	s := &serveRun{cfg: cfg, spec: small(spreaderKD), tr: newTracer()}
	defer s.stop()
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := s.preparePool(rng); err != nil {
		t.Fatal(err)
	}
	st := &step{name: "test", rate: refRate, dur: 1200 * time.Millisecond}
	st.reqs = s.schedule(rng, st.rate, st.dur)
	s.traceOn.Store(true)
	if err := s.runStep(st, true); err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	ss := s.tally(o, st)
	for _, p := range o.problems {
		t.Error(p)
	}
	if ss.sent[kindAssign64] == 0 || ss.sent[kindSwap] == 0 {
		t.Errorf("the step sent no batch or no swap: %+v", ss.sent)
	}
	for k := range kindNames {
		if ss.failed[k] != 0 {
			t.Errorf("%s: %d requests failed", kindNames[k], ss.failed[k])
		}
	}
	s.waitHandled(int64(o.attempted))
	handled := s.tr.byRun("server.handler")
	if len(handled) != o.attempted {
		t.Errorf("%d server spans for %d requests", len(handled), o.attempted)
	}
}
