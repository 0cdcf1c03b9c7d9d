package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dbsvec"
	"dbsvec/internal/cluster"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/eval"
	"dbsvec/internal/server"
	"dbsvec/internal/vec"
)

// Serving workload parameters. Model.AssignContext costs ~0.6-0.9 ms per
// point on this model, and two cores served 1.5k-2.4k points/s at
// saturation: 360-580 requests/s at the mean of 4.15 points per request
// (19 single points to one batch of 64). The reference rate sits well
// below that ceiling and the ladder climbs to it.
const (
	modelName   = "spreader"
	poolSize    = 2048 // distinct training points the requests draw from
	batchEvery  = 20   // every 20th assign request carries a batch
	batchPoints = 64
	swapEvery   = 2 * time.Second // hot-swap period, in every step
	refRate     = 150.0           // requests/s of the reference step
	limitMs     = 100.0           // latency limit on a step's tail percentile
	saturation  = 10.0            // the saturation step's schedule, in multiples of refRate
	// serveSetups is how many times a run trains and starts the daemon;
	// each set-up costs a training run, so fewer than the clustering
	// workloads' setupRepeats.
	serveSetups = 3
	// backlogShare is the share of a step's assign requests that may still
	// be queued when the step ends before the step counts as overloaded.
	backlogShare = 0.02
)

// ladder is the rate ladder, in multiples of refRate, above the reference.
var ladder = []float64{2, 2.5, 3}

// Request kinds.
const (
	kindAssign1 = iota
	kindAssign64
	kindSwap
)

var kindNames = []string{"assign-1", "assign-64", "swap"}

// request is one scheduled operation and what became of it.
type request struct {
	clientRequest
	clientOutcome
	pool   []int32 // pool indices of the points sent
	rootID int64   // the client.request span, when traced
}

// latency is the time from the request's due time to its response.
func (rq *request) latency() time.Duration { return time.Duration(rq.Done - rq.DueAt) }

// step is one fixed-rate phase of the open-loop generator. A flood step
// releases its whole schedule at the start, so the connections send back
// to back and the server, not the schedule, sets the pace.
type step struct {
	name  string
	rate  float64
	dur   time.Duration
	flood bool
	start int64         // Unix nanoseconds
	cpu   time.Duration // the daemon process's CPU time while the step played
	reqs  []request
}

type assignResponse struct {
	Labels   []int32 `json:"labels"`
	Degraded bool    `json:"degraded"`
}

// serveRun is the daemon under test and everything the client needs.
type serveRun struct {
	cfg      config
	spec     clusterSpec // the training data and clustering parameters
	raw      *vec.Dataset
	model    *dbsvec.Model // the loaded model the server holds
	artifact []byte        // the saved model, also the hot-swap body
	srv      *server.Server
	hs       *http.Server
	url      string
	train    time.Duration

	pool               []int32 // dataset ids of the pool points
	expect, expectNear []int32 // in-process labels of the pool points

	// Tracing: when on, the handler wrapper records a server span per
	// request, parented to the client's span named in the request headers.
	tr      *tracer
	traceOn atomic.Bool
	handled atomic.Int64
}

// setup trains the model, saves and reloads it, and starts the daemon on
// a loopback listener. It returns once a first request has been served.
func (s *serveRun) setup() error {
	s.raw = s.spec.gen(s.cfg.seed)
	pub, err := dbsvec.FromFlat(s.raw.Coords(), s.raw.Dim())
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := dbsvec.ClusterContext(context.Background(), pub, dbsvec.Options{
		Eps: s.spec.eps, MinPts: s.spec.minPts, Index: s.spec.kind, Workers: s.cfg.workers,
	})
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	s.train = time.Since(start)
	var art bytes.Buffer
	if err := res.Model().Save(&art); err != nil {
		return err
	}
	s.artifact = art.Bytes()
	if s.model, err = dbsvec.LoadModel(bytes.NewReader(s.artifact)); err != nil {
		return err
	}
	s.srv = server.New(server.Config{Workers: s.cfg.workers})
	s.srv.SetModel(modelName, s.model)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.handler(s.srv.Handler())}
	go s.hs.Serve(ln)
	// The first assign builds the model's lazy assignment plan.
	body, _ := json.Marshal(map[string]any{"model": modelName, "point": s.raw.Point(0)})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	resp, err := client.Post(s.url+"/v1/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up assign: status %d", resp.StatusCode)
	}
	return nil
}

func (s *serveRun) stop() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.BeginDrain()
	s.hs.Shutdown(ctx)
	s.hs = nil
}

// handler wraps the daemon's handler. With tracing on it records one
// "server.handler" span per request, from the headers the client set.
func (s *serveRun) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.traceOn.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		run, _ := strconv.ParseInt(r.Header.Get("X-Bench-Run"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		s.tr.record(0, parent, run, "server.handler", start, end)
		s.handled.Add(1)
	})
}

// waitHandled waits, for at most five seconds, until the handler wrapper
// has recorded n spans: it records each one after the response is
// written, so the client can see the response first.
func (s *serveRun) waitHandled(n int64) {
	for deadline := time.Now().Add(5 * time.Second); s.handled.Load() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// schedule lays out a step's arrivals: assign requests at a constant
// rate, every batchEvery-th one a batch, plus one hot-swap every
// swapEvery. The seed picks the points. Constant spacing and a fixed mix
// keep the step's load the same for every seed, so runs compare; the
// bodies are encoded up front.
func (s *serveRun) schedule(rng *rand.Rand, rate float64, dur time.Duration) []request {
	var reqs []request
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; time.Duration(i)*gap < dur; i++ {
		rq := request{clientRequest: clientRequest{Kind: kindAssign1, Due: time.Duration(i) * gap}}
		k := 1
		if i%batchEvery == batchEvery-1 {
			rq.Kind, k = kindAssign64, batchPoints
		}
		rq.pool = make([]int32, k)
		pts := make([][]float64, k)
		for j := range rq.pool {
			rq.pool[j] = int32(rng.Intn(len(s.pool)))
			pts[j] = s.raw.Point(int(s.pool[rq.pool[j]]))
		}
		if k == 1 {
			rq.Body, _ = json.Marshal(map[string]any{"model": modelName, "point": pts[0]})
		} else {
			rq.Body, _ = json.Marshal(map[string]any{"model": modelName, "points": pts})
		}
		reqs = append(reqs, rq)
	}
	for t := swapEvery / 2; t < dur; t += swapEvery {
		reqs = append(reqs, request{clientRequest: clientRequest{Kind: kindSwap, Due: t}})
	}
	slices.SortStableFunc(reqs, func(a, b request) int { return cmp.Compare(a.Due, b.Due) })
	return reqs
}

// runStep plays a step in the load generator's process and records its
// outcomes. A traced request gets a client span from its due time to its
// response, with a child span for the round trip, whose id travels in a
// header so the server span can name it as parent.
func (s *serveRun) runStep(st *step, traced bool) error {
	job := clientJob{URL: s.url, Workers: s.cfg.workers, Artifact: s.artifact, Dur: st.dur, Flood: st.flood}
	for i := range st.reqs {
		rq := &st.reqs[i]
		if traced {
			rq.rootID, rq.Span = s.tr.open(), s.tr.open()
			rq.Run = int64(i) + 1
		}
		job.Reqs = append(job.Reqs, rq.clientRequest)
	}
	cpu := cpuTime()
	reply, err := playInChild(job)
	st.cpu = cpuTime() - cpu
	if err != nil {
		return err
	}
	if len(reply.Outcomes) != len(st.reqs) {
		return fmt.Errorf("load generator returned %d outcomes for %d requests", len(reply.Outcomes), len(st.reqs))
	}
	st.start = reply.Start
	for i := range st.reqs {
		rq := &st.reqs[i]
		rq.clientOutcome = reply.Outcomes[i]
		if traced && !rq.Unsent {
			s.tr.record(rq.Span, rq.rootID, rq.Run, "client.send", time.Unix(0, rq.Sent), time.Unix(0, rq.Done))
			s.tr.record(rq.rootID, 0, rq.Run, "client.request", time.Unix(0, rq.DueAt), time.Unix(0, rq.Done))
		}
	}
	return nil
}

// verify checks a finished request against the in-process model: a
// non-degraded 200 must equal Model.AssignContext on the same points, a
// degraded one Model.AssignNearestContext. It returns whether the request
// succeeded, and records every mismatch as a correctness problem.
func (s *serveRun) verify(o *outcome, stepName string, i int, rq *request) bool {
	if rq.Unsent || rq.Err != "" || rq.Status/100 != 2 {
		return false
	}
	if rq.Kind == kindSwap {
		return true
	}
	want := s.expect
	if rq.Degraded {
		want = s.expectNear
	}
	if len(rq.Labels) != len(rq.pool) {
		o.fail("%s request %d: %d labels for %d points", stepName, i, len(rq.Labels), len(rq.pool))
		return false
	}
	for j, p := range rq.pool {
		if rq.Labels[j] != want[p] {
			o.fail("%s request %d: point %d labelled %d, in-process %d (degraded=%v)", stepName, i, j, rq.Labels[j], want[p], rq.Degraded)
			return false
		}
	}
	return true
}

// stepStats tallies one step.
type stepStats struct {
	sent, ok, failed, unsent [3]int
	latencies                []float64 // ms from due, assign requests; failures are +Inf
	p50, tail                float64
	tailLabel                string
	goodput                  float64 // assign requests ok within the limit, per second
	pointsPerS               float64 // points labelled per second
	degraded                 int
	meets                    bool
}

func (s *serveRun) tally(o *outcome, st *step) stepStats {
	var ss stepStats
	var points int
	end := st.start + int64(st.dur)
	for i := range st.reqs {
		rq := &st.reqs[i]
		if rq.Unsent {
			ss.unsent[rq.Kind]++
			continue
		}
		ss.sent[rq.Kind]++
		o.attempted++
		good := s.verify(o, st.name, i, rq)
		if !good {
			ss.failed[rq.Kind]++
			o.failed++
		} else {
			ss.ok[rq.Kind]++
		}
		if rq.Kind == kindSwap {
			continue
		}
		lat := math.Inf(1)
		if good {
			lat = millis(rq.latency())
			if rq.Degraded {
				ss.degraded++
			}
			if rq.Done <= end {
				points += len(rq.pool)
			}
		}
		ss.latencies = append(ss.latencies, lat)
		if lat <= limitMs {
			ss.goodput++
		}
	}
	q, label := tailQuantile(len(ss.latencies))
	ss.p50, ss.tail, ss.tailLabel = quantile(ss.latencies, 0.5), quantile(ss.latencies, q), label
	ss.goodput /= st.dur.Seconds()
	ss.pointsPerS = float64(points) / st.dur.Seconds()
	// A backlog that grows through the step leaves a queue proportional
	// to the step's length when it ends; a stable one leaves a few requests.
	backlog := ss.unsent[kindAssign1] + ss.unsent[kindAssign64]
	ss.meets = ss.tail <= limitMs && float64(backlog) <= backlogShare*float64(len(ss.latencies)+backlog)
	return ss
}

func (s *serveRun) report(o *outcome, st *step, ss stepStats) {
	o.note("step %-10s rate %6.1f/s  p50 %8.3f ms  %s %8.3f ms  goodput %7.1f/s  points %7.1f/s  degraded %d  meets %v",
		st.name, st.rate, ss.p50, ss.tailLabel, ss.tail, ss.goodput, ss.pointsPerS, ss.degraded, ss.meets)
	for k, name := range kindNames {
		o.note("step %-10s   %-9s sent %5d  ok %5d  failed %4d  unsent %4d", st.name, name, ss.sent[k], ss.ok[k], ss.failed[k], ss.unsent[k])
	}
}

// scrape reads the daemon's /metrics through its handler, in process, so
// it costs no client connection.
func (s *serveRun) scrape() map[string]int64 {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[strings.TrimPrefix(name, "dbsvecd_")] = v
		}
	}
	return out
}

// preparePool draws the training points requests are made of and labels
// them in process, on both the normal and the degraded path.
func (s *serveRun) preparePool(rng *rand.Rand) error {
	n := min(poolSize, s.raw.Len())
	s.pool = make([]int32, n)
	pts := make([][]float64, n)
	for i, id := range rng.Perm(s.raw.Len())[:n] {
		s.pool[i] = int32(id)
		pts[i] = s.raw.Point(id)
	}
	ds, err := dbsvec.NewDataset(pts)
	if err != nil {
		return err
	}
	if s.expect, err = s.model.AssignContext(context.Background(), ds, s.cfg.workers); err != nil {
		return err
	}
	s.expectNear, err = s.model.AssignNearestContext(context.Background(), ds, s.cfg.workers)
	return err
}

func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	s := &serveRun{cfg: cfg, spec: spreaderKD}
	defer s.stop()
	var setups, trains []float64
	for i := 0; i < serveSetups; i++ {
		s.stop()
		cpu := cpuTime()
		if err := s.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - cpu).Seconds())
		trains = append(trains, s.train.Seconds())
	}

	// Outside every timed region: the exact reference and the in-process
	// labels every response is checked against.
	exact, _, err := dbscan.RunParallel(s.raw, dbscan.Params{Eps: s.spec.eps, MinPts: s.spec.minPts}, s.spec.exact(cfg.workers), cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("exact reference: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := s.preparePool(rng); err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	refDur := total * 56 / 100
	if cfg.trace {
		return s.traced(o, rng, total/2)
	}

	// Each step is played on its own, with the live heap sampled during it.
	var peaks []float64
	play := func(name string, rate float64, dur time.Duration, flood bool) (*step, stepStats, error) {
		st := &step{name: name, rate: rate, dur: dur, flood: flood}
		st.reqs = s.schedule(rng, rate, dur)
		heap := startHeapSampler()
		err := s.runStep(st, false)
		peaks = append(peaks, heap.Stop())
		ss := s.tally(o, st)
		s.report(o, st, ss)
		return st, ss, err
	}
	ref, refStats, err := play("reference", refRate, refDur, false)
	if err != nil {
		return nil, err
	}

	// serve_max_rps: the highest rate up to which every step meets the
	// limit without a backlog.
	maxRate, contiguous := 0.0, refStats.meets
	if contiguous {
		maxRate = refRate
	}
	for _, mult := range ladder {
		st, ss, err := play(fmt.Sprintf("x%.2f", mult), refRate*mult, total*8/100, false)
		if err != nil {
			return nil, err
		}
		contiguous = contiguous && ss.meets
		if contiguous {
			maxRate = st.rate
		}
	}
	sat, satStats, err := play("saturation", refRate*saturation, total*20/100, true)
	if err != nil {
		return nil, err
	}
	peak := slices.Max(peaks)

	// ARI of the labels users received against exact DBSCAN, over the
	// distinct pool points the reference step served.
	served := map[int32]int32{}
	for _, rq := range ref.reqs {
		for j, p := range rq.pool {
			if j < len(rq.Labels) {
				served[p] = rq.Labels[j]
			}
		}
	}
	var got, want []int32
	for p, l := range served {
		got = append(got, l)
		want = append(want, exact.Labels[s.pool[p]])
	}
	ari, err := eval.AdjustedRandIndex(&cluster.Result{Labels: want}, &cluster.Result{Labels: got})
	if err != nil {
		return nil, fmt.Errorf("ARI: %w", err)
	}
	if ari < ariFloor {
		o.fail("ARI of served labels against exact DBSCAN %.4f is below %.2f", ari, ariFloor)
	}
	if !refStats.meets {
		o.note("the reference step misses the %.0f ms limit", limitMs)
	}

	okAssign := refStats.ok[kindAssign1] + refStats.ok[kindAssign64]
	var ops int
	for k := range kindNames {
		ops += refStats.sent[k]
	}
	o.metrics["setup_s"] = median(setups)
	// The daemon's CPU time per request it was sent at the reference rate,
	// swaps included: what serving the mix costs, whatever the host's
	// share of a core was at the time.
	o.metrics["cpu_ms_per_op"] = millis(ref.cpu) / float64(max(ops, 1))
	o.metrics["peak_heap_mb"] = peak
	o.metrics["ari_vs_exact"] = ari
	o.note("serve_p50_ms         %.4f ms at %.0f/s (%d assign requests)", refStats.p50, refRate, len(refStats.latencies))
	o.note("serve_p99_ms         %.4f ms (%s) at %.0f/s", refStats.tail, refStats.tailLabel, refRate)
	o.note("serve_goodput_rps    %.2f 1/s within %.0f ms at %.0f/s", refStats.goodput, limitMs, refRate)
	o.note("serve_max_rps        %.1f 1/s (highest ladder rate meeting the limit without backlog)", maxRate)
	o.note("serve_degraded_ratio %.4f (%d of %d ok assigns)", ratio(refStats.degraded, okAssign), refStats.degraded, okAssign)
	o.note("error_ratio          %.4f (%d of %d operations failed)", ratio(o.failed, o.attempted), o.failed, o.attempted)
	o.note("saturation           %.1f points/s, %.1f requests/s ok (serving capacity)", satStats.pointsPerS, float64(satStats.ok[kindAssign1]+satStats.ok[kindAssign64])/sat.dur.Seconds())
	o.note("points_per_s         %.1f 1/s wall, training the served model at n=%d", float64(s.raw.Len())/median(trains), s.raw.Len())
	o.note("cpu_ms_per_op        %.4f ms (%.3f s of daemon CPU over %d requests at %.0f/s)", o.metrics["cpu_ms_per_op"], ref.cpu.Seconds(), ops, refRate)
	o.note("ari_vs_exact         %.6f over %d served points", ari, len(served))
	o.note("setup_s              %.4f s CPU (median of %d; training %.4f s wall)", median(setups), len(setups), median(trains))
	o.note("peak_heap_mb         %.2f MB (largest of %d per-step peaks)", peak, len(peaks))
	return o, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traced plays the reference rate untraced for a quarter of the time,
// traced for half, and untraced again for the last quarter, and reports
// the per-layer metrics of the traced half. With untraced quarters on both
// sides, neither the order nor a drift of the host leans
// trace_overhead_ratio one way. The model layer is timed afterwards by
// calling Model.AssignContext on the same batches.
func (s *serveRun) traced(o *outcome, rng *rand.Rand, half time.Duration) (*outcome, error) {
	s.tr = newTracer()
	sched := s.schedule(rng, refRate, half)
	quarter := s.schedule(rng, refRate, half/2)
	var plain []float64 // latencies of both untraced quarters
	playPlain := func(name string) error {
		st := &step{name: name, rate: refRate, dur: half / 2, reqs: cloneSchedule(quarter)}
		if err := s.runStep(st, false); err != nil {
			return err
		}
		ss := s.tally(o, st)
		s.report(o, st, ss)
		plain = append(plain, ss.latencies...)
		return nil
	}
	if err := playPlain("untraced-a"); err != nil {
		return nil, err
	}

	before := s.scrape()
	var depth atomic.Int64
	stopScrape := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if d := s.scrape()["admission_queue_depth"]; d > depth.Load() {
				depth.Store(d)
			}
			select {
			case <-stopScrape:
				return
			case <-tick.C:
			}
		}
	}()
	tr := &step{name: "traced", rate: refRate, dur: half, reqs: cloneSchedule(sched)}
	s.traceOn.Store(true)
	err := s.runStep(tr, true)
	close(stopScrape)
	<-scraped
	if err != nil {
		return nil, err
	}
	sentN := int64(0)
	for i := range tr.reqs {
		if !tr.reqs[i].Unsent && tr.reqs[i].Err == "" {
			sentN++
		}
	}
	s.waitHandled(sentN)
	s.traceOn.Store(false)
	after := s.scrape()
	trStats := s.tally(o, tr)
	s.report(o, tr, trStats)
	if err := playPlain("untraced-b"); err != nil {
		return nil, err
	}

	// Out of band: the model layer on the same batches, and the swap's
	// decode alone. The batches are built first and the heap collected,
	// so the timed calls do not pay for the benchmark's own garbage.
	handlerBy, sendBy := s.tr.byRun("server.handler"), s.tr.byRun("client.send")
	type job struct {
		run int64
		ds  *dbsvec.Dataset
		h   time.Duration
	}
	var jobs []job
	var handler, overhead, wire, swaps []float64
	for i := range tr.reqs {
		rq := &tr.reqs[i]
		run := int64(i) + 1
		h := handlerBy[run]
		if rq.Unsent || rq.Err != "" || h == 0 {
			continue
		}
		wire = append(wire, millis(sendBy[run]-h))
		if rq.Kind == kindSwap {
			swaps = append(swaps, millis(h))
			continue
		}
		pts := make([][]float64, len(rq.pool))
		for j, p := range rq.pool {
			pts[j] = s.raw.Point(int(s.pool[p]))
		}
		ds, err := dbsvec.NewDataset(pts)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{run: run, ds: ds, h: h})
		handler = append(handler, millis(h))
	}
	runtime.GC()
	var assignTime time.Duration
	var assignPoints int
	for _, j := range jobs {
		start := time.Now()
		if _, err := s.model.AssignContext(context.Background(), j.ds, s.cfg.workers); err != nil {
			return nil, err
		}
		end := time.Now()
		s.tr.record(0, 0, j.run, "model.assign", start, end)
		assignTime += end.Sub(start)
		assignPoints += j.ds.Len()
		overhead = append(overhead, millis(j.h-end.Sub(start)))
	}
	var loads []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := dbsvec.LoadModel(bytes.NewReader(s.artifact)); err != nil {
			return nil, err
		}
		loads = append(loads, millis(time.Since(start)))
	}
	var late []float64
	for _, rq := range tr.reqs {
		late = append(late, millis(rq.Late))
	}

	m := o.metrics
	m["model.assign_us_per_point"] = float64(assignTime.Microseconds()) / float64(max(assignPoints, 1))
	m["model.snapshots"] = float64(s.model.Snapshots())
	m["model.support_vectors"] = float64(s.model.SupportVectors())
	m["model.load_ms"] = median(loads)
	m["server.handler_p50_ms"] = quantile(handler, 0.5)
	q, _ := tailQuantile(len(handler))
	m["server.handler_p99_ms"] = quantile(handler, q)
	m["server.overhead_ms"] = median(overhead)
	m["server.shed"] = float64(after["rejected_overload_total"] - before["rejected_overload_total"])
	m["server.deadline_exceeded"] = float64(after["deadline_exceeded_total"] - before["deadline_exceeded_total"])
	m["server.queue_depth_max"] = float64(depth.Load())
	m["server.swap_ms"] = median(swaps)
	m["client.wire_ms"] = median(wire)
	q, _ = tailQuantile(len(late))
	m["client.gen_late_ms"] = quantile(late, q)
	m["trace_overhead_ratio"] = trStats.p50/median(plain) - 1
	o.note("trace                %d traced requests, spans in %s", len(tr.reqs), traceFile("serve-assign", s.cfg.seed))
	if err := s.tr.write(traceFile("serve-assign", s.cfg.seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return o, nil
}

// cloneSchedule copies a schedule's requests without their outcomes.
func cloneSchedule(reqs []request) []request {
	out := make([]request, len(reqs))
	for i, rq := range reqs {
		out[i] = request{clientRequest: rq.clientRequest, pool: rq.pool}
	}
	return out
}
