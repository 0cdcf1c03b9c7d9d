package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dbsvec/internal/index"
	"dbsvec/internal/shard"
	"dbsvec/internal/vec"
)

// span is one timed call across a layer boundary. Spans of one traced
// operation (a clustering call, a served request) share Run; Parent is the
// span that made the call, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the benchmark writes them out.
// Times are wall-clock nanoseconds since the tracer's epoch, so spans the
// load generator's process measured line up with the benchmark's own.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open reserves a span id, so children recorded before the span itself
// closes can name it as their parent.
func (t *tracer) open() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span; id 0 allocates a fresh one.
func (t *tracer) record(id, parent, run int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: start.UnixNano() - t.epoch.UnixNano(), End: end.UnixNano() - t.epoch.UnixNano(),
	})
	return id
}

// byName sums, per span name over the spans of one run, the spans'
// durations and their self times: a span's duration minus the part of it
// its children cover. Children of one span never overlap here, because
// every traced call is made from its caller's goroutine.
func (t *tracer) byName(run int64) (total, self map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Run == run && s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Run == run {
			total[s.Name] += s.dur()
			self[s.Name] += s.dur() - child[s.ID]
		}
	}
	return total, self
}

// byRun sums the durations of the spans with the given name per run.
func (t *tracer) byRun(name string) map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Run] += s.dur()
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// indexCounts are the index layer's work counters, read after the call.
type indexCounts struct {
	mu                    sync.Mutex
	queries, counts, hits int64
}

func (c *indexCounts) add(queries, counts, hits int64) {
	c.mu.Lock()
	c.queries += queries
	c.counts += counts
	c.hits += hits
	c.mu.Unlock()
}

// tracedBuilder wraps an index construction function: the build is one
// span, and the built index answers through tracedIndex.
func tracedBuilder(inner index.CtxBuilder, t *tracer, run, parent int64, c *indexCounts) index.CtxBuilder {
	return func(ctx context.Context, ds *vec.Dataset) (index.Index, error) {
		start := time.Now()
		idx, err := inner(ctx, ds)
		t.record(0, parent, run, "index.build", start, time.Now())
		if err != nil {
			return nil, err
		}
		return &tracedIndex{inner: index.Batch(idx), t: t, run: run, parent: parent, c: c}, nil
	}
}

// tracedIndex times every call into the index layer. It implements
// index.BatchIndex by forwarding to the inner index's own batch path, so
// the engine fans batches out exactly as it would without the wrapper.
type tracedIndex struct {
	inner       index.BatchIndex
	t           *tracer
	run, parent int64
	c           *indexCounts
}

func (x *tracedIndex) Len() int { return x.inner.Len() }

func (x *tracedIndex) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	start, before := time.Now(), len(buf)
	out := x.inner.RangeQuery(q, eps, buf)
	x.t.record(0, x.parent, x.run, "index.query", start, time.Now())
	x.c.add(1, 0, int64(len(out)-before))
	return out
}

func (x *tracedIndex) RangeCount(q []float64, eps float64, limit int) int {
	start := time.Now()
	n := x.inner.RangeCount(q, eps, limit)
	x.t.record(0, x.parent, x.run, "index.count", start, time.Now())
	x.c.add(0, 1, 0)
	return n
}

func (x *tracedIndex) BatchRangeQuery(ctx context.Context, qs index.Queries, eps float64, workers int, out [][]int32) ([][]int32, error) {
	start := time.Now()
	res, err := x.inner.BatchRangeQuery(ctx, qs, eps, workers, out)
	x.t.record(0, x.parent, x.run, "index.query", start, time.Now())
	var hits int64
	for i := 0; i < qs.N && i < len(res); i++ {
		hits += int64(len(res[i]))
	}
	x.c.add(int64(qs.N), 0, hits)
	return res, err
}

func (x *tracedIndex) BatchRangeCount(ctx context.Context, qs index.Queries, eps float64, limit, workers int, out []int) ([]int, error) {
	start := time.Now()
	res, err := x.inner.BatchRangeCount(ctx, qs, eps, limit, workers, out)
	x.t.record(0, x.parent, x.run, "index.count", start, time.Now())
	x.c.add(0, int64(qs.N), 0)
	return res, err
}

var _ index.BatchIndex = (*tracedIndex)(nil)

// tracedSource times the sharded runner's reads. A Scan span's children
// are the runner's own per-block callbacks, so the span's self time is the
// time spent reading. Bytes count the float64 coordinates delivered.
type tracedSource struct {
	inner       shard.Source
	t           *tracer
	run, parent int64
	bytes       atomic.Int64
}

func (s *tracedSource) Len() int { return s.inner.Len() }
func (s *tracedSource) Dim() int { return s.inner.Dim() }

func (s *tracedSource) Scan(fn func(start int, coords []float64) error) error {
	id := s.t.open()
	start := time.Now()
	err := s.inner.Scan(func(first int, coords []float64) error {
		s.bytes.Add(int64(len(coords)) * 8)
		cb := time.Now()
		err := fn(first, coords)
		s.t.record(0, id, s.run, "shard.plan_block", cb, time.Now())
		return err
	})
	s.t.record(id, s.parent, s.run, "shard.scan", start, time.Now())
	return err
}

func (s *tracedSource) Slab(ids []int32) (*vec.Dataset, error) {
	start := time.Now()
	ds, err := s.inner.Slab(ids)
	s.t.record(0, s.parent, s.run, "shard.slab", start, time.Now())
	if ds != nil {
		s.bytes.Add(int64(ds.Len()) * int64(ds.Dim()) * 8)
	}
	return ds, err
}

// traceFile names the span dump of one run inside the build directory.
func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
