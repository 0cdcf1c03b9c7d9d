// Package engine is the shared query-execution engine under DBSVEC and the
// baseline algorithms. The paper's cost model (Section III-D) makes range
// queries the dominant term, and every phase of every algorithm in this
// repository issues them in batches with no ordering dependency inside a
// batch — a round's core-support-vector set, a noise list's pending core
// tests, parallel DBSCAN's phase-1 materialization. The engine treats each
// such batch as the schedulable unit: it fans the queries of a batch across
// a configurable worker pool via the index layer's BatchIndex capability
// and returns results in query-index order, so callers that merge results
// sequentially produce bit-identical output for every worker count.
package engine

import (
	"context"
	"runtime"
	"time"

	"dbsvec/internal/fault"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// WorkerPanicError is a panic recovered from a worker goroutine spawned by
// ForRanges, Tasks or the index batch fan-out, converted to a typed error.
// It is defined in internal/fault (the leaf package both the engine and the
// index layer can import) and aliased here as the engine is the public face
// of the worker machinery.
type WorkerPanicError = fault.WorkerPanicError

// Engine schedules batches of ε-range queries over one dataset and index.
// An Engine is owned by a single algorithm run; its batch methods reuse
// internal arenas, so results of a call are valid only until the next call
// (the *Owned variants hand ownership to the caller instead).
type Engine struct {
	ds      *vec.Dataset
	idx     index.BatchIndex
	eps     float64
	workers int

	hoods  [][]int32 // neighborhood arena reused across rounds
	counts []int     // count arena reused across rounds
}

// New builds an engine over ds serving queries from idx with the given
// ε radius. workers <= 0 selects GOMAXPROCS; workers == 1 executes batches
// on the calling goroutine.
func New(ds *vec.Dataset, idx index.Index, eps float64, workers int) *Engine {
	return &Engine{ds: ds, idx: index.Batch(idx), eps: eps, workers: ResolveWorkers(workers)}
}

// ResolveWorkers maps the Workers option convention (<= 0: all CPUs) to a
// concrete worker count.
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Index returns the engine's (batch-upgraded) index for callers that also
// issue individual queries.
func (e *Engine) Index() index.Index { return e.idx }

// idQueries addresses the points of ids as a query batch; coordinates are
// views into the dataset, so no scratch is needed.
func (e *Engine) idQueries(ids []int32) index.Queries {
	return index.Queries{N: len(ids), At: func(i int, _ []float64) []float64 { return e.ds.Point(int(ids[i])) }}
}

// allQueries addresses every dataset point as a query batch.
func (e *Engine) allQueries() index.Queries {
	return index.Queries{N: e.ds.Len(), At: func(i int, _ []float64) []float64 { return e.ds.Point(i) }}
}

// Neighborhoods materializes the ε-neighborhood of each id, in id order.
// The returned slices live in the engine's arena and are valid until the
// next batch call. ctx is honored inside the batch.
func (e *Engine) Neighborhoods(ctx context.Context, ids []int32) ([][]int32, error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	hoods, err := e.idx.BatchRangeQuery(ctx, e.idQueries(ids), e.eps, e.workers, e.hoods)
	if err != nil {
		return nil, err
	}
	e.hoods = hoods
	return hoods, nil
}

// AllNeighborhoodsOwned materializes the ε-neighborhood of every dataset
// point; the caller owns the result (nothing is reused).
func (e *Engine) AllNeighborhoodsOwned(ctx context.Context) ([][]int32, error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	return e.idx.BatchRangeQuery(ctx, e.allQueries(), e.eps, e.workers, nil)
}

// Counts runs a counting query per id with the given early-exit limit
// (RangeCount semantics), in id order. The returned slice lives in the
// engine's arena and is valid until the next batch call.
func (e *Engine) Counts(ctx context.Context, ids []int32, limit int) ([]int, error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	counts, err := e.idx.BatchRangeCount(ctx, e.idQueries(ids), e.eps, limit, e.workers, e.counts)
	if err != nil {
		return nil, err
	}
	e.counts = counts
	return counts, nil
}

// AllCountsOwned runs a counting query for every dataset point; the caller
// owns the result.
func (e *Engine) AllCountsOwned(ctx context.Context, limit int) ([]int, error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	return e.idx.BatchRangeCount(ctx, e.allQueries(), e.eps, limit, e.workers, nil)
}

// PhaseTimes is the unified per-phase wall-clock breakdown reported by the
// algorithms running on the engine. The mapping is:
//
//	DBSVEC          Init = seed sweep, Expand = SV expansion rounds,
//	                Verify = noise verification;
//	parallel DBSCAN Init = phase-1 neighborhood materialization,
//	                Expand = core-graph union, Verify = border attachment.
//
// Wall-clock varies run to run; determinism comparisons must ignore it.
type PhaseTimes struct {
	Init   time.Duration
	Expand time.Duration
	Verify time.Duration
}

// Total is the summed phase wall-clock.
func (p PhaseTimes) Total() time.Duration { return p.Init + p.Expand + p.Verify }

// SVDDTimes is the per-stage wall-clock breakdown of SVDD training,
// accumulated across every training round of a run: Fill covers the kernel
// matrix construction (including the adaptive-weight pass), Solve the SMO
// optimization, Finish the radius/score extraction. Like PhaseTimes it is
// wall-clock and must be ignored by determinism comparisons. Rounds,
// NotConverged and KernelEntries are deterministic counters riding along:
// Rounds counts the trainings accumulated, NotConverged the subset that
// exhausted MaxIter before reaching the KKT tolerance (previously
// indistinguishable from converged models — see svdd.ErrNotConverged), and
// KernelEntries the Gaussian kernel entries evaluated, which is the same for
// every worker count.
type SVDDTimes struct {
	Fill   time.Duration
	Solve  time.Duration
	Finish time.Duration

	Rounds        int
	NotConverged  int
	KernelEntries int64
}

// Total is the summed training wall-clock.
func (s SVDDTimes) Total() time.Duration { return s.Fill + s.Solve + s.Finish }

// Add accumulates another training's stage times and counters.
func (s *SVDDTimes) Add(o SVDDTimes) {
	s.Fill += o.Fill
	s.Solve += o.Solve
	s.Finish += o.Finish
	s.Rounds += o.Rounds
	s.NotConverged += o.NotConverged
	s.KernelEntries += o.KernelEntries
}

// Stopwatch accumulates phase wall-clock with the pattern
//
//	sw := engine.StartPhase()
//	... phase work ...
//	sw.Stop(&stats.Phases.Init)
type Stopwatch struct{ t0 time.Time }

// StartPhase starts a stopwatch.
func StartPhase() Stopwatch { return Stopwatch{t0: time.Now()} }

// Stop adds the elapsed time to *acc.
func (s Stopwatch) Stop(acc *time.Duration) { *acc += time.Since(s.t0) }
