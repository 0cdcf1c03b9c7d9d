package dbsvec

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/svdd"
)

// ErrMalformed is wrapped by every rejection of a malformed model stream in
// LoadModel / LoadOneClass, so errors.Is(err, ErrMalformed) classifies any
// decode failure regardless of the specific corruption.
var ErrMalformed = data.ErrMalformed

// Model is the durable artifact of a clustering run: the run parameters
// that define assignment semantics (ε, MinPts, dimensionality, cluster
// count) plus every per-sub-cluster SVDD boundary the run trained, one
// snapshot per training round. A Model is self-contained — the snapshots
// carry their own support-vector coordinates — so it can be saved, loaded
// in a fresh process, and used to Assign new points without the training
// dataset.
type Model struct {
	art *data.ModelArtifact

	planOnce sync.Once
	plan     *assignPlan
}

// Model returns the run's retained model artifact: the input to Save,
// Assign, and Options.WarmFrom. It is nil only when the Result was not
// produced by Cluster/ClusterContext (e.g. the zero Result).
func (r *Result) Model() *Model { return r.model }

func newModel(d *Dataset, opts Options, res *cluster.Result, retained []core.RetainedModel) *Model {
	return newModelDims(d.Dim(), d.Precision(), opts, res, retained)
}

// Dim returns the dimensionality the model was trained in.
func (m *Model) Dim() int { return m.art.Dim }

// Precision returns the storage precision of the training dataset. Models
// saved before precision existed in the format load as PrecisionF64.
func (m *Model) Precision() Precision {
	if m.art.Precision == data.ModelPrecisionF32 {
		return PrecisionF32
	}
	return PrecisionF64
}

// Eps returns the ε radius of the training run.
func (m *Model) Eps() float64 { return m.art.Eps }

// MinPts returns the density threshold of the training run.
func (m *Model) MinPts() int { return m.art.MinPts }

// Clusters returns the number of clusters of the training run.
func (m *Model) Clusters() int { return m.art.Clusters }

// Snapshots returns the number of retained SVDD snapshots.
func (m *Model) Snapshots() int {
	n := 0
	for i := range m.art.Entries {
		if m.art.Entries[i].Snap != nil {
			n++
		}
	}
	return n
}

// SupportVectors returns the total number of support vectors across every
// retained snapshot — the size of the boundary description Assign draws on.
func (m *Model) SupportVectors() int {
	n := 0
	for i := range m.art.Entries {
		if s := m.art.Entries[i].Snap; s != nil {
			n += s.SVCount()
		}
	}
	return n
}

// DegradedClusters returns the sorted ids of clusters that hit the exact
// range-query expansion fallback during training (see Stats.Degraded): their
// boundaries are either best-effort or absent, so Assign decisions near them
// lean on the nearest-cluster fallback.
func (m *Model) DegradedClusters() []int32 {
	seen := make(map[int32]bool)
	var ids []int32
	for i := range m.art.Entries {
		e := &m.art.Entries[i]
		if e.Degraded && !seen[e.Cluster] {
			seen[e.Cluster] = true
			ids = append(ids, e.Cluster)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// snapshots gathers the non-nil snapshots, the warm-restart source format
// core.Options.WarmModels consumes.
func (m *Model) snapshots() []*svdd.Snapshot {
	var snaps []*svdd.Snapshot
	for i := range m.art.Entries {
		if s := m.art.Entries[i].Snap; s != nil {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// Save streams the model to w in the versioned binary model format. The
// encoding is canonical: saving a loaded model reproduces the original
// bytes exactly.
func (m *Model) Save(w io.Writer) error {
	if m == nil || m.art == nil {
		return fmt.Errorf("dbsvec: nil model")
	}
	return data.WriteModel(w, m.art)
}

// LoadModel reads a clustering model saved with Model.Save. Malformed input
// is rejected with an error wrapping ErrMalformed; a one-class artifact is
// rejected too (use LoadOneClass).
func LoadModel(r io.Reader) (*Model, error) {
	art, err := data.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if art.Kind != data.ModelKindClustering {
		return nil, fmt.Errorf("%w: artifact is not a clustering model (kind %d)", ErrMalformed, art.Kind)
	}
	return &Model{art: art}, nil
}

// assignPlan is the flattened evaluation state Assign builds once per Model:
// all support vectors concatenated into one matrix, entry by entry, plus a
// bounding ball and a score cut per entry, so a query point pays distances
// and exp() only for the snapshots that could decide its label.
//
// An entry can decide a label two ways: its score bias − 2Σαᵢ·exp(−d²γ) is
// ≤ 0 (the point is inside its boundary), or one of its SVs is the nearest
// SV and lies within ε (the fallback). Both need some SV close to the point:
// a score ≤ 0 needs an SV at d² ≤ cut (see scoreCut), and the fallback one
// at d ≤ ε. The triangle inequality bounds every SV's distance below by
// ‖q−c‖ − radius, so an entry whose centroid is farther than
// radius + max(ε, √cut) cannot decide the label and is skipped whole; an
// entry whose SVs all lie beyond √cut skips its exp() sum. Each bound
// carries assignSlack, so the skipped work would have scored > 0 and found
// no SV within ε under the evaluated arithmetic too: labels are bit
// identical to scoring every entry.
type assignPlan struct {
	svs       dist.Matrix // every SV of every snapshot, row-major
	alpha     []float64   // multiplier per SV row
	cluster   []int32     // owning final cluster id per SV row
	centroids dist.Matrix // one row per entry: the mean of its SVs
	entries   []planEntry
	eps2      float64
	maxSVs    int // the largest entry's SV count: the per-range scratch size
}

// planEntry is one snapshot's slice of the plan.
type planEntry struct {
	lo, hi   int     // SV row range [lo, hi)
	gamma    float64 // 1 / (2σ²)
	bias     float64 // 1 + αᵀKα − R²: Eval(x) = bias − 2Σᵢ αᵢ·exp(−‖x−xᵢ‖²·γ)
	cut      float64 // every SV at d² > cut ⇒ score > 0 (+Inf: never)
	far2     float64 // centroid d² beyond which the entry cannot decide Assign
	nearFar2 float64 // the same for AssignNearestContext: ε alone
	cluster  int32
}

// assignSlack is the relative margin on every pruning bound: radii and
// thresholds are widened by it, and the score cut leaves a margin of it
// against the score's own rounding. A d-dimensional squared distance is off
// by at most ~(d+2)·1.1e-16 of itself and a k-term exp() sum by ~k·1.1e-16
// of Σ|αᵢ|, so the margin is ~1e4 times either for d and k up to 10⁵:
// pruning never rests on the last bits, and entries inside the margin are
// simply evaluated.
const assignSlack = 1e-6

// centroidBlock is how many entry centroids one batched distance call
// covers; the block lives on the stack, so scoring a point allocates
// nothing.
const centroidBlock = 64

func (m *Model) assignPlan() *assignPlan {
	m.planOnce.Do(func() {
		dim := m.art.Dim
		p := &assignPlan{
			svs:       dist.Matrix{Dim: dim},
			centroids: dist.Matrix{Dim: dim},
			eps2:      m.art.Eps * m.art.Eps,
		}
		for i := range m.art.Entries {
			e := &m.art.Entries[i]
			s := e.Snap
			if s == nil {
				continue
			}
			lo := len(p.alpha)
			p.svs.Coords = append(p.svs.Coords, s.Coords...)
			p.alpha = append(p.alpha, s.Alpha...)
			for range s.IDs {
				p.cluster = append(p.cluster, e.Cluster)
			}
			pe := planEntry{
				lo:      lo,
				hi:      len(p.alpha),
				gamma:   1 / (2 * s.Sigma * s.Sigma),
				bias:    1 + s.AlphaDot - s.R2,
				cluster: e.Cluster,
			}
			p.maxSVs = max(p.maxSVs, pe.hi-pe.lo)
			svs := dist.Matrix{Coords: s.Coords, Dim: dim}
			c := centroid(svs)
			p.centroids.Coords = append(p.centroids.Coords, c...)
			radius := ballRadius(svs, c)
			pe.cut = scoreCut(s.Alpha, pe.gamma, pe.bias)
			pe.far2 = sq((radius + math.Max(m.art.Eps, math.Sqrt(pe.cut))) * (1 + assignSlack))
			pe.nearFar2 = sq((radius + m.art.Eps) * (1 + assignSlack))
			p.entries = append(p.entries, pe)
		}
		m.plan = p
	})
	return m.plan
}

func sq(x float64) float64 { return x * x }

// centroid returns the mean of the rows of svs. Any point would do as a
// ball center; the mean keeps the radius small.
func centroid(svs dist.Matrix) []float64 {
	c := make([]float64, svs.Dim)
	for i := 0; i < svs.Len(); i++ {
		for j, v := range svs.Row(i) {
			c[j] += v
		}
	}
	for j := range c {
		c[j] /= float64(svs.Len())
	}
	return c
}

// ballRadius returns a radius r ≥ max‖xᵢ − c‖ over the rows of svs, widened
// by assignSlack past the rounding of its own computation. Coordinates
// large enough to overflow the centroid's sum leave it non-finite; every
// centroid distance is then NaN or +Inf and never prunes.
func ballRadius(svs dist.Matrix, c []float64) float64 {
	d2 := make([]float64, svs.Len())
	dist.SqDistsToAll(svs, c, d2)
	var maxSq float64
	for _, v := range d2 {
		if v > maxSq {
			maxSq = v
		}
	}
	return math.Sqrt(maxSq) * (1 + assignSlack)
}

// scoreCut returns T such that a point whose every SV lies at computed
// d² > T scores > 0 on this entry, so it cannot be inside the boundary.
// With A = Σ max(αᵢ, 0), the score is ≥ bias − 2A·exp(−γ·min d²), and that
// is > 0 once min d² > ln(2A/bias)/γ. The bias is first reduced by
// assignSlack of itself and of 2Σ|αᵢ|, a margin that dwarfs the rounding of
// the exp() sum, so the computed score is > 0 as well. T is 0 when 2A is
// below the reduced bias, and +Inf (never skip) when that bias is ≤ 0 or
// the cut is not a number.
func scoreCut(alpha []float64, gamma, bias float64) float64 {
	var pos, abs float64
	for _, a := range alpha {
		if a > 0 {
			pos += a
		}
		abs += math.Abs(a)
	}
	margin := bias*(1-assignSlack) - 2*assignSlack*abs
	if !(margin > 0) {
		return math.Inf(1)
	}
	t := math.Log(2*pos/margin) / gamma
	if math.IsNaN(t) {
		return math.Inf(1)
	}
	return math.Max(t, 0)
}

// CheckAssignable validates up front that the points of d can be classified
// by this model: the model must be non-nil and the dimensionalities must
// match. Every rejection wraps ErrInvalidParams, so callers (the CLI, the
// serving daemon) can classify the failure before any assignment work runs
// instead of discovering it mid-batch.
func (m *Model) CheckAssignable(d *Dataset) error {
	if m == nil || m.art == nil {
		return fmt.Errorf("%w: nil model", core.ErrInvalidParams)
	}
	if d == nil {
		return core.ErrNilDataset
	}
	if d.Dim() != m.art.Dim && d.Len() > 0 {
		return fmt.Errorf("%w: cannot assign %d-dimensional points with a %d-dimensional model", core.ErrInvalidParams, d.Dim(), m.art.Dim)
	}
	return nil
}

// Assign classifies each point of d against the retained boundaries and
// returns one label per point: the cluster whose SVDD boundary contains the
// point (the most-interior boundary wins when several do; ties break to the
// lower cluster id), else — nearest-cluster fallback — the cluster of the
// nearest retained support vector when that vector lies within ε, else
// Noise.
//
// A point pays distances and exp() only for the snapshots that could
// decide its label. A snapshot whose bounding ball of support vectors lies
// farther from the point than both ε and the distance at which its score
// provably stays positive is skipped whole; one whose support vectors all
// lie beyond that distance skips its exp() sum. The labels are bit
// identical to scoring every snapshot (see assignPlan).
//
// The batch fans across workers goroutines (0 selects all CPUs, 1 runs
// sequentially) with deterministic range partitioning and per-point
// independent work, so the labels are bit-identical for every worker count.
func (m *Model) Assign(d *Dataset, workers int) ([]int32, error) {
	return m.AssignContext(context.Background(), d, workers)
}

// assignCtxMask is the per-worker cancellation poll interval of the assign
// fan-out: ctx.Err() is checked every assignCtxMask+1 points, so a deadline
// or cancel aborts a batch within a bounded slice of work instead of after
// it. Must be a power of two minus one.
const assignCtxMask = 63

// AssignContext is Assign with cancellation: when ctx is cancelled or its
// deadline fires mid-batch, every worker stops within its next poll window
// (64 points), the fan-out drains, and ctx's error is returned with nil
// labels. No goroutines outlive the call.
func (m *Model) AssignContext(ctx context.Context, d *Dataset, workers int) ([]int32, error) {
	labels, _, err := m.assignContext(ctx, d, workers, false)
	return labels, err
}

// AssignNearestContext is the degraded assignment path: each point gets the
// cluster of its nearest retained support vector when that vector lies
// within ε, Noise otherwise — the fallback half of Assign alone, skipping
// every SVDD boundary evaluation. No exp() work remains, and only the
// snapshots whose bounding ball reaches within ε of the point get a
// distance pass; this is what the serving daemon sheds under sustained
// overload. Labels agree with Assign everywhere Assign itself falls back;
// points inside a boundary may differ.
func (m *Model) AssignNearestContext(ctx context.Context, d *Dataset, workers int) ([]int32, error) {
	labels, _, err := m.assignContext(ctx, d, workers, true)
	return labels, err
}

// assignContext runs the assign fan-out. Next to the labels it returns how
// many (point, entry) pairs got a distance pass: the work the pruning left,
// a deterministic function of the model and the points.
func (m *Model) assignContext(ctx context.Context, d *Dataset, workers int, nearest bool) ([]int32, int64, error) {
	if err := m.CheckAssignable(d); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	plan := m.assignPlan()
	labels := make([]int32, d.Len())
	mat := d.ds.Matrix()
	var stop atomic.Bool
	var scored atomic.Int64
	engine.ForRanges(engine.ResolveWorkers(workers), d.Len(), nil, func(lo, hi int) {
		fault.PanicNow(fault.AssignPanic)
		d2 := make([]float64, plan.maxSVs)
		n := 0
		for i := lo; i < hi; i++ {
			if (i-lo)&assignCtxMask == 0 && (stop.Load() || ctx.Err() != nil) {
				stop.Store(true)
				return
			}
			var k int
			labels[i], k = plan.score(mat.Row(i), d2, nearest)
			n += k
		}
		scored.Add(int64(n))
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return labels, scored.Load(), nil
}

// score labels one point and returns how many entries got a distance pass.
// d2 is the caller's scratch, at least maxSVs long. With nearest set it is
// the degraded path: the nearest-SV fallback alone, no boundary evaluation,
// and entries are pruned on ε alone.
//
// Entries are visited in plan order, each SV's d² is bit for bit what one
// pass over all SVs would give (rows are independent), and every score
// that is computed is the full sum in SV order. So the lowest score, its
// cluster-id tiebreak and the first nearest SV come out as if every entry
// had been scored: a skipped entry scores > 0 and has no SV within ε (see
// assignPlan), and no distance is NaN, since queries and SVs are finite.
func (p *assignPlan) score(q, d2 []float64, nearest bool) (label int32, scored int) {
	dim := p.svs.Dim
	best := math.Inf(1)
	bestCluster := cluster.Noise
	ni, nd := -1, math.Inf(1)
	var cd [centroidBlock]float64
	for b := 0; b < len(p.entries); b += centroidBlock {
		block := p.entries[b:min(b+centroidBlock, len(p.entries))]
		dist.SqDistsToAll(dist.Matrix{Coords: p.centroids.Coords[b*dim : (b+len(block))*dim], Dim: dim}, q, cd[:len(block)])
		for k := range block {
			e := &block[k]
			limit := e.far2
			if nearest {
				limit = e.nearFar2
			}
			if cd[k] > limit {
				continue
			}
			scored++
			rows := d2[:e.hi-e.lo]
			dist.SqDistsToAll(dist.Matrix{Coords: p.svs.Coords[e.lo*dim : e.hi*dim], Dim: dim}, q, rows)
			mn := math.Inf(1)
			for j, v := range rows {
				if v < nd {
					ni, nd = e.lo+j, v
				}
				if v < mn {
					mn = v
				}
			}
			if nearest || mn > e.cut {
				continue
			}
			var s float64
			for j, a := range p.alpha[e.lo:e.hi] {
				s += a * math.Exp(-rows[j]*e.gamma)
			}
			score := e.bias - 2*s
			if score < best || (score == best && e.cluster < bestCluster) {
				best = score
				bestCluster = e.cluster
			}
		}
	}
	if best <= 0 {
		return bestCluster, scored
	}
	if ni >= 0 && nd <= p.eps2 {
		return p.cluster[ni], scored
	}
	return cluster.Noise, scored
}
