package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dbsvec/internal/data"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/vec"
)

// spreaderLabelsSHA256 is the SHA-256 of the little-endian int32 labels of
// the SeedSpreader fixture below, recorded when every SVDD kernel matrix up
// to 1024 targets was still filled densely with Workers > 1 and lazily with
// one worker. Storage strategy never changes a kernel entry, so the labels
// must not move.
const spreaderLabelsSHA256 = "29ec4bd963ad99f3aeb071c0fde30dde423562d3359f504297ad2b6345dee7b5"

// TestSpreaderLabelsAndKernelWorkPinned runs the paper's SeedSpreader
// workload at test scale (n = 20k, d = 8) and pins, for every worker count,
// the labels and deterministic counters recorded before the kernel row
// cache, and a kernel-entry count identical across worker counts.
func TestSpreaderLabelsAndKernelWorkPinned(t *testing.T) {
	ds := data.SeedSpreader{N: 20000, D: 8, Seed: 1}.Generate()
	f32 := vec.DefaultPrecision() == vec.F32
	var entries int64
	for _, workers := range []int{1, 2, 8} {
		res, st, err := Run(ds, Options{Eps: 2000, MinPts: 100, Seed: 1, Workers: workers, IndexBuilder: kdtree.Build})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			entries = st.SVDD.KernelEntries
			if entries <= 0 {
				t.Fatalf("no kernel entries counted over %d trainings", st.SVDDTrainings)
			}
		} else if st.SVDD.KernelEntries != entries {
			t.Errorf("workers=%d: %d kernel entries, workers=1 counted %d", workers, st.SVDD.KernelEntries, entries)
		}
		if f32 {
			// The pinned values are float64 geometry; a quantized dataset
			// legitimately clusters differently.
			continue
		}
		h := sha256.New()
		if err := binary.Write(h, binary.LittleEndian, res.Labels); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != spreaderLabelsSHA256 {
			t.Errorf("workers=%d: labels SHA-256 %s, want %s", workers, got, spreaderLabelsSHA256)
		}
		if st.SVDDTrainings != 214 || st.SVDDIterations != 18192 || st.SupportVectors != 4037 || st.RangeQueries != 4117 {
			t.Errorf("workers=%d: trainings/SMO iterations/SVs/range queries = %d/%d/%d/%d, want 214/18192/4037/4117",
				workers, st.SVDDTrainings, st.SVDDIterations, st.SupportVectors, st.RangeQueries)
		}
	}
}
