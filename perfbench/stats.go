package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample. A
// failed request's latency is +Inf, so a quantile that reaches into the
// failures is +Inf, never the NaN of 0*Inf or Inf-Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[hi] {
		return s[lo]
	}
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile the sample supports: the one with
// at least ten samples beyond it (p99 needs 1000 samples, p90 needs 100).
// Below 100 samples no percentile qualifies and the slowest sample is used.
func tailQuantile(n int) (q float64, label string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 100:
		return 0.90, "p90"
	default:
		return 1, "max"
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, user and system,
// summed over its threads. The benchmark gates CPU time, not wall time: on
// a shared host a guest's cores are taken away now and then, which
// stretches wall time, and a parallel call's wall time most of all, but
// not CPU time, which leaves out the time stolen. See README.md.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only EFAULT or EINVAL, a bug
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the runtime's live-heap metric from its own goroutine
// and keeps the peak. The metric is refreshed at the end of every GC cycle,
// so the peak is the largest heap a collection found live.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// startHeapSampler collects garbage first, so the peak starts from what
// the process holds going into the measured call, then polls every 2ms.
func startHeapSampler() *heapSampler {
	runtime.GC()
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, liveHeap(sample))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak live heap in MiB.
func (s *heapSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}
