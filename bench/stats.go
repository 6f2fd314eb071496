package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// obs.Histogram quantiles are bucket edges (factor-2 resolution), so every
// percentile the benchmark reports is computed here from raw samples.

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile of xs by linear interpolation between
// the two nearest order statistics (q=0 is the minimum, q=1 the maximum).
// With thousands of samples that is the nearest rank; the median of the
// handful of ops an offline run times is the mean of the middle two.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// computed by -compare match the ones the benchmark's bounds were set
// from. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// growth is the last-quartile median over the first-quartile median of a
// time-ordered series: above 1 means the cost rose over the run's life.
func growth(xs []float64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return 0
	}
	first := median(xs[:q])
	if first == 0 {
		return 0
	}
	return median(xs[len(xs)-q:]) / first
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func mib(b uint64) float64       { return float64(b) / (1 << 20) }

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocs returns the cumulative heap allocation count. It stops the
// world, so callers keep it outside timed sections.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// liveHeap reads the bytes held by heap objects (live plus not yet swept).
func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// heapSampler polls liveHeap every 5 ms while a measured section runs and
// keeps the peak. runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := liveHeap(); v > hs.peak {
				hs.peak = v
			}
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// Stop ends sampling, waits for the sampler to exit and returns the peak.
func (hs *heapSampler) Stop() uint64 {
	close(hs.stop)
	<-hs.done
	return hs.peak
}
