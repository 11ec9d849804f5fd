package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: a p90 over 50 samples rests on 5 values and is refused.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples, or an error when fewer than minBeyond samples lie beyond
// it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (the mean of the two middle values for
// an even count) of a non-empty sample.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter measures the resources a timed phase uses: wall time, process
// CPU time, heap bytes allocated, and the peak of live heap objects,
// sampled every heapEvery by a goroutine that stop ends.
type meter struct {
	start    time.Time
	cpu0     time.Duration
	alloc0   uint64
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	peakHeap uint64

	stopc chan struct{}
	wg    sync.WaitGroup
}

const heapEvery = time.Millisecond

func startMeter() *meter {
	runtime.GC() // every phase starts from the same collected heap
	m := &meter{stopc: make(chan struct{})}
	m.wg.Add(1)
	go m.sampleHeap()
	m.start, m.cpu0, m.alloc0 = time.Now(), cpuTime(), allocBytes()
	return m
}

func (m *meter) sampleHeap() {
	defer m.wg.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(heapEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > m.peakHeap {
			m.peakHeap = v
		}
		select {
		case <-m.stopc:
			return
		case <-t.C:
		}
	}
}

func (m *meter) stop() {
	m.wall, m.cpu, m.alloc = time.Since(m.start), cpuTime()-m.cpu0, allocBytes()-m.alloc0
	close(m.stopc)
	m.wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
