package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over minutes, far more than any bound a timing metric could
// usefully hold. Every end-to-end time is therefore reported at a
// reference host speed: the raw time scaled by calibRef over the median
// time the calibration kernel took in the same run. The kernel is the
// benchmark's own fixed code, so a change to the engine moves the
// reported times and a change in host speed moves both alike.
const (
	// calibRef is the kernel's time on the reference host: the 2-vCPU
	// Xeon VM the benchmark was written on, at the faster of the speeds
	// it was seen to run at.
	calibRef = 5 * time.Millisecond
	// calibShare is the calibration time spent next to each timed
	// stretch (a set-up or a pass), as a share of that stretch.
	calibShare = 0.1
)

// The kernel's two phases take about equal time. The small table stays
// in the reference host's 2 MiB L2 and tracks the core's own speed; the
// large one reaches into its shared L3 and memory, and tracks the cache
// and memory traffic of the host's other tenants, which slows the engine
// without slowing the first phase.
const (
	calibSmallWords = 1 << 16 // 512 KiB
	calibLargeWords = 1 << 22 // 32 MiB
	calibSmallOps   = 25 << 16
	calibLargeOps   = 1 << 18
)

// calibrator samples the calibration kernel. Each sample runs the kernel
// on as many goroutines at once as the workload has instances in flight,
// so it meets the same contention between them.
type calibrator struct {
	maps    [][]byte
	tables  [][]uint64 // views of maps: the small table, then the large one
	samples []float64  // seconds
	sink    uint64
}

// newCalibrator maps one pair of tables per worker outside the Go heap,
// so they do not count towards the live heap mem_peak_mb reports.
func newCalibrator(workers int) (*calibrator, error) {
	c := &calibrator{}
	for i := 0; i < workers; i++ {
		b, err := syscall.Mmap(-1, 0, (calibSmallWords+calibLargeWords)*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, err
		}
		c.maps = append(c.maps, b)
		t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calibSmallWords+calibLargeWords)
		// Fault every page in now, not in the first samples.
		for j := range t {
			t[j] = uint64(j)
		}
		c.tables = append(c.tables, t)
	}
	return c, nil
}

func (c *calibrator) close() {
	for _, b := range c.maps {
		syscall.Munmap(b)
	}
	c.maps, c.tables = nil, nil
}

// kernel runs both phases of random read-modify-write over one worker's
// tables; it allocates nothing.
func kernel(tables []uint64, seed uint64) uint64 {
	small, large := tables[:calibSmallWords], tables[calibSmallWords:]
	x := seed | 1
	for i := 0; i < calibSmallOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		small[(x>>20)&(calibSmallWords-1)] += x
	}
	for i := 0; i < calibLargeOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		large[(x>>20)&(calibLargeWords-1)] += x
	}
	return small[x&(calibSmallWords-1)] + large[x&(calibLargeWords-1)]
}

// sample runs the kernel once on every worker at once and records each
// worker's own time, the per-core speed an instance meets; it returns
// the wall of the whole sample.
func (c *calibrator) sample() time.Duration {
	var wg sync.WaitGroup
	out := make([]uint64, len(c.tables))
	took := make([]time.Duration, len(c.tables))
	t0 := time.Now()
	for i := range c.tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := time.Now()
			out[i] = kernel(c.tables[i], uint64(len(c.samples)+i))
			took[i] = time.Since(t)
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	for i, v := range out {
		c.sink += v
		c.samples = append(c.samples, took[i].Seconds())
	}
	return d
}

// block samples the kernel until the samples add up to at least d, and
// at least once.
func (c *calibrator) block(d time.Duration) {
	var spent time.Duration
	for spent == 0 || spent < d {
		spent += c.sample()
	}
}

// factor is the scale from raw to reference-host time: calibRef over the
// median sample.
func (c *calibrator) factor() float64 {
	return calibRef.Seconds() / median(c.samples)
}
