package bench

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, and how fast the
// host runs drifts by a fifth or more over minutes: on a 2-vCPU VM the
// same search took 1.25 s in one minute and 2.0 s a few minutes later,
// in CPU time as well as wall time, so it is the cores that slow down,
// not the scheduler that withholds them. A drift that outlasts a run
// cannot be averaged away inside the run.
//
// So every run also times a fixed reference kernel, interleaved with
// the operations it measures, and reports the gated time figures in
// units of the kernel's time around each operation (see refTimer).
// On that VM this cut the spread of per-run search times across
// seeds to between a third and a half. The kernel is the benchmark's
// own code and never calls the program, so a change to the program
// moves the ratio exactly as it moves the operation's time, while a
// slower host slows both. The raw wall figures and the kernel's time
// are reported beside them (wall.*, host.ref_ms).

// refWorkers is the kernel's goroutine count: the searches run with
// Parallelism 2, and the daemon and the load generator keep two cores
// busy.
const refWorkers = 2

// refSink keeps the kernel's result alive so the compiler cannot drop
// the work.
var refSink uint64

// Reference runs the reference kernel once, from a collected heap, and
// returns its wall time. Each worker fills 16 MiB with a mixing
// function, gathers from it at random, counts into a map and sorts a
// quarter of it: streaming and random memory traffic, hashing,
// allocation and branchy compares, the kinds of work the searches and
// the daemon do.
func Reference() time.Duration {
	runtime.GC()
	start := time.Now()
	var (
		wg  sync.WaitGroup
		out [refWorkers]uint64
	)
	for w := range refWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = refPart(uint64(w) + 1)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, v := range out {
		refSink += v
	}
	return d
}

func refPart(seed uint64) uint64 {
	const n = 1 << 21
	buf := make([]uint64, n)
	x := seed
	for i := range buf {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		buf[i] = z ^ (z >> 31)
	}
	var sum uint64
	h := seed
	for range n {
		h = h*6364136223846793005 + 1442695040888963407
		sum += buf[(h>>20)&(n-1)]
	}
	counts := make(map[uint64]uint32, 1<<15)
	for i := range 1 << 17 {
		counts[buf[i]&0xffff] += uint32(i)
	}
	for _, v := range counts {
		sum += uint64(v)
	}
	part := slices.Clone(buf[:n/4])
	slices.Sort(part)
	return sum + part[len(part)/2]
}
