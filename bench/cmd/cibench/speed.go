package main

import (
	"encoding/json"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// The host's own speed drifts: on the reference machine, a VM whose host
// runs other tenants, the same CPU work takes up to 1.8x longer for tens
// of seconds at a time, and JSON scanning, integer arithmetic and map
// updates slow down together (correlation 0.94-0.98 over 10 s windows).
// A run therefore times a fixed kernel, which uses the standard library
// only so that no change to the program under test moves it, whenever
// the benchmark is quiet: around set-up, and every second between the
// stretches of each loaded phase. Every time is reported in
// reference-host units: the raw time divided by how much slower than the
// reference the kernel ran around the stretch it was measured in. The
// kernel cannot run beside the load: on two vCPUs the load's own use of
// the other CPU slows it by about 1.5x, and that share would shrink
// whenever a change made the server cheaper.
const (
	// speedProbe is how long one reading runs the kernel.
	speedProbe = 50 * time.Millisecond
	// stretchLen is about how long a loaded phase runs between two
	// readings: the host's speed moves within a second.
	stretchLen = time.Second
	// speedRefNs defines the reference host: one kernel call's median
	// thread CPU time with every CPU running the kernel. It is about the
	// fastest reading of the reference machine (2-vCPU Xeon VM at 2.0 GHz,
	// Go 1.24): the 1st percentile of 930 readings; the median was 92 us.
	speedRefNs = 70_000
)

// speedInput is the kernel's fixed input: a commit-like body of a model
// name and 5,000 class predictions. The kernel validates it with
// encoding/json's scanner: byte-at-a-time, branchy work like the JSON
// decoding that dominates a served commit, but allocation-free, so no
// garbage-collector assist is charged to it.
var speedInput = func() []byte {
	b := []byte(`{"model":"speed","predictions":[`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i*7919%4), 10)
	}
	return append(b, "]}"...)
}()

// hostSlowdown runs the kernel back to back for speedProbe on every CPU
// at once and returns the mean over CPUs of the median call time, over
// speedRefNs: how many times slower than the reference host the machine
// runs right now. Busy together, the CPUs slow each other as they do
// under load: on the reference machine a one-CPU reading tracked the
// load's speed with correlation 0.37, an all-CPU one with 0.77. Calls
// are timed by their thread's CPU clock, so a moment a thread waits for
// a CPU does not count. The caller makes sure no request is in flight,
// and the garbage collector, whose mark workers would share the CPUs
// with the kernel, is held off for the reading.
func hostSlowdown() float64 {
	old := debug.SetGCPercent(-1) // returns once a collection in flight has finished
	defer debug.SetGCPercent(old)
	cpus := runtime.GOMAXPROCS(0)
	medians := make([]float64, cpus)
	var wg sync.WaitGroup
	for i := range medians {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread() // the thread CPU clock must keep reading one thread
			defer runtime.UnlockOSThread()
			var ns []float64
			for end := time.Now().Add(speedProbe); time.Now().Before(end); {
				start := threadCPU()
				if !json.Valid(speedInput) {
					panic("speed kernel: invalid input") // the input is a constant
				}
				ns = append(ns, float64(threadCPU()-start))
			}
			medians[i] = quantile(ns, 0.5)
		}(i)
	}
	wg.Wait()
	return mean(medians) / speedRefNs
}

// stretches runs a loaded phase of length dur as stretches of about
// stretchLen, run(from, d) being the stretch that starts at offset from
// and lasts d, with a hostSlowdown reading after each. before is the
// reading just before the phase. It returns each stretch's slowdown, the
// mean of the readings at its two ends, and the last reading.
func stretches(dur time.Duration, before float64, run func(from, d time.Duration)) ([]float64, float64) {
	n := max(1, int(math.Round(float64(dur)/float64(stretchLen))))
	d := dur / time.Duration(n)
	var slow []float64
	for k := 0; k < n; k++ {
		run(time.Duration(k)*d, d)
		after := hostSlowdown()
		slow = append(slow, (before+after)/2)
		before = after
	}
	return slow, before
}
