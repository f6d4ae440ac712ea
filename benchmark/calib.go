package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// This sandbox's processors change speed under the benchmark. Other tenants
// of the host slow every kind of code by up to 2x, each virtual processor on
// its own, in phases that last from a second to minutes, and a run of the
// same tree reads 20-40 % apart depending on the phases it lands in: more
// than any bound the benchmark could fix. No statistic inside one run removes
// a phase that outlasts the run, so the benchmark measures it instead. On
// every processor a sampler thread pinned to it executes a small fixed piece
// of work every calibEvery and times it in thread processor time (unaffected
// by the workload taking the core away, but stretched by whatever slows the
// core). A phase's stretch is the mean of the samples taken *while that phase
// ran* over a reference; a timing measured in the phase is divided by it and
// a rate multiplied, so a metric reads as it would at the reference speed.
// The raw values and the stretches are printed beside the normalized ones.
//
// Two things make the correction hold, both measured on four-minute traces
// of each workload cut into 20 s runs (README, "Normalization"). The samples
// must come from exactly the seconds the metric was measured in: a stretch
// averaged over set-up, checks and all, applied to a few seconds of windows,
// left ops_per_s 21-25 % apart where the matched one leaves 5-10 %. And the
// statistic must be a plain mean over every processor: throughput is an
// average over the host's phases, so only the average stretch corrects it,
// and the two processors slow independently of each other.
//
// The fixed work is branchy, allocating library code (JSON both ways, map
// updates, a sort) because that is what slows in step with the workloads: a
// dependent arithmetic chain or a pointer chase through memory tracked them
// poorly.

const (
	calibEvery = 25 * time.Millisecond
	// calibRefNs is the kernel's processor time in this sandbox's fast
	// phase. Only ratios between runs matter; the constant keeps normalized
	// values close to raw ones on a quiet host.
	calibRefNs  = 0.8e6
	calibRounds = 75
)

// calibSink keeps the kernel's result alive.
var calibSink uint64

// calibDoc is the record the kernel encodes and decodes.
type calibDoc struct {
	ID    string            `json:"id"`
	Ops   []calibOp         `json:"ops"`
	Attrs map[string]string `json:"attrs"`
	Score float64           `json:"score"`
}

type calibOp struct {
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	Delta int64  `json:"delta"`
}

// calibKernel is the fixed work.
func calibKernel() uint64 {
	var acc uint64
	counts := make(map[string]int)
	for r := 0; r < calibRounds; r++ {
		doc := calibDoc{
			ID:    "txn-" + strconv.Itoa(r),
			Ops:   []calibOp{{"add", keyName("k-", r%997), 1}, {"set", keyName("p-", r%13), int64(r)}},
			Attrs: map[string]string{"region": "us-west", "mode": "fast"},
			Score: float64(r) * 0.25,
		}
		b, err := json.Marshal(doc)
		if err != nil {
			continue
		}
		var back calibDoc
		if json.Unmarshal(b, &back) == nil {
			counts[back.Ops[0].Key]++
			acc += uint64(len(b))
		}
		nums := make([]int, 64)
		for i := range nums {
			nums[i] = (r*31 + i*17) % 101
		}
		sort.Ints(nums)
		acc += uint64(nums[32])
	}
	return acc + uint64(len(counts))
}

// threadCPU returns the calling thread's processor time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// phase is a stretch of wall time a metric was measured in.
type phase struct{ from, to time.Time }

// calSample is one timing of the fixed work.
type calSample struct {
	at time.Time
	ns float64 // thread processor time
}

// calibrator samples the processors' speed in the background.
type calibrator struct {
	stop chan struct{}
	done sync.WaitGroup

	mu      sync.Mutex
	samples []calSample
}

// pinThread binds the calling thread to one processor; it reports whether
// the kernel allowed it.
func pinThread(cpu int) bool {
	var mask [16]uint64
	if cpu >= 64*len(mask) {
		return false
	}
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	return errno == 0
}

// startCalibrator begins sampling, one sampler per processor; finish stops
// them.
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{})}
	n := runtime.NumCPU()
	for cpu := 0; cpu < n; cpu++ {
		c.done.Add(1)
		go c.sample(cpu, n)
	}
	return c
}

func (c *calibrator) sample(cpu, ncpu int) {
	defer c.done.Done()
	// Thread processor time is only meaningful if the goroutine stays on
	// one thread for the whole kernel. The thread is not unlocked: a pinned
	// thread must die with the goroutine, not go back to the scheduler.
	runtime.LockOSThread()
	pinThread(cpu) // unpinned samplers still sample; they just wander
	// Samplers take turns inside the period.
	select {
	case <-c.stop:
		return
	case <-time.After(calibEvery * time.Duration(cpu) / time.Duration(ncpu)):
	}
	t := time.NewTicker(calibEvery)
	defer t.Stop()
	for {
		c0 := threadCPU()
		atomic.AddUint64(&calibSink, calibKernel())
		s := calSample{at: time.Now(), ns: float64(threadCPU() - c0)}
		c.mu.Lock()
		c.samples = append(c.samples, s)
		c.mu.Unlock()
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops sampling.
func (c *calibrator) finish() {
	close(c.stop)
	c.done.Wait()
}

// stretch returns how many times longer than the reference the fixed work
// took during the given phases (1 on a quiet host at reference speed) and the
// number of samples behind it. Phases too short to hold a sample fall back to
// the whole run.
func (c *calibrator) stretch(phases []phase) (float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range c.samples {
		for _, p := range phases {
			if !s.at.Before(p.from) && !s.at.After(p.to) {
				sum += s.ns
				n++
				break
			}
		}
	}
	if n == 0 {
		for _, s := range c.samples {
			sum += s.ns
		}
		n = len(c.samples)
	}
	if n == 0 || sum == 0 {
		return 1, 0
	}
	return sum / float64(n) / calibRefNs, n
}
