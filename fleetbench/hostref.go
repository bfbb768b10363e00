package main

import (
	"crypto/sha256"
	"hash/crc32"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark shares a host whose speed drifts while it runs: other
// tenants take the virtual cores for a while (steal) or share their caches
// and memory bandwidth, so the same code reads a quarter faster or slower
// a few minutes later. To keep figures comparable across runs, a timed
// phase runs in rounds and, before the first round and after each one,
// times a reference job: fixed work in this file, which no change to the
// program touches, shaped like the fleet's own (checksums, hashing and
// copies over tile-sized and store-sized buffers, sorting, number
// parsing) and run on as many cores as the load keeps busy. It allocates
// nothing, so the program's heap and collector do not move it. A round's
// times are divided by the host's slowdown over that round: the mean of
// the two calibrations around it over the job's time on the reference
// host. A change to the program moves the scaled figures as it moves the
// raw ones; a change in the host moves the program and the reference
// alike.

const (
	// calibrateEvery is the length of a round: a timed phase samples the
	// reference job before its first round and after each one.
	calibrateEvery = 2 * time.Second
	// refSamples is how many reference jobs one calibration times.
	refSamples = 5
	// refRepeats sizes one core's share of a reference job.
	refRepeats = 20
	// refNominalCPUMS is one core's share of a reference job in thread
	// CPU time on the two-core reference host (README.md).
	refNominalCPUMS = 18.0
)

// refNominalWallMS is a reference job's wall time on the reference host,
// on one core and on two.
var refNominalWallMS = [2]float64{18.5, 21.0}

// refInput is the reference job's fixed input: a store-sized buffer to
// copy, a tile-sized part of it to checksum and hash, integers to sort and
// decimal numbers to parse, like a manifest's.
var refInput = func() (in struct {
	buf  []byte
	ints []int
	nums []string
}) {
	in.buf = offHeap(8 << 20)
	x := uint32(1)
	for i := range in.buf {
		x = x*1664525 + 1013904223
		in.buf[i] = byte(x >> 24)
	}
	in.ints = make([]int, 4096)
	for i := range in.ints {
		x = x*1664525 + 1013904223
		in.ints[i] = int(x >> 8)
	}
	in.nums = make([]string, 2048)
	for i := range in.nums {
		x = x*1664525 + 1013904223
		in.nums[i] = strconv.FormatFloat(float64(x)/977, 'g', -1, 64)
	}
	return in
}()

// offHeap returns n zeroed bytes mapped outside the Go heap, so that the
// reference job's buffers do not count in the live-heap figure.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return b
}

// refScratch is one core's working memory for the reference job, made
// once so that the job allocates nothing: the program's heap and
// collector must not change the reference's time.
type refScratch struct {
	buf  []byte
	ints []int
}

var (
	refMu        sync.Mutex
	refScratches []*refScratch
	refSink      uint64 // keeps the job's results observable
)

// refWork is one core's share of a reference job.
func refWork(sc *refScratch) uint64 {
	var sum uint64
	for r := 0; r < refRepeats; r++ {
		sum += uint64(crc32.ChecksumIEEE(refInput.buf[:256<<10]))
		h := sha256.Sum256(refInput.buf[:32<<10])
		sum += uint64(h[0])
		if r%4 == 0 {
			copy(sc.buf, refInput.buf)
			sum += uint64(sc.buf[r])
		}
		copy(sc.ints, refInput.ints)
		sort.Ints(sc.ints)
		sum += uint64(sc.ints[r])
		for _, n := range refInput.nums {
			f, _ := strconv.ParseFloat(n, 64)
			sum += uint64(f)
		}
	}
	return sum
}

// rusageThread is Linux's RUSAGE_THREAD: getrusage for the calling thread.
const rusageThread = 1

// threadCPU is the calling thread's user plus system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refJob runs refWork on n cores at once, each share on its own locked
// thread, and returns the mean CPU time a share took on its thread. Thread
// CPU time leaves out the runtime's idle spinning and the time other
// tenants hold the core, so it moves only with the speed of the core.
func refJob(n int) time.Duration {
	refMu.Lock()
	defer refMu.Unlock()
	for len(refScratches) < n {
		refScratches = append(refScratches, &refScratch{
			buf: offHeap(len(refInput.buf)), ints: make([]int, len(refInput.ints)),
		})
	}
	cpu := make([]time.Duration, n)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	for i := range cpu {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c := threadCPU()
			sums[i] = refWork(refScratches[i])
			cpu[i] = threadCPU() - c
		}()
	}
	wg.Wait()
	var total time.Duration
	for i, c := range cpu {
		total += c
		refSink += sums[i]
	}
	return total / time.Duration(n)
}

// calibration is the median reference job of one calibration.
type calibration struct{ wallMS, cpuMS float64 }

// hostRef collects the calibrations of one phase and what taking them
// cost, so the phase can leave that cost out. Its reference jobs run on
// as many cores as the phase's load keeps busy: a job on two cores slows
// when either is taken, a load on one core may not.
type hostRef struct {
	threads  int // cores the reference job runs on
	cals     []calibration
	spent    time.Duration
	spentCPU time.Duration
	rt       runtimeSample
}

// sample times refSamples reference jobs and records their median.
func (h *hostRef) sample() {
	t0, c0, r0 := time.Now(), cpuTime(), readRuntime()
	var wall, cpu []float64
	for i := 0; i < refSamples; i++ {
		s := time.Now()
		c := refJob(h.threads)
		wall = append(wall, ms(time.Since(s)))
		cpu = append(cpu, ms(c))
	}
	h.cals = append(h.cals, calibration{wallMS: quantile(wall, 0.5), cpuMS: quantile(cpu, 0.5)})
	h.spent += time.Since(t0)
	h.spentCPU += cpuTime() - c0
	r1 := readRuntime()
	h.rt.allocBytes += r1.allocBytes - r0.allocBytes
	h.rt.allocObjects += r1.allocObjects - r0.allocObjects
	h.rt.gcCPU += r1.gcCPU - r0.gcCPU
	h.rt.totalCPU += r1.totalCPU - r0.totalCPU
}

// between returns how much slower than the reference host the host was
// from calibration i to calibration i+1, in wall time and in CPU time:
// the mean of the two calibrations over the nominal reference job.
func (h *hostRef) between(i int) (wall, cpu float64) {
	a, b := h.cals[i], h.cals[i+1]
	return (a.wallMS + b.wallMS) / 2 / refNominalWallMS[min(h.threads, 2)-1], (a.cpuMS + b.cpuMS) / 2 / refNominalCPUMS
}
