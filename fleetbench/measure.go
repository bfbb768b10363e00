package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dragonfly/internal/obs"
)

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// histQuantile estimates the p-quantile of an obs histogram snapshot by
// linear interpolation inside the bucket that holds it. Buckets holds one
// count per bucket; the first bucket starts at 0 and the overflow bucket
// is reported at the last bound.
func histQuantile(h obs.HistogramSnapshot, p float64) float64 {
	var total int64
	for _, n := range h.Buckets {
		total += n
	}
	if total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := p * float64(total)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 || cum+float64(n) < target {
			cum += float64(n)
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(target-cum)/float64(n)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// geometricBounds returns histogram bounds from lo to hi growing by ratio,
// fine enough that the interpolated quantile moves with small shifts.
func geometricBounds(lo, hi, ratio float64) []float64 {
	var b []float64
	for v := lo; v <= hi; v *= ratio {
		b = append(b, v)
	}
	return b
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the runtime counters a phase reports as deltas.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// heapSampler records the largest post-GC live heap while it runs. A
// finalizer on a sentinel object runs after every collection that frees
// it; each run reads the live heap the collection just marked and arms a
// fresh sentinel for the next one.
type heapSampler struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

// gcSentinel is large enough to stay out of the tiny allocator, whose
// batched objects may never be finalized.
type gcSentinel struct{ _ [64]byte }

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.observe()
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		h.observe()
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

func (h *heapSampler) observe() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	h.stopped.Store(true)
	h.observe()
	return h.peak.Load()
}

// phase is what one measured phase observed, before it becomes metrics.
type phase struct {
	wall         time.Duration
	cpu          time.Duration
	sessionMS    []float64 // wall time of each successful session
	sessionRound []int     // the round each of sessionMS ran in
	attempted    int64
	failed       int64
	wrong        []string // output checks that failed; any makes the run incorrect

	videoSeconds float64 // seconds of video delivered, rendered or simulated
	payloadBytes int64   // verified tile payload bytes
	frames       int64   // wire frames read by the load generator
	heapPeak     uint64
	rt           runtimeSample // deltas over the phase

	// rounds are the phase's calibrated rounds (hostref.go); none when
	// the phase took no calibrations.
	rounds []round
	// paced is set when real time paces the load: its session times and
	// rates do not follow the host's speed, so only CPU is scaled.
	paced bool
}

// round is one calibrated stretch of a phase: its wall and CPU time and
// the host's slowdown over it.
type round struct {
	wall, cpu         time.Duration
	wallSlow, cpuSlow float64
}

// refWall and refCPU are the phase's wall and CPU time on the reference
// host: each round's time over the slowdown during it. Without rounds
// they are the raw times.
func (p *phase) refWall() time.Duration {
	if len(p.rounds) == 0 || p.paced {
		return p.wall
	}
	var t float64
	for _, r := range p.rounds {
		t += float64(r.wall) / r.wallSlow
	}
	return time.Duration(t)
}

func (p *phase) refCPU() time.Duration {
	if len(p.rounds) == 0 {
		return p.cpu
	}
	var t float64
	for _, r := range p.rounds {
		t += float64(r.cpu) / r.cpuSlow
	}
	return time.Duration(t)
}

// refQuantile returns the q-quantile of the session times on the
// reference host. With rounds it is the median over rounds of each
// round's quantile of its session times, each divided by the round's wall
// slowdown, so that a round a burst of steal hit moves it little. Without
// rounds, or when paced, it is the quantile of all session times.
func (p *phase) refQuantile(q float64) float64 {
	if len(p.rounds) == 0 || p.paced {
		return quantile(p.sessionMS, q)
	}
	return p.roundQuantile(p.sessionMS, p.sessionRound, q)
}

// roundQuantile is refQuantile over some of the phase's sessions: their
// times and the round each ran in.
func (p *phase) roundQuantile(sessionMS []float64, sessionRound []int, q float64) float64 {
	by := make([][]float64, len(p.rounds))
	for i, v := range sessionMS {
		r := sessionRound[i]
		by[r] = append(by[r], v/p.rounds[r].wallSlow)
	}
	var per []float64
	for _, xs := range by {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return quantile(per, 0.5)
}

// meter brackets a measured phase: it collects garbage first so earlier
// phases do not leak into the heap figure, then samples CPU, runtime
// counters and the live heap until done is called. Calibrations split the
// phase into rounds; the reference jobs they time are left out of the
// phase's wall, CPU and runtime figures.
type meter struct {
	start time.Time
	cpu0  time.Duration
	rt0   runtimeSample
	heap  *heapSampler

	ref        hostRef
	rounds     []round
	open       bool // a round started at the last calibration
	roundStart time.Time
	roundCPU   time.Duration
}

// startMeter starts a phase whose load keeps about cores cores busy.
func startMeter(cores int) *meter {
	runtime.GC()
	m := &meter{start: time.Now(), cpu0: cpuTime(), rt0: readRuntime(), heap: startHeapSampler()}
	m.ref.threads = max(1, min(cores, runtime.GOMAXPROCS(0)))
	return m
}

// calibrate ends the current round, if any, times the reference job while
// the phase's load is paused, and starts the next round.
func (m *meter) calibrate() {
	if m.open {
		m.rounds = append(m.rounds, round{wall: time.Since(m.roundStart), cpu: cpuTime() - m.roundCPU})
	}
	m.ref.sample()
	m.open, m.roundStart, m.roundCPU = true, time.Now(), cpuTime()
}

// round is the index of the current round. Workers read it while the
// goroutine that calibrates waits for them.
func (m *meter) round() int { return len(m.rounds) }

// done ends the phase. The round a final calibration started is empty and
// is dropped.
func (m *meter) done(p *phase) {
	p.wall = time.Since(m.start) - m.ref.spent
	p.cpu = cpuTime() - m.cpu0 - m.ref.spentCPU
	rt := readRuntime()
	p.rt = runtimeSample{
		allocBytes:   rt.allocBytes - m.rt0.allocBytes - m.ref.rt.allocBytes,
		allocObjects: rt.allocObjects - m.rt0.allocObjects - m.ref.rt.allocObjects,
		gcCPU:        rt.gcCPU - m.rt0.gcCPU - m.ref.rt.gcCPU,
		totalCPU:     rt.totalCPU - m.rt0.totalCPU - m.ref.rt.totalCPU,
	}
	p.heapPeak = m.heap.finish()
	for i := range m.rounds {
		m.rounds[i].wallSlow, m.rounds[i].cpuSlow = m.ref.between(i)
	}
	p.rounds = m.rounds
}

// tally is a goroutine-safe accumulator the closed-loop workers share.
type tally struct {
	mu sync.Mutex
	p  *phase
}

func (t *tally) add(f func(p *phase)) {
	t.mu.Lock()
	f(t.p)
	t.mu.Unlock()
}

// roundsOf is how many rounds of about every fit in dur; at least one.
func roundsOf(dur, every time.Duration) int {
	return max(1, int((dur+every/2)/every))
}

// closedLoop runs workers goroutines for the given number of rounds. In a
// round each worker calls session(worker, n) for its n-th session, at
// least once and until roundDur has passed since the round began; the
// round ends when every worker's session has returned, so a worker starts
// its next session only after the previous one returned. The meter
// calibrates before the first round and after each one.
func closedLoop(workers, rounds int, roundDur time.Duration, m *meter, session func(worker, n int)) {
	m.calibrate()
	next := make([]int, workers)
	for r := 0; r < rounds; r++ {
		deadline := time.Now().Add(roundDur)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for first := true; first || time.Now().Before(deadline); first = false {
					session(w, next[w])
					next[w]++
				}
			}(w)
		}
		wg.Wait()
		m.calibrate()
	}
}
