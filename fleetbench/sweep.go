package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/popsim"
	"dragonfly/internal/sim"
	"dragonfly/internal/video"
)

const (
	// sweepChunks is the video and trace length every simulated session
	// plays.
	sweepChunks = 4
	// sweepPopulation is the population one popsim.Run sweeps; a run
	// repeats the sweep until its time is up. Large enough that the mean
	// session cost of two seeds' populations differs by well under the
	// benchmark's bound.
	sweepPopulation = 2000
)

// sweepVideo is the popsim fixture video the repository's own population
// benchmarks sweep (4×4 tiles, 4 one-second chunks), so the figures line
// up with BenchmarkPopulationSweep.
func sweepVideo() *video.Manifest {
	return video.Generate(video.GenParams{
		ID: "pop", Rows: 4, Cols: 4, NumChunks: sweepChunks,
		TargetQP42Mbps: 1, TargetQP22Mbps: 8, MotionLevel: 0.3, Seed: 9,
	})
}

// sweepEnv is the popsim-sweep system: the fixture video, the warmed
// tables and a seeded population model.
type sweepEnv struct {
	m     *video.Manifest
	model popsim.Model
}

func startSweep(seed int64) (*sweepEnv, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	m := sweepVideo()
	st.Generate = time.Since(t0)
	warmTables(m)
	model := popsim.DefaultModel(seed)
	model.Duration = time.Duration(sweepChunks) * time.Second
	if err := model.Validate(); err != nil {
		return nil, st, err
	}
	st.Total = time.Since(t0)
	return &sweepEnv{m: m, model: model}, st, nil
}

// sweepPhase repeats the seeded sweep for dur with Workers = the core
// count. Every sweep must fold exactly the population and produce the
// SummaryJSON digest of the first sweep, which it sets when *digest is
// still zero. Each sweep is a calibrated round (hostref.go) with its own
// registry, whose pop_session_ms histogram is created with fine bounds
// first, so the program's own per-session timer yields usable quantiles;
// the phase returns each sweep's session times.
func sweepPhase(e *sweepEnv, dur time.Duration, tr *tracer, digest *[32]byte) (*phase, []sweepTimes, int) {
	p := &phase{}
	sw := popsim.Sweep{
		Videos:   []*video.Manifest{e.m},
		Schemes:  []string{"dragonfly"},
		Sessions: sweepPopulation,
		Model:    e.model,
		Workers:  runtime.NumCPU(),
	}
	if tr != nil {
		// Same key as the registry's scheme, so the rollup and its digest
		// are the untraced sweep's.
		sw.Extra = map[string]sim.SchemeFactory{
			"dragonfly": func() player.Scheme { return schemeFor(core.NewDefault(), tr) },
		}
	}
	var times []sweepTimes
	var stateBins int
	mt := startMeter(sw.Workers)
	mt.calibrate()
	deadline := time.Now().Add(dur)
	for n := int64(0); time.Now().Before(deadline); n++ {
		reg := obs.NewRegistry()
		reg.Histogram("pop_session_ms", geometricBounds(0.01, 10000, 1.02)...)
		sw.Obs = reg
		sp := tr.begin("popsim.run", n, 0)
		rollup, st, err := popsim.Run(sw)
		tr.end(sp)
		mt.calibrate()
		h := reg.Snapshot().Histograms["pop_session_ms"]
		times = append(times, sweepTimes{p50: histQuantile(h, 0.5), p95: histQuantile(h, 0.95), sumMS: h.Sum, n: h.Count})
		p.attempted += sweepPopulation
		if err != nil {
			p.failed += sweepPopulation
			continue
		}
		if got := rollup.Sessions(); got != sweepPopulation {
			p.failed += sweepPopulation
			p.wrong = append(p.wrong, fmt.Sprintf("sweep %d folded %d sessions, want %d", n, got, sweepPopulation))
			continue
		}
		sum, err := rollup.SummaryJSON()
		if err != nil {
			p.failed += sweepPopulation
			p.wrong = append(p.wrong, fmt.Sprintf("sweep %d summary: %v", n, err))
			continue
		}
		d := sha256.Sum256(sum)
		if *digest == ([32]byte{}) {
			*digest = d
		} else if d != *digest {
			p.wrong = append(p.wrong, fmt.Sprintf("sweep %d summary digest %x differs from the first sweep's %x", n, d[:8], digest[:8]))
		}
		stateBins = rollup.StateBins()
		p.videoSeconds += float64(st.Sessions) * float64(sweepChunks)
	}
	mt.done(p)
	return p, times, stateBins
}

// sweepTimes are one sweep's session times from popsim's own timer: two
// quantiles, the sum and the count. Only these are kept, so that the
// phase's live heap does not grow with the number of sweeps.
type sweepTimes struct {
	p50, p95, sumMS float64
	n               int64
}

// sweepMedian returns the median over sweeps of get, divided by the
// host's wall slowdown over each sweep when scale is set.
func sweepMedian(p *phase, times []sweepTimes, get func(sweepTimes) float64, scale bool) float64 {
	var per []float64
	for i, t := range times {
		v := get(t)
		if scale {
			v /= p.rounds[i].wallSlow
		}
		per = append(per, v)
	}
	return quantile(per, 0.5)
}

// runSweep is the popsim-sweep workload.
func runSweep(cfg config) (*report, error) {
	st, err := coldSetups(cfg)
	if err != nil {
		return nil, err
	}
	e, _, err := startSweep(cfg.seed)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.setup(st)
	var digest [32]byte // of the run's first sweep; every later one must match
	sweepE2E := func(p *phase, times []sweepTimes) {
		r.endToEnd(p)
		r.set("session_ms_p50", sweepMedian(p, times, func(t sweepTimes) float64 { return t.p50 }, true))
		r.set("session_ms_p95", sweepMedian(p, times, func(t sweepTimes) float64 { return t.p95 }, true))
		r.set("sessions_per_s", float64(p.attempted-p.failed)/p.refWall().Seconds())
		r.samples = 0
		for _, t := range times {
			r.samples += int(t.n)
		}
	}
	if !cfg.trace {
		p, times, _ := sweepPhase(e, cfg.seconds, nil, &digest)
		r.phase(p)
		sweepE2E(p, times)
		return r, nil
	}

	base, times, _ := sweepPhase(e, cfg.seconds/2, nil, &digest)
	r.phase(base)
	sweepE2E(base, times)
	r.runtimeLayers(base)
	baseRate := float64(base.attempted-base.failed) / base.refWall().Seconds()

	tr := newTracer()
	p, ttimes, bins := sweepPhase(e, cfg.seconds/2, tr, &digest)
	r.phase(p)
	done := p.attempted - p.failed
	r.decideLayers(tr, int(done))
	r.set("popsim.session_ms_p50", sweepMedian(p, ttimes, func(t sweepTimes) float64 { return t.p50 }, false))
	r.set("popsim.state_bins", float64(bins))

	// Model.Sample replayed from outside: the members a sweep draws.
	var samples []float64
	for i := 0; i < 200; i++ {
		sp := tr.begin("popsim.sample", int64(i), 0)
		t := time.Now()
		e.model.Sample(i)
		samples = append(samples, us(time.Since(t)))
		tr.end(sp)
	}
	sampleUS := quantile(samples, 0.5)
	r.set("popsim.sample_us", sampleUS)

	// Blocking-path time per worker: every session (the program's own
	// timer) plus every member sample, against the workers' wall time.
	var sessionSum float64
	for _, t := range ttimes {
		sessionSum += t.sumMS
	}
	busy := sessionSum + float64(done)*sampleUS/1e3
	r.set("trace.coverage", busy/(ms(p.wall)*float64(runtime.NumCPU())))
	if rate := float64(done) / p.refWall().Seconds(); rate > 0 {
		r.set("trace.overhead", baseRate/rate-1)
	}
	r.note("coverage = (sum of pop_session_ms + members x popsim.sample_us) / (sweep wall x %d workers)", runtime.NumCPU())
	return r, r.writeSpans(cfg, "sweep", tr)
}
