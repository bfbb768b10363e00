package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/ingest"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/popsim"
	"dragonfly/internal/trace"
)

const (
	// playChunks is the length of the fleet-play video: short enough that
	// each viewer plays several real-time sessions in one run.
	playChunks = 4
	// playMeanMbps is the mean each Belgian-class downstream trace is
	// scaled to over the span a session plays: below the top-quality
	// viewport rate of the play video, so the scheduler skips primary
	// tiles and renders masking.
	playMeanMbps = 20
	// traceEvents bounds one session's event trace; a 4-second session
	// records under a thousand events, and a dropped one fails the run.
	traceEvents = 1 << 13
)

// playLink is one session's seeded downstream: a Belgian-class 4G trace
// scaled so that its mean over the session's first video+1 seconds is
// playMeanMbps.
func playLink(seed int64) netem.Link {
	params := popsim.BelgianClass().Params
	params.ID = "fleet-play"
	params.Seed = seed
	bw := trace.GenerateBandwidth(params)
	window := bw.Crop(0, time.Duration(playChunks+1)*time.Second)
	return netem.Link{Trace: bw.Scaled(playMeanMbps / window.Mean())}
}

// shapedListener shapes the balancer's writes on every connection it
// accepts, like netem.WrapListener, but gives the n-th connection its own
// trace, seeded from the listener's seed and n. Each viewer has its own
// front listener and opens its sessions one after another, so its n-th
// session always gets the same trace.
type shapedListener struct {
	net.Listener
	seed int64
	n    int64 // accepted so far; only Accept's goroutine touches it
}

func (l *shapedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n++
	return netem.NewConn(c, playLink(l.seed*1_000_003+l.n)), nil
}

// playFronts shapes viewer i's front listener from the run's seed.
func playFronts(seed int64) func(net.Listener, int) net.Listener {
	return func(l net.Listener, i int) net.Listener {
		return &shapedListener{Listener: l, seed: seed*1000 + int64(i)}
	}
}

// playStats is what the layer report reads from a fleet-play phase.
type playStats struct {
	frames, skipFrames, incompleteFrames int64
	scoreSum                             float64 // sum over frames of viewport dB
	maskTiles, viewportTiles             int64
	bytesUseful                          int64
	disconnects                          int64
	startupMS                            []float64
	events                               int64
	foldTime                             time.Duration
}

// playPhase runs loadConns viewers for dur. Each plays whole sessions in a
// row through the balancer (client.PlayResilient with a fresh
// core.NewDefault per session on a seeded head trace) and folds each
// session's event trace through agg.
func playPhase(cfg config, f *fleet, agg *ingest.Aggregator, dur time.Duration, tr *tracer) (*phase, *playStats) {
	p := &phase{}
	ps := &playStats{}
	t := &tally{p: p}
	rngs := make([]*rand.Rand, loadConns)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(cfg.seed*1000 + int64(w)))
	}
	classes := []trace.MotionClass{trace.MotionLow, trace.MotionMedium, trace.MotionHigh}
	videoDur := time.Duration(f.m.NumChunks) * time.Second
	// Each round plays exactly one session per viewer: as many rounds as
	// videos fit in dur. Real-time playback paces the sessions, so only
	// the phase's CPU time is scaled to the reference host (hostref.go).
	p.paced = true
	mt := startMeter(loadConns)
	closedLoop(loadConns, roundsOf(dur, videoDur), 0, mt, func(w, n int) {
		rng := rngs[w]
		sid := int64(w)<<32 | int64(n)
		dial := cfg.dialer(func() (net.Conn, error) { return net.Dial("tcp", f.fronts[w]) })
		head := trace.GenerateHead(trace.HeadGenParams{
			UserID:   fmt.Sprintf("viewer-%d-%d", w, n),
			Class:    classes[(w+n)%len(classes)], // every run plays an even mix
			Duration: videoDur + 2*time.Second,
			Seed:     rng.Int63(),
		})
		events := obs.NewTrace(traceEvents)
		start := time.Now()
		root := tr.begin("session", sid, 0)
		sp := tr.begin("client.play", sid, root)
		met, err := client.PlayResilient(dial, f.m.VideoID, head, schemeFor(core.NewDefault(), tr), client.PlayOptions{
			Trace: events,
			Reconnect: client.ReconnectPolicy{
				MaxAttempts: 4,
				BaseDelay:   20 * time.Millisecond,
				MaxDelay:    200 * time.Millisecond,
				ReadTimeout: 2 * time.Second,
				Seed:        rng.Int63(),
			},
		})
		tr.end(sp)
		wall := time.Since(start)
		if err != nil {
			t.add(func(p *phase) { p.attempted++; p.failed++ })
			return
		}
		sp = tr.begin("ingest.fold", sid, root)
		fs := time.Now()
		evs := events.Events()
		sf := agg.NewSession()
		for _, ev := range evs {
			sf.Event(ev)
		}
		sf.Close()
		fold := time.Since(fs)
		tr.end(sp)
		tr.end(root)

		var wrong error
		switch {
		case met.Truncated:
			wrong = wrongf("session %d/%d truncated after %d of %d frames", w, n, met.TotalFrames, f.m.NumFrames())
		case met.TotalFrames != f.m.NumFrames():
			wrong = wrongf("session %d/%d rendered %d of %d frames", w, n, met.TotalFrames, f.m.NumFrames())
		case met.CorruptTiles != 0:
			wrong = wrongf("session %d/%d held %d corrupt tiles", w, n, met.CorruptTiles)
		case events.Dropped() != 0:
			wrong = wrongf("session %d/%d event trace dropped %d events", w, n, events.Dropped())
		}
		t.add(func(p *phase) {
			p.attempted++
			if wrong != nil {
				p.failed++
				p.wrong = append(p.wrong, wrong.Error())
				return
			}
			p.sessionMS = append(p.sessionMS, ms(wall))
			p.videoSeconds += met.PlayDuration.Seconds()
			p.payloadBytes += met.BytesReceived
			ps.frames += int64(met.TotalFrames)
			ps.skipFrames += int64(met.PrimarySkipFrames)
			ps.incompleteFrames += int64(met.IncompleteFrames)
			for _, s := range met.FrameScore {
				ps.scoreSum += s
			}
			ps.maskTiles += met.RenderedMasking
			ps.viewportTiles += met.RenderedViewportTiles()
			ps.bytesUseful += met.BytesUseful
			ps.disconnects += int64(met.Disconnects)
			ps.startupMS = append(ps.startupMS, ms(met.StartupDelay))
			ps.events += int64(len(evs))
			ps.foldTime += fold
		})
	})
	mt.done(p)
	return p, ps
}

// runPlay is the fleet-play workload.
func runPlay(cfg config) (*report, error) {
	st, err := coldSetups(cfg)
	if err != nil {
		return nil, err
	}
	f, _, err := startFleet("play", playChunks, playFronts(cfg.seed))
	if err != nil {
		return nil, err
	}
	defer f.stop()
	r := newReport()
	r.setup(st)
	r.set("store.memory_bytes", float64(f.store.MemoryBytes()))
	ingReg := obs.NewRegistry()
	agg := ingest.New(ingest.Config{Obs: ingReg})

	if !cfg.trace {
		p, ps := playPhase(cfg, f, agg, cfg.seconds, nil)
		r.phase(p)
		r.endToEnd(p)
		r.playOutcome(p, ps)
		r.checkIngest(ingReg)
		return r, nil
	}

	base, _ := playPhase(cfg, f, agg, cfg.seconds/2, nil)
	r.phase(base)
	r.endToEnd(base)
	r.runtimeLayers(base)

	tr := newTracer()
	c0 := f.counters()
	p, ps := playPhase(cfg, f, agg, cfg.seconds/2, tr)
	c1 := f.counters()
	r.phase(p)
	r.playOutcome(p, ps)
	r.decideLayers(tr, len(p.sessionMS))
	n := float64(max(len(p.sessionMS), 1))
	r.set("server.primary_sent", float64(c1.PrimarySent-c0.PrimarySent)/n)
	r.set("server.bytes_sent", float64(c1.BytesSent-c0.BytesSent)/n)
	r.set("server.shed_items", float64(c1.ShedItems-c0.ShedItems)/n)
	r.set("server.queue_len_p50", f.queueLenP50())
	r.set("client.startup_ms_p50", quantile(ps.startupMS, 0.5))
	r.set("client.disconnects", float64(ps.disconnects))
	r.set("ingest.events", float64(ps.events)/n)
	if ps.events > 0 {
		r.set("ingest.fold_us_per_event", us(ps.foldTime)/float64(ps.events))
	}
	enc, dec, err := manifestCodec(f.m, 15)
	if err != nil {
		return nil, err
	}
	r.set("proto.manifest_encode_ms", enc)
	r.set("proto.manifest_decode_ms", dec)
	r.set("trace.coverage", tr.coverage())
	if b := ms(base.refCPU()) / base.videoSeconds; b > 0 && p.videoSeconds > 0 {
		r.set("trace.overhead", (ms(p.refCPU())/p.videoSeconds)/b-1)
	}
	r.note("traced pass: %d sessions; coverage counts client.play and ingest.fold against session wall time,", len(p.sessionMS))
	r.note("which real-time playback paces: startup + video duration + stalls")
	r.checkIngest(ingReg)
	return r, r.writeSpans(cfg, "balancer", tr)
}

// playOutcome records what the viewers saw over a phase.
func (r *report) playOutcome(p *phase, ps *playStats) {
	if ps.frames > 0 {
		r.set("player.score_db", ps.scoreSum/float64(ps.frames))
		r.set("player.skip_frame_pct", 100*float64(ps.skipFrames)/float64(ps.frames))
		r.set("player.incomplete_frame_pct", 100*float64(ps.incompleteFrames)/float64(ps.frames))
	}
	if ps.viewportTiles > 0 {
		r.set("player.mask_share", float64(ps.maskTiles)/float64(ps.viewportTiles))
	}
	if p.payloadBytes > 0 {
		r.set("client.useful_ratio", float64(ps.bytesUseful)/float64(p.payloadBytes))
	}
	r.set("client.goodput_mb_s", float64(p.payloadBytes)/1e6/p.wall.Seconds())
}

// checkIngest marks the run incorrect when the aggregator rejected any
// event the client traced: every event must fold.
func (r *report) checkIngest(reg *obs.Registry) {
	if n := reg.Counter("ing_rejected_events").Value(); n != 0 {
		r.wrong = append(r.wrong, fmt.Sprintf("ingest rejected %d traced events", n))
	}
}
