package player

import (
	"errors"
	"time"

	"dragonfly/internal/decoder"
	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/predict"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// Config describes one streaming session: a scheme playing one video for
// one user over one bandwidth trace.
type Config struct {
	Manifest  *video.Manifest
	Head      *trace.HeadTrace
	Bandwidth *trace.BandwidthTrace
	Scheme    Scheme

	// Metric drives both scheduling (through Context) and evaluation.
	Metric quality.Metric

	// Viewport defaults to geom.DefaultViewport when zero.
	Viewport geom.Viewport

	// PredictorHistory is the viewport-regression window (0 = default).
	PredictorHistory time.Duration
	// PredictErrorDeg injects uniform orientation noise into the predictor's
	// observations (the Figs 21–23 sensitivity methodology); 0 disables.
	PredictErrorDeg  float64
	PredictErrorSeed int64

	// AssumedStartMbps seeds scheduling before any throughput sample exists.
	AssumedStartMbps float64

	// Decoder optionally models the client's media-decode stage: delivered
	// tiles become renderable only once decoded (nil = infinitely fast, as
	// the paper's testbed provisions).
	Decoder *decoder.Model

	// MaskInterpolation enables the §3.2 future-work optimization: holes
	// with no masking tile are synthesized from neighboring masking tiles.
	MaskInterpolation bool

	// Trace, when non-nil, receives structured session events (decisions,
	// fetches, skips, masks, stalls) for JSONL export. Nil disables tracing
	// at the cost of one branch per event.
	Trace *obs.Trace

	// MaxWall caps session wall time against pathological stalls
	// (default: 3x the video duration plus 30 s).
	MaxWall time.Duration
}

// Run plays the session to completion and returns its metrics.
func Run(cfg Config) (*Metrics, error) {
	if cfg.Manifest == nil || cfg.Head == nil || cfg.Bandwidth == nil || cfg.Scheme == nil {
		return nil, errors.New("player: config requires Manifest, Head, Bandwidth and Scheme")
	}
	if len(cfg.Head.Samples) == 0 || cfg.Head.SamplePeriod <= 0 {
		// A zero-length head trace would wedge the event loop (the head
		// schedule never advances) and poison every ratio downstream.
		return nil, errors.New("player: head trace needs samples and a positive sample period")
	}
	if cfg.Viewport.RadiusDeg == 0 {
		cfg.Viewport = geom.DefaultViewport
	}
	if cfg.AssumedStartMbps == 0 {
		cfg.AssumedStartMbps = 5
	}
	videoDur := time.Duration(cfg.Manifest.NumFrames()) * time.Second / time.Duration(cfg.Manifest.FPS)
	if cfg.MaxWall == 0 {
		cfg.MaxWall = 3*videoDur + 30*time.Second
	}
	e := newEngine(cfg)
	e.run()
	return e.met, nil
}

// transfer is the in-flight item at the head of the server's send queue.
type transfer struct {
	item      RequestItem
	size      int64
	remaining float64
	started   time.Duration
}

// engine is the discrete-event driver: it advances virtual time through the
// trace-driven network model and steps the Playhead at each event.
type engine struct {
	cfg Config
	m   *video.Manifest

	now time.Duration
	ph  Playhead

	// Event schedule.
	nextHead     time.Duration
	nextDecision time.Duration

	// Network / server state.
	queue    []RequestItem
	inflight *transfer

	sentPrimary  []int8 // max primary quality sent per (chunk, tile); -1 none
	sentMaskTile []bool
	sentMaskFull []bool

	received   *Received
	deliveries []Delivery

	vpPred *predict.Viewport
	bwPred *predict.Bandwidth

	// Reusable per-decision scratch: decide() refills ctx in place instead
	// of allocating a Context (plus two method-value closures) per epoch.
	ctx Context

	met *Metrics
}

func newEngine(cfg Config) *engine {
	m := cfg.Manifest
	tiles := m.NumTiles()
	grid := m.Grid()
	e := &engine{
		cfg:          cfg,
		m:            m,
		sentPrimary:  make([]int8, m.NumChunks*tiles),
		sentMaskTile: make([]bool, m.NumChunks*tiles),
		sentMaskFull: make([]bool, m.NumChunks),
		received:     NewReceived(m),
		bwPred:       predict.NewBandwidth(0),
		met: &Metrics{
			SchemeName: cfg.Scheme.Name(),
			VideoID:    m.VideoID,
			UserID:     cfg.Head.UserID,
			TraceID:    cfg.Bandwidth.ID,
			SkipHeat:   make([]int64, tiles),
			BlankHeat:  make([]int64, tiles),
			ViewHeat:   make([]int64, tiles),
		},
	}
	for i := range e.sentPrimary {
		e.sentPrimary[i] = -1
	}
	acct := NewAccountant(m, grid, cfg.Viewport, cfg.Metric, e.met)
	acct.Interpolate = cfg.MaskInterpolation
	e.ph = NewPlayhead(acct, e.received, cfg.Head, cfg.Scheme.StallPolicy(), cfg.Trace)
	if cfg.PredictErrorDeg > 0 {
		e.vpPred = predict.NewViewportWithError(cfg.PredictorHistory, cfg.PredictErrorDeg, cfg.PredictErrorSeed)
	} else {
		e.vpPred = predict.NewViewport(cfg.PredictorHistory)
	}
	// The invariant Context fields — and the two method-value closures,
	// which would otherwise allocate on every decision — are bound once.
	e.ctx = Context{
		Manifest:      m,
		Grid:          grid,
		Viewport:      cfg.Viewport,
		Received:      e.received,
		Predict:       e.vpPred.Predict,
		FrameDeadline: e.ph.FrameDeadline,
	}
	return e
}

func (e *engine) run() {
	headPeriod := e.cfg.Head.SamplePeriod
	interval := e.cfg.Scheme.DecisionInterval()
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	// Trace header: the cohort key (trace class x network class) fleet
	// rollups aggregate this session under.
	e.cfg.Trace.Add(obs.SessionEvent(e.m.VideoID, e.cfg.Head.ClassName()+":"+e.cfg.Bandwidth.NetClass()))
	for !e.ph.Done() {
		if e.now >= e.cfg.MaxWall {
			e.ph.Truncate(e.now)
			break
		}
		// Earliest control event.
		tNext := e.ph.Wake(min(e.nextHead, e.nextDecision))
		if tNext > e.cfg.MaxWall {
			tNext = e.cfg.MaxWall
		}

		// Advance the network to tNext, delivering at most one item (the
		// loop re-enters for the rest).
		e.promote()
		if e.inflight != nil {
			done := e.now + e.cfg.Bandwidth.TimeToTransfer(e.inflight.remaining, e.now)
			if done <= tNext {
				e.now = done
				e.deliver()
				e.ph.TryResume(e.now)
				continue
			}
			e.inflight.remaining -= e.cfg.Bandwidth.BytesBetween(e.now, tNext)
		}
		e.now = tNext

		// Dispatch control events due now.
		for e.now >= e.nextHead {
			e.vpPred.Observe(e.nextHead, e.cfg.Head.At(e.nextHead))
			e.nextHead += headPeriod
		}
		e.ph.TryResume(e.now)
		if e.now >= e.nextDecision {
			e.decide()
			e.nextDecision = e.now + interval
		}
		e.ph.RenderOrStall(e.now)
	}
	e.ph.Finish(e.now, e.deliveries)
}

// promote moves the next sendable queued item into the in-flight slot,
// applying the server's redundancy rule: a tile already transmitted on the
// primary stream is never re-sent; masking-only tiles may be upgraded
// (paper §3.3).
func (e *engine) promote() {
	if e.inflight != nil {
		return
	}
	tiles := e.m.NumTiles()
	for len(e.queue) > 0 {
		it := e.queue[0]
		e.queue = e.queue[1:]
		switch {
		case it.Stream == Primary:
			ct := it.Chunk*tiles + int(it.Tile)
			if e.sentPrimary[ct] >= 0 {
				continue
			}
			e.sentPrimary[ct] = int8(it.Quality)
		case it.Full360:
			if e.sentMaskFull[it.Chunk] {
				continue
			}
			e.sentMaskFull[it.Chunk] = true
		default:
			ct := it.Chunk*tiles + int(it.Tile)
			if e.sentMaskTile[ct] || e.sentMaskFull[it.Chunk] {
				continue
			}
			e.sentMaskTile[ct] = true
		}
		size := it.Size(e.m)
		e.inflight = &transfer{item: it, size: size, remaining: float64(size), started: e.now}
		return
	}
}

func (e *engine) deliver() {
	tr := e.inflight
	e.inflight = nil
	// Render availability is gated on decode completion when a decoder
	// model is configured; throughput sampling still uses delivery time.
	e.received.Record(tr.item, e.cfg.Decoder.DecodeDone(e.now, tr.size))
	e.deliveries = append(e.deliveries, Delivery{Item: tr.item, Bytes: tr.size})
	e.met.BytesReceived += tr.size
	e.bwPred.ObserveTransfer(tr.size, e.now-tr.started)
	e.cfg.Trace.Add(obs.Event{At: e.now, Kind: obs.EvFetch, Chunk: tr.item.Chunk, Tile: int(tr.item.Tile), N: tr.size})
}

func (e *engine) decide() {
	mbps := e.bwPred.PredictMbps()
	if mbps <= 0 {
		mbps = e.cfg.AssumedStartMbps
	}
	e.ph.Stamp(&e.ctx, e.now)
	e.ctx.PredictedMbps = mbps
	e.queue = e.cfg.Scheme.Decide(&e.ctx)
	e.cfg.Trace.Record(e.now, obs.EvDecide, int64(len(e.queue)))
}
