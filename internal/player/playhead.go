package player

import (
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/trace"
)

// startupGrace caps how long a continuous-playback (NeverStall) scheme
// waits for its first frame: after this, playback begins even with missing
// tiles, matching the skip discipline.
const startupGrace = time.Second

// Playhead is the paper's playback state machine (§3): the startup wait,
// render-or-stall at each frame deadline under the scheme's StallPolicy, and
// resume once the *current* viewport is renderable again. It owns the
// playback position and every playback rule, including the per-frame trace
// events and the session's stall/startup metrics; its drivers own only the
// clock and the network. The discrete-event engine drives it on virtual
// time, the real-time client on wall time: every call takes the current
// instant. A Playhead is not safe for concurrent use; a driver that shares
// the Received state or the Metrics with another goroutine must hold its
// lock across each call.
type Playhead struct {
	acct     *Accountant
	met      *Metrics
	received *Received
	head     *trace.HeadTrace
	trace    *obs.Trace
	policy   StallPolicy
	frameDur time.Duration
	frames   int

	now         time.Duration // instant of the latest Stamp
	playFrame   int
	nextFrameAt time.Duration
	stalled     bool
	startup     bool
	stallStart  time.Duration

	vpTiles []geom.TileID // viewport-tile scratch
}

// NewPlayhead returns a playhead at frame 0, waiting for startup. Frames
// render through acct (and so into acct.M) against the deliveries in
// received, viewed along head; tr (may be nil) receives the playback events.
func NewPlayhead(acct *Accountant, received *Received, head *trace.HeadTrace, policy StallPolicy, tr *obs.Trace) Playhead {
	m := acct.Manifest
	return Playhead{
		acct:     acct,
		met:      acct.M,
		received: received,
		head:     head,
		trace:    tr,
		policy:   policy,
		frameDur: time.Second / time.Duration(m.FPS),
		frames:   m.NumFrames(),
		stalled:  true, // startup: waiting for the first frame
		startup:  true,
	}
}

// Done reports whether every frame of the video has rendered.
func (p *Playhead) Done() bool { return p.playFrame >= p.frames }

// Wake returns the earlier of t and the next frame deadline; a stalled
// playhead has no deadline of its own (it resumes on a delivery).
func (p *Playhead) Wake(t time.Duration) time.Duration {
	if !p.stalled && p.nextFrameAt < t {
		return p.nextFrameAt
	}
	return t
}

// Stamp fills the playback fields of a decision Context for instant now.
// Bind ctx.FrameDeadline to the playhead's FrameDeadline once per session.
func (p *Playhead) Stamp(ctx *Context, now time.Duration) {
	p.now = now
	ctx.Now = now
	ctx.PlayFrame = p.playFrame
	ctx.Stalled = p.stalled
	ctx.FrameDuration = p.frameDur
}

// FrameDeadline estimates when the given frame starts rendering, assuming
// no further stalls, as of the latest Stamp.
func (p *Playhead) FrameDeadline(frame int) time.Duration {
	base := p.nextFrameAt
	if p.stalled {
		base = p.now
	}
	return base + time.Duration(frame-p.playFrame)*p.frameDur
}

// requirementMet checks the stall policy for the given viewport tiles.
func (p *Playhead) requirementMet(now time.Duration, chunk int, ids []geom.TileID) bool {
	if p.startup && p.policy == NeverStall && now >= startupGrace {
		return true
	}
	for _, id := range ids {
		switch {
		case p.startup || p.policy == StallOnMissingAny:
			_, okP := p.received.BestPrimaryBy(chunk, id, now)
			if !okP && !p.received.HasMaskingBy(chunk, id, now) {
				return false
			}
		case p.policy == StallOnMissingMasking:
			if !p.received.HasMaskingBy(chunk, id, now) {
				return false
			}
		}
	}
	return true
}

// viewportMet reports whether the viewport at now satisfies the policy for
// the current frame's chunk.
func (p *Playhead) viewportMet(now time.Duration, chunk int) bool {
	p.vpTiles = p.acct.Grid.AppendTilesInCap(p.vpTiles[:0], p.head.At(now), p.acct.Viewport.RadiusDeg)
	return p.requirementMet(now, chunk, p.vpTiles)
}

// TryResume ends a stall (or the startup wait) once the current viewport is
// renderable again, rendering the waiting frame.
func (p *Playhead) TryResume(now time.Duration) {
	if !p.stalled || !p.viewportMet(now, p.acct.Manifest.ChunkOfFrame(p.playFrame)) {
		return
	}
	if p.startup {
		p.met.StartupDelay = now
		p.startup = false
		p.trace.Record(now, obs.EvStartup, int64(now/time.Millisecond))
	} else {
		p.closeStall(now)
		p.trace.Record(now, obs.EvResume, int64((now-p.stallStart)/time.Millisecond))
	}
	p.stalled = false
	p.renderFrame(now)
}

// RenderOrStall runs the frame deadline if one is due: render the frame, or
// enter a stall if the policy demands complete viewports.
func (p *Playhead) RenderOrStall(now time.Duration) {
	if p.stalled || now < p.nextFrameAt || p.Done() {
		return
	}
	chunk := p.acct.Manifest.ChunkOfFrame(p.playFrame)
	if p.policy != NeverStall && !p.viewportMet(now, chunk) {
		p.stalled = true
		p.stallStart = now
		p.met.StallEvents++
		p.trace.Add(obs.Event{At: now, Kind: obs.EvStall, Chunk: chunk})
		return
	}
	p.renderFrame(now)
}

// Truncate ends the session at now, before the video finished (the MaxWall
// cap). An open stall is closed at the truncation instant, so every counted
// stall event has its interval.
func (p *Playhead) Truncate(now time.Duration) {
	p.met.Truncated = true
	if p.stalled && !p.startup {
		p.closeStall(now)
	}
	p.stalled = false
}

// Finish closes the session's metrics at now: wall and play durations, and
// the §4.1 wastage accounting over every delivery.
func (p *Playhead) Finish(now time.Duration, deliveries []Delivery) {
	p.met.WallDuration = now
	p.met.PlayDuration = time.Duration(p.met.TotalFrames) * p.frameDur
	p.acct.FinishWastage(deliveries)
}

// closeStall ends the open stall at now.
func (p *Playhead) closeStall(now time.Duration) {
	p.met.RebufferDuration += now - p.stallStart
	p.met.StallIntervals = append(p.met.StallIntervals, StallInterval{Start: p.stallStart, End: now})
}

// renderFrame renders playFrame at now and advances playback.
func (p *Playhead) renderFrame(now time.Duration) {
	chunk := p.acct.Manifest.ChunkOfFrame(p.playFrame)
	skips, masks, blanks := p.met.PrimarySkipFrames, p.met.RenderedMasking, p.met.RenderedBlank
	p.acct.RenderFrame(chunk, p.head.At(now), p.received, now)
	if p.trace != nil {
		// Per-frame display events, derived from the accountant's deltas.
		if n := len(p.met.FrameScore); n > 0 {
			p.trace.Add(obs.Event{At: now, Kind: obs.EvQuality, Chunk: chunk, N: int64(p.met.FrameScore[n-1] * 100)})
		}
		if p.met.PrimarySkipFrames > skips {
			p.trace.Add(obs.Event{At: now, Kind: obs.EvSkip, Chunk: chunk})
		}
		if d := p.met.RenderedMasking - masks; d > 0 {
			p.trace.Add(obs.Event{At: now, Kind: obs.EvMask, Chunk: chunk, N: d})
		}
		if d := p.met.RenderedBlank - blanks; d > 0 {
			p.trace.Add(obs.Event{At: now, Kind: obs.EvBlank, Chunk: chunk, N: d})
		}
	}
	p.playFrame++
	p.nextFrameAt = now + p.frameDur
}
