package player

import (
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// arrival is one scripted delivery into a Received.
type arrival struct {
	at time.Duration
	it RequestItem
}

// TestPlayheadRules pins the §3 playback rules on the Playhead alone: no
// network, no scheme. Each case scripts deliveries into a Received by hand
// and steps the playhead on a 10 ms clock until the video ends or the
// session is cut. At 10 fps every frame deadline lands on a tick, so
// startups, stalls and resumes fall on exact instants: frame k of an
// uninterrupted run renders at startup + k*100 ms, and chunk 1 starts at
// frame 10.
func TestPlayheadRules(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "ph", Rows: 4, Cols: 4, FPS: 10, NumChunks: 3, Seed: 5})
	grid := m.Grid()
	hole := geom.DefaultViewport.Tiles(grid, geom.Orientation{})[0]
	isHole := func(chunk int, tile geom.TileID) bool { return chunk == 1 && tile == hole }

	// every delivers each tile of each chunk on the given stream at at,
	// except the ones skip names.
	every := func(stream StreamKind, at time.Duration, skip func(int, geom.TileID) bool) []arrival {
		var out []arrival
		for c := 0; c < m.NumChunks; c++ {
			for tile := geom.TileID(0); int(tile) < m.NumTiles(); tile++ {
				if skip == nil || !skip(c, tile) {
					out = append(out, arrival{at, RequestItem{Stream: stream, Chunk: c, Tile: tile, Quality: video.Lowest}})
				}
			}
		}
		return out
	}
	late := func(stream StreamKind) arrival {
		return arrival{2 * time.Second, RequestItem{Stream: stream, Chunk: 1, Tile: hole, Quality: video.Lowest}}
	}
	join := func(parts ...[]arrival) []arrival {
		var out []arrival
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	stall := []StallInterval{{Start: time.Second, End: 2 * time.Second}}

	cases := []struct {
		name    string
		policy  StallPolicy
		arrive  []arrival
		cut     time.Duration // Truncate at this instant if still playing
		startup time.Duration
		stalls  []StallInterval
		frames  int
		blank   int // frames rendered with a blank viewport tile
	}{
		{
			name:    "NeverStall starts at the grace with holes",
			policy:  NeverStall,
			cut:     10 * time.Second,
			startup: startupGrace,
			frames:  30,
			blank:   30,
		},
		{
			name:   "StallOnMissingAny stalls on a missing tile and resumes on its primary",
			policy: StallOnMissingAny,
			arrive: join(every(Primary, 0, isHole), []arrival{late(Primary)}),
			cut:    10 * time.Second,
			stalls: stall,
			frames: 30,
		},
		{
			name:   "StallOnMissingAny resumes on a masking arrival",
			policy: StallOnMissingAny,
			arrive: join(every(Primary, 0, isHole), []arrival{late(Masking)}),
			cut:    10 * time.Second,
			stalls: stall,
			frames: 30,
		},
		{
			name:   "StallOnMissingMasking ignores a missing primary",
			policy: StallOnMissingMasking,
			arrive: join(every(Primary, 0, isHole), every(Masking, 0, nil)),
			cut:    10 * time.Second,
			frames: 30,
		},
		{
			name:   "StallOnMissingMasking stalls without masking despite the primary",
			policy: StallOnMissingMasking,
			arrive: join(every(Primary, 0, nil), every(Masking, 0, isHole), []arrival{late(Masking)}),
			cut:    10 * time.Second,
			stalls: stall,
			frames: 30,
		},
		{
			name:    "startup wait lands in StartupDelay, not rebuffering",
			policy:  StallOnMissingAny,
			arrive:  every(Primary, 500*time.Millisecond, nil),
			cut:     10 * time.Second,
			startup: 500 * time.Millisecond,
			frames:  30,
		},
		{
			name:   "truncation closes the open stall",
			policy: StallOnMissingAny,
			arrive: every(Primary, 0, isHole),
			cut:    3 * time.Second,
			stalls: []StallInterval{{Start: time.Second, End: 3 * time.Second}},
			frames: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met := &Metrics{}
			rcv := NewReceived(m)
			acct := NewAccountant(m, grid, geom.DefaultViewport, quality.PSNR, met)
			p := NewPlayhead(acct, rcv, staticHead(5*time.Second), tc.policy, nil)
			now := time.Duration(0)
			for ; !p.Done(); now += 10 * time.Millisecond {
				if now >= tc.cut {
					p.Truncate(now)
					break
				}
				for _, a := range tc.arrive {
					if a.at == now {
						rcv.Record(a.it, now)
					}
				}
				p.TryResume(now)
				p.RenderOrStall(now)
			}
			p.Finish(now, nil)

			if met.StartupDelay != tc.startup {
				t.Errorf("startup delay %v, want %v", met.StartupDelay, tc.startup)
			}
			if met.TotalFrames != tc.frames {
				t.Errorf("rendered %d frames, want %d", met.TotalFrames, tc.frames)
			}
			if met.IncompleteFrames != tc.blank {
				t.Errorf("%d incomplete frames, want %d", met.IncompleteFrames, tc.blank)
			}
			if met.Truncated != (tc.frames < m.NumFrames()) {
				t.Errorf("truncated = %v with %d of %d frames", met.Truncated, tc.frames, m.NumFrames())
			}
			if met.StallEvents != len(tc.stalls) || len(met.StallIntervals) != len(tc.stalls) {
				t.Fatalf("stall events %d, intervals %v; want %v", met.StallEvents, met.StallIntervals, tc.stalls)
			}
			var rebuffer time.Duration
			for i, iv := range tc.stalls {
				if met.StallIntervals[i] != iv {
					t.Errorf("stall %d = %+v, want %+v", i, met.StallIntervals[i], iv)
				}
				rebuffer += iv.End - iv.Start
			}
			if met.RebufferDuration != rebuffer {
				t.Errorf("rebuffering %v, want %v", met.RebufferDuration, rebuffer)
			}
		})
	}
}
