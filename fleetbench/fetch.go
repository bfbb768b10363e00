package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// benchChunks is the length of the fleet video the fetch workloads serve.
const benchChunks = 10

// wrongOutput marks a session whose bytes arrived intact at the transport
// level but whose content is not what was asked for: the run is then
// incorrect, not merely a failed session.
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return "wrong output: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongOutput{msg: fmt.Sprintf(format, args...)}
}

// fetchResult is what one verified fetch session delivered.
type fetchResult struct {
	wall    time.Duration // dial to verified last tile
	payload int64         // verified tile payload bytes
	frames  int           // frames read, tiles and pings
}

// fetchSession dials, sends hello, reads the manifest, requests items,
// verifies every tile that comes back and says goodbye. Verification
// covers the frame CRC (checked by proto.ReadMessageBuf), the manifest's
// payload checksum of each tile, its size, and the exact tile set: every
// requested (stream, chunk, tile) once, nothing else. The spans of a
// session that fails stay open.
func fetchSession(dial func() (net.Conn, error), m *video.Manifest, items []player.RequestItem, tr *tracer, sid int64) (fetchResult, error) {
	var res fetchResult
	start := time.Now()
	root := tr.begin("session", sid, 0)

	sp := tr.begin("net.dial", sid, root)
	conn, err := dial()
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()

	sp = tr.begin("proto.handshake", sid, root)
	hs := time.Now()
	if err := proto.WriteHello(conn, proto.Hello{VideoID: m.VideoID}); err != nil {
		return res, fmt.Errorf("hello: %w", err)
	}
	var buf []byte
	msg, buf, err := proto.ReadMessageBuf(conn, buf)
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("read manifest: %w", err)
	}
	tr.observe("proto.handshake_ms", ms(time.Since(hs)))
	res.frames++
	if msg.Type != proto.MsgManifest {
		return res, fmt.Errorf("expected manifest, got message type %d", msg.Type)
	}
	got := msg.Manifest
	if got.VideoID != m.VideoID || got.NumChunks != m.NumChunks || got.NumTiles() != m.NumTiles() || !got.HasChecksums() {
		return res, wrongf("manifest %q (%d chunks, %d tiles, checksums %v) does not match the served video",
			got.VideoID, got.NumChunks, got.NumTiles(), got.HasChecksums())
	}

	// want[chunk*tiles+tile] is the requested quality plus one (0: not
	// requested); seen marks tiles already verified.
	tiles := m.NumTiles()
	want := make([]int8, m.NumChunks*tiles)
	for _, it := range items {
		want[it.Chunk*tiles+int(it.Tile)] = int8(it.Quality) + 1
	}
	seen := make([]bool, len(want))

	sp = tr.begin("proto.tiles", sid, root)
	req := time.Now()
	if err := proto.WriteRequest(conn, proto.Request{Generation: 1, Items: items}); err != nil {
		return res, fmt.Errorf("request: %w", err)
	}
	for n := 0; n < len(items); {
		rs := time.Now()
		msg, buf, err = proto.ReadMessageBuf(conn, buf)
		if err != nil {
			return res, fmt.Errorf("read tile %d of %d: %w", n+1, len(items), err)
		}
		res.frames++
		tr.observe("proto.read_frame_us", us(time.Since(rs)))
		switch msg.Type {
		case proto.MsgPing:
			continue
		case proto.MsgTileData:
		default:
			return res, fmt.Errorf("unexpected message type %d", msg.Type)
		}
		vs := time.Now()
		if err := verifyTile(got, m, msg.TileData, want, seen); err != nil {
			return res, err
		}
		tr.observe("client.verify_us", us(time.Since(vs)))
		if n == 0 {
			tr.observe("proto.first_tile_ms", ms(time.Since(req)))
		}
		res.payload += int64(len(msg.TileData.Payload))
		n++
	}
	res.wall = time.Since(start)
	tr.end(sp)
	tr.end(root)
	if err := proto.WriteBye(conn); err != nil {
		return res, fmt.Errorf("bye: %w", err)
	}
	return res, nil
}

// verifyTile checks one received tile against the request and against the
// manifest the server sent, whose checksum must also match the served
// video's.
func verifyTile(got, m *video.Manifest, td *proto.TileData, want []int8, seen []bool) error {
	it := td.Item
	key := it.Chunk*m.NumTiles() + int(it.Tile)
	if it.Stream != player.Primary || it.Full360 || it.Chunk < 0 || it.Chunk >= m.NumChunks ||
		int(it.Tile) < 0 || int(it.Tile) >= m.NumTiles() || want[key] != int8(it.Quality)+1 {
		return wrongf("unrequested tile %+v", it)
	}
	if seen[key] {
		return wrongf("duplicate tile %+v", it)
	}
	seen[key] = true
	if size := it.Size(m); int64(len(td.Payload)) != size {
		return wrongf("tile %+v carries %d bytes, manifest says %d", it, len(td.Payload), size)
	}
	sum, _ := it.Checksum(got)
	if local, _ := it.Checksum(m); sum != local {
		return wrongf("manifest checksum of tile %+v is %08x, served video has %08x", it, sum, local)
	}
	if proto.PayloadChecksum(td.Payload) != sum {
		return wrongf("payload checksum mismatch on tile %+v", it)
	}
	return nil
}

// handshakeItems is one fleet-handshake request: the viewport tiles of one
// seeded chunk around a seeded orientation, at a seeded quality.
func handshakeItems(m *video.Manifest, rng *rand.Rand) []player.RequestItem {
	chunk := rng.Intn(m.NumChunks)
	o := geom.Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*120 - 60}
	q := video.Quality(rng.Intn(video.NumQualities))
	var items []player.RequestItem
	for _, t := range geom.DefaultViewport.Tiles(m.Grid(), o) {
		items = append(items, player.RequestItem{Stream: player.Primary, Chunk: chunk, Tile: t, Quality: q})
	}
	return items
}

// bulkItems is one fleet-bulk request: every tile of every chunk at the
// top quality, chunk by chunk, tiles in a seeded order within each chunk.
func bulkItems(m *video.Manifest, rng *rand.Rand) []player.RequestItem {
	items := make([]player.RequestItem, 0, m.NumChunks*m.NumTiles())
	top := video.Quality(video.NumQualities - 1)
	for c := 0; c < m.NumChunks; c++ {
		for _, t := range rng.Perm(m.NumTiles()) {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: geom.TileID(t), Quality: top})
		}
	}
	return items
}

// route is one way fetch sessions reach the fleet, with the tracer that
// records them (nil: untraced) and the wall times of its sessions and the
// rounds they ran in.
type route struct {
	dial         func(worker int) (net.Conn, error)
	tr           *tracer
	sessionMS    []float64
	sessionRound []int
}

// fetchPhase runs the closed loop of fetch sessions for dur: conns
// connections, each requesting the items its seeded generator yields, one
// session at a time. A worker's n-th session takes routes[n%len(routes)],
// so routes share the same load and the same moments of the run.
func fetchPhase(cfg config, m *video.Manifest, conns int, routes []*route, items func(*video.Manifest, *rand.Rand) []player.RequestItem, chunksPerSession int, dur time.Duration) *phase {
	p := &phase{}
	t := &tally{p: p}
	rngs := make([]*rand.Rand, conns)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(cfg.seed*1000 + int64(w)))
	}
	mt := startMeter(conns)
	rounds := roundsOf(dur, calibrateEvery)
	closedLoop(conns, rounds, dur/time.Duration(rounds), mt, func(w, n int) {
		rt := routes[n%len(routes)]
		list := items(m, rngs[w])
		dial := cfg.dialer(func() (net.Conn, error) { return rt.dial(w) })
		res, err := fetchSession(dial, m, list, rt.tr, int64(w)<<32|int64(n))
		t.add(func(p *phase) {
			p.attempted++
			p.frames += int64(res.frames)
			if err != nil {
				p.failed++
				var wo *wrongOutput
				if errors.As(err, &wo) {
					p.wrong = append(p.wrong, err.Error())
				}
				return
			}
			p.sessionMS = append(p.sessionMS, ms(res.wall))
			p.sessionRound = append(p.sessionRound, mt.round())
			rt.sessionMS = append(rt.sessionMS, ms(res.wall))
			rt.sessionRound = append(rt.sessionRound, mt.round())
			p.videoSeconds += float64(chunksPerSession)
			p.payloadBytes += res.payload
		})
	})
	mt.done(p)
	return p
}

// manifestCodec replays the manifest encode (proto.WriteManifest) and
// decode (proto.ReadMessage) n times and returns their medians in ms.
func manifestCodec(m *video.Manifest, n int) (enc, dec float64, err error) {
	var encs, decs []float64
	for i := 0; i < n; i++ {
		var b bytes.Buffer
		t := time.Now()
		if err := proto.WriteManifest(&b, m); err != nil {
			return 0, 0, err
		}
		encs = append(encs, ms(time.Since(t)))
		t = time.Now()
		msg, err := proto.ReadMessage(&b)
		if err != nil {
			return 0, 0, err
		}
		decs = append(decs, ms(time.Since(t)))
		if msg.Manifest == nil || msg.Manifest.NumChunks != m.NumChunks {
			return 0, 0, fmt.Errorf("manifest replay decoded a different manifest")
		}
	}
	return quantile(encs, 0.5), quantile(decs, 0.5), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// warmup is how long a run drives the fleet before measuring, so that
// connection buffers, the heap and the collector's pacing are at steady
// state when timing starts.
const warmup = time.Second

// runFetch is the fleet-handshake workload, or fleet-bulk when bulk is set.
func runFetch(cfg config, bulk bool) (*report, error) {
	st, err := coldSetups(cfg)
	if err != nil {
		return nil, err
	}
	f, _, err := startFleet("bench", benchChunks, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	// fleet-handshake runs one connection. With two, the sessions' CPU-heavy
	// manifest phases fall into step or out of step for long stretches,
	// and the session times split into two modes whose mix, and so the
	// median, changes from run to run. fleet-bulk keeps both cores busy.
	items, chunks, conns := handshakeItems, 1, 1
	if bulk {
		items, chunks, conns = bulkItems, benchChunks, loadConns
	}
	viaBalancer := func(w int) (net.Conn, error) { return net.Dial("tcp", f.fronts[w]) }
	r := newReport()
	r.setup(st)
	r.set("store.memory_bytes", float64(f.store.MemoryBytes()))
	r.phase(fetchPhase(cfg, f.m, conns, []*route{{dial: viaBalancer}}, items, chunks, warmup))
	if !cfg.trace {
		p := fetchPhase(cfg, f.m, conns, []*route{{dial: viaBalancer}}, items, chunks, cfg.seconds)
		r.phase(p)
		r.endToEnd(p)
		return r, nil
	}

	// Traced run: an untraced half for the overhead baseline, then a
	// traced half whose sessions alternate between the balancer and a
	// direct dial to a server, for the balancer's share.
	base := fetchPhase(cfg, f.m, conns, []*route{{dial: viaBalancer}}, items, chunks, cfg.seconds/2)
	r.phase(base)
	r.endToEnd(base)
	r.runtimeLayers(base)

	var next atomic.Int64
	direct := func(int) (net.Conn, error) {
		return net.Dial("tcp", f.addrs[next.Add(1)%int64(len(f.addrs))])
	}
	tr := newTracer()
	bal, dir := &route{dial: viaBalancer, tr: tr}, &route{dial: direct, tr: newTracer()}
	c0 := f.counters()
	p := fetchPhase(cfg, f.m, conns, []*route{bal, dir}, items, chunks, cfg.seconds/2)
	c1 := f.counters()
	r.phase(p)

	n := float64(max(len(p.sessionMS), 1))
	// Route medians are scaled like the end-to-end figures, so that the
	// host's drift between the two halves does not read as overhead.
	p50 := p.roundQuantile(bal.sessionMS, bal.sessionRound, 0.5)
	enc, dec, err := manifestCodec(f.m, 15)
	if err != nil {
		return nil, err
	}
	r.set("proto.manifest_encode_ms", enc)
	r.set("proto.manifest_decode_ms", dec)
	stats := tr.spanStats()
	if s := stats["session"]; s.total > 0 {
		r.set("proto.manifest_share", float64(stats["proto.handshake"].total)/float64(s.total))
	}
	r.set("proto.handshake_ms_p50", quantile(tr.get("proto.handshake_ms"), 0.5))
	r.set("proto.first_tile_ms_p50", quantile(tr.get("proto.first_tile_ms"), 0.5))
	r.set("proto.read_frame_us_p50", quantile(tr.get("proto.read_frame_us"), 0.5))
	r.set("proto.frames", float64(p.frames)/n)
	r.set("client.verify_us_p50", quantile(tr.get("client.verify_us"), 0.5))
	r.set("balancer.overhead_ms_p50", p50-p.roundQuantile(dir.sessionMS, dir.sessionRound, 0.5))
	r.set("server.primary_sent", float64(c1.PrimarySent-c0.PrimarySent)/n)
	r.set("server.bytes_sent", float64(c1.BytesSent-c0.BytesSent)/n)
	r.set("server.shed_items", float64(c1.ShedItems-c0.ShedItems)/n)
	r.set("server.queue_len_p50", f.queueLenP50())
	r.decideLayers(tr, len(bal.sessionMS))
	r.set("trace.coverage", tr.coverage())
	if b := base.refQuantile(0.5); b > 0 {
		r.set("trace.overhead", p50/b-1)
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats[name]
		r.note("span %-16s n=%-6d mean %.3f ms", name, s.n, ms(s.total)/float64(s.n))
	}
	r.note("traced pass: %d sessions via the balancer, %d dialing servers directly", len(bal.sessionMS), len(dir.sessionMS))
	r.note("proto.manifest_share is the hello-to-manifest span's share of session time; the codec replays split it")
	if err := r.writeSpans(cfg, "balancer", tr); err != nil {
		return nil, err
	}
	return r, r.writeSpans(cfg, "direct", dir.tr)
}
