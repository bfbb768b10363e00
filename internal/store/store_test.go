package store

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

func testManifest(t testing.TB) *video.Manifest {
	t.Helper()
	return video.Generate(video.GenParams{ID: "store", Rows: 4, Cols: 4, NumChunks: 3, Seed: 11})
}

// flatten concatenates a frame's buffers into one contiguous wire image.
func flatten(bufs [][]byte) []byte {
	var out []byte
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// TestFramesByteIdenticalToWriteTileData proves the zero-copy path is a
// pure representation change: for EVERY variant the store can serve —
// each (chunk, tile, quality) on both stream kinds plus every full-360°
// masking variant — the pre-framed buffers concatenate to exactly the
// bytes proto.WriteTileData emits, CRC trailer included.
func TestFramesByteIdenticalToWriteTileData(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	checked := 0
	forEachFrame(m, func(_ int, it player.RequestItem) {
		bufs, size, ok := s.Frame(it)
		if !ok {
			t.Fatalf("store cannot serve %+v", it)
		}
		payload := make([]byte, it.Size(m))
		var want bytes.Buffer
		if err := proto.WriteTileData(&want, proto.TileData{Item: it, Payload: payload}); err != nil {
			t.Fatalf("WriteTileData %+v: %v", it, err)
		}
		got := flatten(bufs)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("frame for %+v differs from WriteTileData output (%d vs %d bytes)", it, len(got), want.Len())
		}
		if size != int64(len(got)) {
			t.Fatalf("frame size %d != wire bytes %d for %+v", size, len(got), it)
		}
		checked++
	})
	if checked != s.NumFrames() {
		t.Fatalf("checked %d frames, store holds %d", checked, s.NumFrames())
	}
}

// TestManifestFrameByteIdenticalToWriteManifest pins the pre-encoded
// handshake against the reference encoder: the store's manifest frame is
// exactly the bytes proto.WriteManifest emits, CRC trailer included, and
// it decodes back to the manifest it was built from.
func TestManifestFrameByteIdenticalToWriteManifest(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	got, err := s.ManifestFrame()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := proto.WriteManifest(&want, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("store manifest frame differs from WriteManifest output (%d vs %d bytes)", len(got), want.Len())
	}
	msg, err := proto.ReadMessage(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != proto.MsgManifest || msg.Manifest.VideoID != m.VideoID ||
		msg.Manifest.TileChecksum(2, geom.TileID(5), video.Highest) != m.TileChecksum(2, geom.TileID(5), video.Highest) {
		t.Fatal("store manifest frame does not decode to its manifest")
	}
}

// TestManifestFrameUnencodable: a manifest the codec refuses leaves the
// store without a frame and reports why, instead of failing New.
func TestManifestFrameUnencodable(t *testing.T) {
	m := testManifest(t)
	m.MaskDisplacement = m.MaskDisplacement[:1]
	if frame, err := New(m).ManifestFrame(); err == nil || frame != nil {
		t.Fatalf("unencodable manifest: frame of %d bytes, err %v", len(frame), err)
	}
}

// TestFramesDecodeWithRequestedStream guards the subtle part of the
// layout: the wire item inside the frame head carries the stream kind, so
// the same (chunk, tile, quality) served as primary and as masking must
// decode back to DIFFERENT wire items matching each request.
func TestFramesDecodeWithRequestedStream(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	for _, stream := range []player.StreamKind{player.Primary, player.Masking} {
		it := player.RequestItem{Stream: stream, Chunk: 1, Tile: 5, Quality: video.Quality(2)}
		bufs, _, ok := s.Frame(it)
		if !ok {
			t.Fatalf("store cannot serve %+v", it)
		}
		msg, err := proto.ReadMessage(bytes.NewReader(flatten(bufs)))
		if err != nil {
			t.Fatalf("decode %v frame: %v", stream, err)
		}
		if msg.Type != proto.MsgTileData || msg.TileData.Item != it {
			t.Fatalf("frame decodes to %+v, requested %+v", msg.TileData.Item, it)
		}
	}
}

// TestLocateRejectsOutOfRange pins the skip-don't-crash contract for
// malformed queue entries.
func TestLocateRejectsOutOfRange(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	bad := []player.RequestItem{
		{Stream: player.Primary, Chunk: m.NumChunks, Tile: 0, Quality: video.Quality(2)},
		{Stream: player.Primary, Chunk: -1, Tile: 0, Quality: video.Quality(2)},
		{Stream: player.Primary, Chunk: 0, Tile: geom.TileID(m.NumTiles()), Quality: video.Quality(2)},
		{Stream: player.Primary, Chunk: 0, Tile: 0, Quality: video.NumQualities},
		{Stream: player.StreamKind(9), Chunk: 0, Tile: 0, Quality: video.Quality(2)},
		// Full-360° exists only on the masking stream.
		{Stream: player.Primary, Chunk: 0, Full360: true, Quality: video.Quality(2)},
	}
	for _, it := range bad {
		if bufs, size, ok := s.AppendFrame(nil, it); ok || len(bufs) != 0 || size != 0 {
			t.Fatalf("AppendFrame accepted out-of-range item %+v", it)
		}
		if ws := s.WireSize(it); ws != 0 {
			t.Fatalf("WireSize %d for out-of-range item %+v", ws, it)
		}
	}
}

// TestSharedReturnsSameStore pins the process-wide dedup: every caller
// with the same manifest shares one store instance.
func TestSharedReturnsSameStore(t *testing.T) {
	m := testManifest(t)
	var wg sync.WaitGroup
	stores := make([]*Store, 8)
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i] = Shared(m)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(stores); i++ {
		if stores[i] != stores[0] {
			t.Fatalf("Shared returned distinct stores for one manifest")
		}
	}
	if stores[0].Manifest() != m {
		t.Fatalf("shared store bound to wrong manifest")
	}
}

// TestConcurrentReaders drives many goroutines — standing in for many
// connection sender loops — through the full frame set of one shared
// store simultaneously, each flattening and CRC-verifying every frame.
// Run under -race this proves the serve-by-reference path needs no
// synchronization.
func TestConcurrentReaders(t *testing.T) {
	m := testManifest(t)
	s := Shared(m)
	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := make([][]byte, 0, 3)
			forEachFrame(m, func(_ int, it player.RequestItem) {
				var ok bool
				bufs, _, ok = s.AppendFrame(bufs[:0], it)
				if !ok {
					errs <- io.ErrUnexpectedEOF
					return
				}
				if _, err := proto.ReadMessage(bytes.NewReader(flatten(bufs))); err != nil {
					errs <- err
				}
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent reader: %v", err)
	}
}

// TestAppendFrameSteadyStateZeroWork pins the tentpole win: serving a
// tile in steady state is slice appends plus a vectored write — zero
// allocations, zero serialization, zero CRC work.
func TestAppendFrameSteadyStateZeroWork(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	it := player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: 3, Quality: video.Highest}
	// Two persistent slices, as in the server's sender loop: WriteTo
	// consumes the net.Buffers value it is called on (reslicing it
	// forward to zero capacity), so the write must run on a COPY of the
	// scratch header — reusing the consumed value would force the next
	// lap's appends to reallocate. Both live outside the measured closure
	// because WriteTo's pointer receiver makes a per-lap local escape.
	scratch := make(net.Buffers, 0, 3)
	var wire net.Buffers
	allocs := testing.AllocsPerRun(200, func() {
		var ok bool
		scratch, _, ok = s.AppendFrame(scratch[:0], it)
		if !ok {
			t.Fatal("AppendFrame failed")
		}
		wire = scratch
		if _, err := wire.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state send allocates %.1f times per frame, want 0", allocs)
	}
}

// MemoryBytes sanity: the footprint is per-frame overhead plus one
// payload slab, NOT payloads times frames.
func TestMemoryBytesIsSharedSlabModel(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	var maxSize int64
	forEachFrame(m, func(_ int, it player.RequestItem) {
		if sz := it.Size(m); sz > maxSize {
			maxSize = sz
		}
	})
	frame, err := s.ManifestFrame()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(s.NumFrames()*proto.TileFrameOverhead) + maxSize + int64(len(frame))
	if got := s.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}
