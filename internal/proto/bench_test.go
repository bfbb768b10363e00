package proto

import (
	"bytes"
	"io"
	"testing"

	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// The framing benchmarks measure the CRC32-C trailer's cost on the tile
// hot path: one framed write and one framed read of a typical ~128 KB tile
// payload, with and without the checksum. scripts/bench.sh snapshots them
// into BENCH_baseline.json so cmd/benchdiff gates regressions, and the
// CRC/no-CRC pair documents the overhead headroom (budget: <= 5% end to
// end, per ISSUE 5).

const benchPayloadSize = 128 << 10

func benchTile() TileData {
	return TileData{
		Item:    player.RequestItem{Stream: player.Primary, Chunk: 9, Tile: 31, Quality: 3},
		Payload: bytes.Repeat([]byte{0x5A}, benchPayloadSize),
	}
}

func benchFrameWrite(b *testing.B, withCRC bool) {
	td := benchTile()
	body := make([]byte, itemWireSize+len(td.Payload))
	encodeItem(body, td.Item)
	copy(body[itemWireSize:], td.Payload)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeFrameChecked(io.Discard, MsgTileData, body, withCRC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameWriteCRC(b *testing.B)   { benchFrameWrite(b, true) }
func BenchmarkFrameWriteNoCRC(b *testing.B) { benchFrameWrite(b, false) }

func benchFrameRead(b *testing.B, withCRC bool) {
	var buf bytes.Buffer
	td := benchTile()
	body := make([]byte, itemWireSize+len(td.Payload))
	encodeItem(body, td.Item)
	copy(body[itemWireSize:], td.Payload)
	if err := writeFrameChecked(&buf, MsgTileData, body, withCRC); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, _, err := readFrameChecked(r, withCRC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameReadCRC(b *testing.B)   { benchFrameRead(b, true) }
func BenchmarkFrameReadNoCRC(b *testing.B) { benchFrameRead(b, false) }

// BenchmarkFrameWritePreframed measures the steady-state send cost once a
// tile is pre-framed: three buffer writes, no serialization, no CRC. This
// is the per-send work the store-backed server does, against
// BenchmarkFrameWriteCRC's per-send framing it replaces.
func BenchmarkFrameWritePreframed(b *testing.B) {
	td := benchTile()
	head := make([]byte, TileHeadSize)
	trailer := make([]byte, TileTrailerSize)
	if err := PreframeTile(head, trailer, td.Item, td.Payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(itemWireSize + len(td.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := io.Discard.Write(head); err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(td.Payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(trailer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameReadReuse measures the pooled read path: the same tile
// frame read repeatedly through ReadMessageBuf with a recycled body
// buffer, against BenchmarkFrameReadCRC's allocate-per-read baseline.
func BenchmarkFrameReadReuse(b *testing.B) {
	var wire bytes.Buffer
	td := benchTile()
	if err := WriteTileData(&wire, td); err != nil {
		b.Fatal(err)
	}
	frame := wire.Bytes()
	r := bytes.NewReader(frame)
	var buf []byte
	b.SetBytes(int64(itemWireSize + len(td.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var err error
		if _, buf, err = ReadMessageBuf(r, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchManifest is the paper-geometry video the fleet benchmark serves:
// 12×12 tiles, 5 qualities, 10 one-second chunks.
func benchManifest() *video.Manifest {
	return video.Generate(video.GenParams{ID: "bench", Seed: 2, NumChunks: 10})
}

// BenchmarkManifestWrite measures the reference manifest encoder: binary
// body, framing and CRC trailer. The server pays it once per store, not
// once per session.
func BenchmarkManifestWrite(b *testing.B) {
	m := benchManifest()
	b.SetBytes(int64(m.BinarySize()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteManifest(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManifestRead measures what a client pays per session to read
// the manifest frame: CRC check and binary decode into owned arrays.
func BenchmarkManifestRead(b *testing.B) {
	m := benchManifest()
	var wire bytes.Buffer
	if err := WriteManifest(&wire, m); err != nil {
		b.Fatal(err)
	}
	frame := wire.Bytes()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(m.BinarySize()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := ReadMessage(r); err != nil {
			b.Fatal(err)
		}
	}
}
