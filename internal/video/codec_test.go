package video

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dragonfly/internal/geom"
)

// Section names of the binary layout, in order (see codec.go).
const (
	secIDLen = iota
	secID
	secRows
	secCols
	secFPS
	secChunkFrames
	secChunks
	secQualities
	secSizes
	secPSNR
	secPSPNR
	secBlackPSNR
	secFull360
	secMask
	secPresence
	secChecksums
	secFull360Checksums
)

// sectionEnds returns the offset at which each section of m's binary form
// ends, derived from the documented layout rather than from the encoder.
func sectionEnds(m *Manifest) []int {
	ct := m.NumChunks * m.NumTiles()
	tq, cq := ct*NumQualities, m.NumChunks*NumQualities
	widths := []int{2, len(m.VideoID), 4, 4, 4, 4, 4, 1, 8 * tq, 8 * tq, 8 * tq, 8 * ct, 8 * cq, 8 * m.NumChunks, 1}
	if m.HasChecksums() {
		widths = append(widths, 4*tq, 4*cq)
	}
	ends := make([]int, len(widths))
	off := 0
	for i, w := range widths {
		off += w
		ends[i] = off
	}
	return ends
}

// sectionStart is the offset at which section sec begins.
func sectionStart(m *Manifest, sec int) int {
	if sec == 0 {
		return 0
	}
	return sectionEnds(m)[sec-1]
}

func encodeManifest(t testing.TB, m *Manifest) []byte {
	t.Helper()
	b, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != m.BinarySize() {
		t.Fatalf("encoded %d bytes, BinarySize says %d", len(b), m.BinarySize())
	}
	return b
}

// smallManifest is a generated manifest with checksums, small enough to
// corrupt byte by byte.
func smallManifest() *Manifest {
	return Generate(GenParams{ID: "ck", Rows: 2, Cols: 3, NumChunks: 2, Seed: 9})
}

// noSumsManifest is a manifest that never had payload checksums set.
func noSumsManifest() *Manifest {
	m := NewManifest("plain", 2, 2, 30, 30, 2)
	m.SetTileSize(1, geom.TileID(3), Highest, 4321)
	m.SetFull360Size(0, Lowest, 99)
	m.MaskDisplacement[1] = 12.5
	return m
}

func TestManifestBinaryRoundTrip(t *testing.T) {
	m := testManifest(t)
	m.MaskDisplacement[3] = 42.5
	// Floats travel as raw bits: special values survive unchanged.
	m.SetTilePSNR(0, geom.TileID(1), Lowest, math.Inf(1))
	m.SetTilePSPNR(0, geom.TileID(1), Lowest, math.Copysign(0, -1))
	raw := encodeManifest(t, m)
	if ends := sectionEnds(m); ends[len(ends)-1] != len(raw) {
		t.Fatalf("encoded %d bytes, the documented layout says %d", len(raw), ends[len(ends)-1])
	}
	body := append([]byte(nil), raw...)
	got, err := ReadManifest(body)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded manifest owns its memory: scribbling over the body must
	// not reach it.
	for i := range body {
		body[i] = 0xA5
	}
	if got.VideoID != m.VideoID || got.Rows != m.Rows || got.Cols != m.Cols || got.FPS != m.FPS ||
		got.ChunkFrames != m.ChunkFrames || got.NumChunks != m.NumChunks {
		t.Fatal("round trip lost identity or dimensions")
	}
	if got.MaskDisplacement[3] != 42.5 {
		t.Error("round trip lost mask displacement")
	}
	if !got.HasChecksums() {
		t.Error("round trip dropped checksums")
	}
	if !bytes.Equal(encodeManifest(t, got), raw) {
		t.Fatal("re-encoding the decoded manifest changed its bytes")
	}
	for c := 0; c < m.NumChunks; c += 3 {
		for tl := 0; tl < m.NumTiles(); tl += 17 {
			for q := Quality(0); q < NumQualities; q++ {
				id := geom.TileID(tl)
				if got.TileSize(c, id, q) != m.TileSize(c, id, q) ||
					got.TileChecksum(c, id, q) != m.TileChecksum(c, id, q) {
					t.Fatal("round trip lost sizes or checksums")
				}
				if math.Float64bits(got.TilePSNR(c, id, q)) != math.Float64bits(m.TilePSNR(c, id, q)) ||
					math.Float64bits(got.TilePSPNR(c, id, q)) != math.Float64bits(m.TilePSPNR(c, id, q)) {
					t.Fatal("round trip lost PSNR or PSPNR bits")
				}
			}
		}
	}
}

func TestWriteToRejectsUnencodable(t *testing.T) {
	m := noSumsManifest()
	m.MaskDisplacement = m.MaskDisplacement[:1]
	if _, err := m.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("manifest with a short MaskDisplacement encoded")
	}
	m = noSumsManifest()
	m.VideoID = string(make([]byte, math.MaxUint16+1))
	if _, err := m.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("manifest with an over-long ID encoded")
	}
}

// v3JSON is a well-formed manifest in the JSON body of wire v3.
const v3JSON = `{"video_id":"x","rows":1,"cols":1,"fps":30,"chunk_frames":30,"num_chunks":1,` +
	`"qps":[42,37,32,27,22],"sizes":[1,2,3,4,5],"psnr":[1,2,3,4,5],"pspnr":[1,2,3,4,5],` +
	`"black_psnr":[1],"full360":[1,2,3,4,5],"mask_displacement":[0]}`

func TestReadManifestRejectsCorrupt(t *testing.T) {
	m := smallManifest()
	good := encodeManifest(t, m)
	if _, err := ReadManifest(good); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	at := func(sec int) int { return sectionStart(m, sec) }
	putU32 := func(sec int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.BigEndian.PutUint32(b[at(sec):], v); return b }
	}
	type corruptCase struct {
		name string
		edit func([]byte) []byte
	}
	cases := []corruptCase{
		{"empty", func([]byte) []byte { return nil }},
		{"one byte", func(b []byte) []byte { return b[:1] }},
		{"ID length beyond the body", func(b []byte) []byte { binary.BigEndian.PutUint16(b, math.MaxUint16); return b }},
		{"presence byte neither 0 nor 1", func(b []byte) []byte { b[at(secPresence)] = 2; return b[:at(secChecksums)] }},
		{"zero rows", putU32(secRows, 0)},
		{"zero cols", putU32(secCols, 0)},
		{"zero fps", putU32(secFPS, 0)},
		{"zero chunk frames", putU32(secChunkFrames, 0)},
		{"zero chunks", putU32(secChunks, 0)},
		{"dimension beyond int32", putU32(secFPS, math.MaxInt32+1)},
		{"too few qualities", func(b []byte) []byte { b[at(secQualities)] = NumQualities - 1; return b }},
		{"too many qualities", func(b []byte) []byte { b[at(secQualities)] = NumQualities + 1; return b }},
		{"short arrays for the claimed rows", putU32(secRows, uint32(m.Rows+1))},
		{"short arrays for the claimed chunks", putU32(secChunks, uint32(m.NumChunks+1))},
		{"overflowing dimension product", func(b []byte) []byte {
			for sec := secRows; sec <= secChunks; sec++ {
				binary.BigEndian.PutUint32(b[at(sec):], math.MaxInt32)
			}
			return b
		}},
		{"negative tile size", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[at(secSizes)+8*7:], math.MaxUint64)
			return b
		}},
		{"negative full360 size", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[at(secFull360):], 1<<63)
			return b
		}},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
		{"trailing manifest", func(b []byte) []byte { return append(b, good...) }},
		{"wire-v3 JSON manifest", func([]byte) []byte { return []byte(v3JSON) }},
		{"truncated JSON", func([]byte) []byte { return []byte(`{`) }},
	}
	ends := sectionEnds(m)
	for sec, end := range ends[:len(ends)-1] {
		// Truncation exactly at every section boundary, and one byte
		// short of it.
		for _, n := range []int{end, end - 1} {
			n := n
			name := fmt.Sprintf("truncated to %d bytes, at the end of section %d", n, sec)
			cases = append(cases, corruptCase{name, func(b []byte) []byte { return b[:n] }})
		}
	}
	cases = append(cases, corruptCase{"one byte short", func(b []byte) []byte { return b[:len(b)-1] }})
	for _, c := range cases {
		body := c.edit(append([]byte(nil), good...))
		if got, err := ReadManifest(body); err == nil {
			t.Errorf("%s: corrupt manifest accepted (%q, %d chunks)", c.name, got.VideoID, got.NumChunks)
		}
	}
}

func TestReadManifestRejectsBeforeAllocating(t *testing.T) {
	// A header claiming 2^31-1 of every dimension over a 1 KB body must be
	// rejected on its length, never by attempting the allocation.
	m := noSumsManifest()
	body := make([]byte, sectionStart(m, secSizes)+1024)
	copy(body, encodeManifest(t, m))
	for sec := secRows; sec <= secChunks; sec++ {
		binary.BigEndian.PutUint32(body[sectionStart(m, sec):], math.MaxInt32)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		if _, err := ReadManifest(body); err == nil {
			t.Fatal("hostile dimensions accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Errorf("rejecting hostile dimensions allocated %d bytes per call", per)
	}

	// 2^30 x 2^30 tiles x 16 chunks is 2^64 (chunk, tile) pairs, which
	// wraps to zero in 64-bit arithmetic: sized with wrapped products,
	// the body would need only its per-chunk arrays. It must be rejected
	// as too large, not decoded into a manifest with empty tile arrays.
	const chunks = 16
	wrapped := append([]byte(nil), body[:sectionStart(m, secSizes)]...)
	binary.BigEndian.PutUint32(wrapped[sectionStart(m, secRows):], 1<<30)
	binary.BigEndian.PutUint32(wrapped[sectionStart(m, secCols):], 1<<30)
	binary.BigEndian.PutUint32(wrapped[sectionStart(m, secChunks):], chunks)
	wrapped = append(wrapped, make([]byte, 8*chunks*(NumQualities+1)+1)...)
	if got, err := ReadManifest(wrapped); err == nil {
		t.Fatalf("wrapping dimension product accepted: %dx%d tiles, %d sizes", got.Rows, got.Cols, len(got.sizes))
	}
}

func TestReadManifestRejectsPartialChecksums(t *testing.T) {
	m := smallManifest()
	good := encodeManifest(t, m)
	ends := sectionEnds(m)
	// Tile checksums present, full-360° checksums missing.
	if _, err := ReadManifest(good[:ends[secChecksums]]); err == nil {
		t.Error("manifest with partial checksum arrays accepted")
	}
	// Presence claimed, no checksum bytes at all.
	if _, err := ReadManifest(good[:ends[secPresence]]); err == nil {
		t.Error("manifest claiming checksums without any accepted")
	}
	// Checksums present behind a presence byte that says none.
	zeroed := append([]byte(nil), good...)
	zeroed[ends[secMask]] = 0
	if _, err := ReadManifest(zeroed); err == nil {
		t.Error("checksum bytes behind a zero presence byte accepted")
	}

	// No checksums at all is a valid manifest, both as encoded from a
	// manifest that never had them and as cut from one that did.
	plain := noSumsManifest()
	got, err := ReadManifest(encodeManifest(t, plain))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasChecksums() || got.TileSize(1, geom.TileID(3), Highest) != 4321 ||
		got.Full360Size(0, Lowest) != 99 || got.MaskDisplacement[1] != 12.5 {
		t.Errorf("checksum-free manifest did not round-trip: checksums %v", got.HasChecksums())
	}
	cut := append([]byte(nil), good[:ends[secPresence]]...)
	cut[len(cut)-1] = 0
	got, err = ReadManifest(cut)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasChecksums() {
		t.Error("manifest without a checksum section claims checksums")
	}
	if got.TileSize(1, geom.TileID(5), Highest) != m.TileSize(1, geom.TileID(5), Highest) {
		t.Error("checksum-free manifest lost its sizes")
	}
}

// FuzzReadManifest hammers the binary manifest decoder: it must never
// panic or over-allocate, and every body it accepts is canonical —
// re-encoding the decoded manifest reproduces the input exactly. Run with
// `go test -fuzz FuzzReadManifest ./internal/video` for a real campaign.
func FuzzReadManifest(f *testing.F) {
	// Small seeds keep the engine's minimization of each new input fast.
	plain := NewManifest("p", 1, 1, 30, 30, 1)
	plain.SetTileSize(0, 0, Highest, 7)
	for _, m := range []*Manifest{Generate(GenParams{ID: "f", Rows: 1, Cols: 2, NumChunks: 1, Seed: 9}), plain} {
		b := encodeManifest(f, m)
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(b[:len(b)/2])
		f.Add(b[:sectionStart(m, secSizes)])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := ReadManifest(body)
		if err != nil {
			return
		}
		again, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("re-encoded %d bytes differ from the %d accepted", len(again), len(body))
		}
	})
}
