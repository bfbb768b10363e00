package video

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// A manifest travels in one fixed-width big-endian binary form:
//
//	u16 ID length, ID bytes
//	u32 Rows, Cols, FPS, ChunkFrames, NumChunks
//	u8  quality count (NumQualities)
//	i64 sizes       [chunk][tile][quality]
//	f64 PSNR        [chunk][tile][quality]
//	f64 PSPNR       [chunk][tile][quality]
//	f64 black PSNR  [chunk][tile]
//	i64 full360     [chunk][quality]
//	f64 MaskDisplacement [chunk]
//	u8  checksum presence: 0 (none) or 1, followed by
//	u32 checksums   [chunk][tile][quality]
//	u32 full360 checksums [chunk][quality]
//
// Floats travel as their IEEE-754 bits, so a round trip is exact. The
// header fixes the length of everything after it, so a reader checks the
// exact body length before it allocates a single array.
const (
	manifestDims     = 5
	manifestHeadSize = 2 + 4*manifestDims + 1 // excluding the ID bytes
	maxManifestDim   = math.MaxInt32
	// pairSize is the array bytes each (chunk, tile) pair contributes:
	// size, PSNR and PSPNR per quality, plus its black PSNR.
	pairSize = 8 * (3*NumQualities + 1)
)

// arraysSize is the byte width of the arrays between the header and the
// checksum presence byte, and sumsSize that of the checksum section.
func arraysSize(chunks, tiles int) int {
	ct := chunks * tiles
	return 8 * (3*ct*NumQualities + ct + chunks*NumQualities + chunks)
}

func sumsSize(chunks, tiles int) int {
	return 4 * (chunks*tiles*NumQualities + chunks*NumQualities)
}

// BinarySize returns the byte length of the manifest's binary form.
func (m *Manifest) BinarySize() int {
	n := manifestHeadSize + len(m.VideoID) + arraysSize(m.NumChunks, m.NumTiles()) + 1
	if m.HasChecksums() {
		n += sumsSize(m.NumChunks, m.NumTiles())
	}
	return n
}

// AppendBinary appends the manifest's binary form to b.
func (m *Manifest) AppendBinary(b []byte) ([]byte, error) {
	if len(m.VideoID) > math.MaxUint16 {
		return b, fmt.Errorf("video: manifest ID is %d bytes, max %d", len(m.VideoID), math.MaxUint16)
	}
	dims := [manifestDims]int{m.Rows, m.Cols, m.FPS, m.ChunkFrames, m.NumChunks}
	for _, d := range dims {
		if d <= 0 || d > maxManifestDim {
			return b, fmt.Errorf("video: manifest %q has invalid dimensions", m.VideoID)
		}
	}
	if len(m.MaskDisplacement) != m.NumChunks {
		return b, fmt.Errorf("video: manifest %q has %d mask displacements for %d chunks",
			m.VideoID, len(m.MaskDisplacement), m.NumChunks)
	}
	b = slices.Grow(b, m.BinarySize())
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.VideoID)))
	b = append(b, m.VideoID...)
	for _, d := range dims {
		b = binary.BigEndian.AppendUint32(b, uint32(d))
	}
	b = append(b, NumQualities)
	b = appendInt64s(b, m.sizes)
	b = appendFloat64s(b, m.psnr)
	b = appendFloat64s(b, m.pspnr)
	b = appendFloat64s(b, m.blackPSNR)
	b = appendInt64s(b, m.full360)
	b = appendFloat64s(b, m.MaskDisplacement)
	if !m.HasChecksums() {
		return append(b, 0), nil
	}
	b = append(b, 1)
	b = appendUint32s(b, m.checksums)
	return appendUint32s(b, m.full360Checksums), nil
}

// WriteTo writes the manifest's binary form.
func (m *Manifest) WriteTo(w io.Writer) (int64, error) {
	b, err := m.AppendBinary(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadManifest decodes one complete binary manifest body. It rejects
// invalid dimensions, a quality count other than NumQualities, a body
// shorter or longer than its header implies, negative sizes, and a
// checksum section that is not all-or-nothing. The decoded manifest owns
// its memory: nothing aliases body, so callers may reuse the buffer.
func ReadManifest(body []byte) (*Manifest, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("video: manifest truncated in its ID length")
	}
	idLen := int(binary.BigEndian.Uint16(body))
	if len(body) < manifestHeadSize+idLen {
		return nil, fmt.Errorf("video: manifest truncated in its header (%d bytes)", len(body))
	}
	id := body[2 : 2+idLen]
	head := body[2+idLen : manifestHeadSize+idLen]
	rest := body[manifestHeadSize+idLen:]

	var dims [manifestDims]int
	for i := range dims {
		d := binary.BigEndian.Uint32(head[4*i:])
		if d == 0 || d > maxManifestDim {
			return nil, fmt.Errorf("video: manifest %q has invalid dimensions", id)
		}
		dims[i] = int(d)
	}
	if q := head[4*manifestDims]; q != NumQualities {
		return nil, fmt.Errorf("video: manifest %q has %d quality levels, want %d", id, q, NumQualities)
	}
	rows, cols, chunks := dims[0], dims[1], dims[4]
	// Every (chunk, tile) pair costs pairSize bytes of arrays, so a body
	// that cannot hold them all is truncated. Rejecting it here, in
	// overflow-free division form, also bounds every later product by the
	// body length.
	limit := uint64(len(rest)) / pairSize
	if tiles := uint64(rows) * uint64(cols); tiles > limit || uint64(chunks) > limit/tiles {
		return nil, fmt.Errorf("video: manifest %q dimensions %dx%dx%d exceed its %d-byte body", id, rows, cols, chunks, len(rest))
	}
	tiles := rows * cols
	arrays := arraysSize(chunks, tiles)
	if len(rest) <= arrays {
		return nil, fmt.Errorf("video: manifest %q truncated: %d bytes of arrays, want %d", id, len(rest), arrays+1)
	}
	want := arrays + 1
	switch rest[arrays] {
	case 0:
	case 1:
		want += sumsSize(chunks, tiles)
	default:
		return nil, fmt.Errorf("video: manifest %q has checksum presence byte %d", id, rest[arrays])
	}
	if len(rest) < want {
		return nil, fmt.Errorf("video: manifest %q truncated: %d bytes after its header, want %d", id, len(rest), want)
	}
	if len(rest) > want {
		return nil, fmt.Errorf("video: manifest %q has %d trailing bytes", id, len(rest)-want)
	}

	m := NewManifest(string(id), rows, cols, dims[2], dims[3], chunks)
	rest = getInt64s(m.sizes, rest)
	rest = getFloat64s(m.psnr, rest)
	rest = getFloat64s(m.pspnr, rest)
	rest = getFloat64s(m.blackPSNR, rest)
	rest = getInt64s(m.full360, rest)
	rest = getFloat64s(m.MaskDisplacement, rest)
	for _, sizes := range [][]int64{m.sizes, m.full360} {
		for _, s := range sizes {
			if s < 0 {
				return nil, fmt.Errorf("video: manifest %q has negative tile size", m.VideoID)
			}
		}
	}
	if rest[0] == 1 {
		m.allocChecksums()
		rest = getUint32s(m.checksums, rest[1:])
		getUint32s(m.full360Checksums, rest)
	}
	return m, nil
}

func appendInt64s(b []byte, xs []int64) []byte {
	for _, x := range xs {
		b = binary.BigEndian.AppendUint64(b, uint64(x))
	}
	return b
}

func appendFloat64s(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendUint32s(b []byte, xs []uint32) []byte {
	for _, x := range xs {
		b = binary.BigEndian.AppendUint32(b, x)
	}
	return b
}

// The get helpers fill dst from the front of b and return the remainder;
// ReadManifest has already checked that b is long enough.

func getInt64s(dst []int64, b []byte) []byte {
	for i := range dst {
		dst[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return b[8*len(dst):]
}

func getFloat64s(dst []float64, b []byte) []byte {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return b[8*len(dst):]
}

func getUint32s(dst []uint32, b []byte) []byte {
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return b[4*len(dst):]
}
