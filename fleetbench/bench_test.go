package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/proto"
)

// TestMain lets the test binary serve as the set-up child that coldSetups
// re-executes.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		if err := runSetupChild(spec); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun runs one workload for one measured second.
func shortRun(t *testing.T, workload string, trace bool) (*report, result) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: time.Second, trace: trace, spansDir: t.TempDir()}
	r, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	res := r.result(trace)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d wrong=%v",
			workload, trace, res.Correct, res.Attempted, res.Failed, r.wrong)
	}
	return r, res
}

// TestShortRunEmitsEveryMetric runs every workload of BENCHMARK.json in
// both modes and checks each named metric is emitted with its unit, every
// end-to-end metric is non-zero, and the traced workloads contrast as the
// benchmark's design says: the manifest exchange is a larger share of a
// fleet-handshake session than of a fleet-bulk one, and Decide runs only
// on the workloads that schedule.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, fleetbench runs %d", len(spec.Workloads), len(workloads))
	}
	layers := map[string]map[string]float64{}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		_, e2e := shortRun(t, w.Name, false)
		if len(e2e.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, BENCHMARK.json names %d", w.Name, len(e2e.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := e2e.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		_, lay := shortRun(t, w.Name, true)
		if len(lay.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json names %d", w.Name, len(lay.Metrics), len(spec.PerLayer))
		}
		layers[w.Name] = map[string]float64{}
		for _, m := range spec.PerLayer {
			got, ok := lay.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
			layers[w.Name][m.Name] = got.Value
		}
		if c := layers[w.Name]["trace.coverage"]; c <= 0 || c > 1.05 {
			t.Errorf("%s: trace.coverage = %v, want in (0, 1.05]", w.Name, c)
		}
	}
	hs, bulk := layers["fleet-handshake"], layers["fleet-bulk"]
	if hs["proto.manifest_share"] <= bulk["proto.manifest_share"] {
		t.Errorf("manifest share: fleet-handshake %.3f, fleet-bulk %.3f; want handshake larger",
			hs["proto.manifest_share"], bulk["proto.manifest_share"])
	}
	for _, w := range []string{"fleet-handshake", "fleet-bulk"} {
		if n := layers[w]["core.decisions"]; n != 0 {
			t.Errorf("%s: core.decisions = %v, want 0 (no scheduler on the fetch path)", w, n)
		}
	}
	for _, w := range []string{"fleet-play", "popsim-sweep"} {
		if n := layers[w]["core.decisions"]; n <= 0 {
			t.Errorf("%s: core.decisions = %v, want > 0", w, n)
		}
	}
}

// flipConn flips one bit of the byte at offset at in the stream it reads.
type flipConn struct {
	net.Conn
	at, pos int64
}

func (c *flipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if off := c.at - c.pos; off >= 0 && off < int64(n) {
		p[off] ^= 0x10
	}
	c.pos += int64(n)
	return n, err
}

// TestCorruptConnCountsFailedSession plants a connection wrapper that
// corrupts one byte of the first session's tile stream: the session must
// fail, and only that one.
func TestCorruptConnCountsFailedSession(t *testing.T) {
	var conns atomic.Int64
	cfg := config{workload: "fleet-bulk", seed: 3, seconds: time.Second, spansDir: t.TempDir(),
		wrap: func(c net.Conn) net.Conn {
			if conns.Add(1) == 1 {
				return &flipConn{Conn: c, at: 5 << 20} // past the manifest, inside the tiles
			}
			return c
		}}
	r, err := runFetch(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	res := r.result(false)
	if res.Failed != 1 || res.Attempted < 2 {
		t.Fatalf("attempted %d, failed %d; want exactly the corrupted session failed", res.Attempted, res.Failed)
	}
	if v := r.values["session_fail_ratio"]; v <= 0 {
		t.Fatalf("session_fail_ratio = %v, want > 0", v)
	}
}

// TestVerifyTileRejectsWrongOutput covers the checks the frame CRC cannot
// make: a payload whose manifest checksum fails, a duplicate tile and an
// unrequested one are wrong output, not transport failures.
func TestVerifyTileRejectsWrongOutput(t *testing.T) {
	m := benchVideo("verify", 2)
	it := player.RequestItem{Stream: player.Primary, Chunk: 1, Tile: 5, Quality: 2}
	want := make([]int8, m.NumChunks*m.NumTiles())
	want[it.Chunk*m.NumTiles()+int(it.Tile)] = int8(it.Quality) + 1
	payload := make([]byte, it.Size(m))
	good := &proto.TileData{Item: it, Payload: payload}

	seen := make([]bool, len(want))
	if err := verifyTile(m, m, good, want, seen); err != nil {
		t.Fatalf("intact tile: %v", err)
	}
	var wo *wrongOutput
	if err := verifyTile(m, m, good, want, seen); !errors.As(err, &wo) {
		t.Fatalf("duplicate tile: got %v, want wrong output", err)
	}
	bad := append([]byte(nil), payload...)
	bad[len(bad)/2] ^= 1
	if err := verifyTile(m, m, &proto.TileData{Item: it, Payload: bad}, want, make([]bool, len(want))); !errors.As(err, &wo) {
		t.Fatalf("corrupt payload: got %v, want wrong output", err)
	}
	other := it
	other.Tile = 6
	if err := verifyTile(m, m, &proto.TileData{Item: other, Payload: make([]byte, other.Size(m))}, want, make([]bool, len(want))); !errors.As(err, &wo) {
		t.Fatalf("unrequested tile: got %v, want wrong output", err)
	}
}

// TestRoundScaling checks the calibrated-round arithmetic of hostref.go: a
// round on a host twice as slow as the reference counts half its time,
// and its sessions count half as long.
func TestRoundScaling(t *testing.T) {
	sec := time.Second
	p := &phase{
		wall: 4 * sec, cpu: 6 * sec,
		sessionMS:    []float64{20, 40, 10, 20},
		sessionRound: []int{0, 0, 1, 1},
		rounds: []round{
			{wall: 2 * sec, cpu: 4 * sec, wallSlow: 2, cpuSlow: 4},
			{wall: 2 * sec, cpu: 2 * sec, wallSlow: 1, cpuSlow: 1},
		},
	}
	if got := p.refWall(); got != 3*sec {
		t.Errorf("refWall = %v, want 3s", got)
	}
	if got := p.refCPU(); got != 3*sec {
		t.Errorf("refCPU = %v, want 3s", got)
	}
	if got := p.refQuantile(0.5); got != 15 {
		t.Errorf("refQuantile(0.5) = %v, want 15 (both rounds' scaled median)", got)
	}

	h := hostRef{threads: 1, cals: []calibration{
		{wallMS: refNominalWallMS[0], cpuMS: refNominalCPUMS},
		{wallMS: 3 * refNominalWallMS[0], cpuMS: 2 * refNominalCPUMS},
	}}
	if w, c := h.between(0); w != 2 || c != 1.5 {
		t.Errorf("between(0) = %v, %v; want 2, 1.5", w, c)
	}
}
