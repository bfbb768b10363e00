// Command fleetbench is the repository's end-to-end benchmark: one viewer
// session across the fleet (client → balancer → server → store over
// loopback TCP) and population-sweep throughput, each with a traced run
// that attributes the time to layers. See README.md in this directory.
//
// Usage:
//
//	fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// loadConns is the number of concurrent client connections and session
// goroutines of fleet-bulk and fleet-play (fleet-handshake uses one): the
// core count of the two-core reference host, fixed so that figures
// compare across hosts.
const loadConns = 2

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (BENCHMARK.json lists the same names and units).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"session_ms_p50", "ms"},
	{"session_ms_p95", "ms"},
	{"sessions_per_s", "1/s"},
	{"cpu_ms_per_video_s", "ms/s"},
	{"heap_live_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"proto.manifest_encode_ms", "ms"},
	{"proto.manifest_decode_ms", "ms"},
	{"proto.manifest_share", "ratio"},
	{"proto.handshake_ms_p50", "ms"},
	{"proto.first_tile_ms_p50", "ms"},
	{"proto.read_frame_us_p50", "us"},
	{"proto.frames", "count/session"},
	{"client.verify_us_p50", "us"},
	{"client.goodput_mb_s", "MB/s"},
	{"balancer.overhead_ms_p50", "ms"},
	{"server.primary_sent", "count/session"},
	{"server.bytes_sent", "bytes/session"},
	{"server.queue_len_p50", "count"},
	{"server.shed_items", "count/session"},
	{"store.memory_bytes", "bytes"},
	{"core.decide_us_p50", "us"},
	{"core.decide_us_p95", "us"},
	{"core.decisions", "count/session"},
	{"player.score_db", "dB"},
	{"player.skip_frame_pct", "%"},
	{"player.incomplete_frame_pct", "%"},
	{"player.mask_share", "ratio"},
	{"client.startup_ms_p50", "ms"},
	{"client.useful_ratio", "ratio"},
	{"client.disconnects", "count"},
	{"ingest.fold_us_per_event", "us"},
	{"ingest.events", "count/session"},
	{"popsim.session_ms_p50", "ms"},
	{"popsim.sample_us", "us"},
	{"popsim.state_bins", "count"},
	{"runtime.alloc_bytes_per_session", "bytes/session"},
	{"runtime.allocs_per_session", "count/session"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"video.generate_ms", "ms"},
	{"store.build_ms", "ms"},
	{"balancer.first_healthy_ms", "ms"},
	{"host.wall_slowdown", "ratio"},
	{"host.cpu_slowdown", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"session_fail_ratio", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"fleet-handshake": func(c config) (*report, error) { return runFetch(c, false) },
	"fleet-bulk":      func(c config) (*report, error) { return runFetch(c, true) },
	"fleet-play":      runPlay,
	"popsim-sweep":    runSweep,
}

// unreachable lists the blocking-path stages the benchmark cannot time
// from outside the program; they need spans inside it.
var unreachable = []string{
	"server queue residence (install to send)",
	"server vectored-write batch time",
	"balancer splice copy time",
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
	// wrap, when set, wraps every client connection; tests plant faults
	// with it.
	wrap func(net.Conn) net.Conn
}

// dialer applies the configured connection wrapper to d.
func (c config) dialer(d func() (net.Conn, error)) func() (net.Conn, error) {
	if c.wrap == nil {
		return d
	}
	return func() (net.Conn, error) {
		conn, err := d()
		if err != nil {
			return nil, err
		}
		return c.wrap(conn), nil
	}
}

// report collects a run's outcome and every metric it computed.
type report struct {
	attempted, failed int64
	wrong             []string
	values            map[string]float64
	samples           int // session latencies behind the percentiles
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase adds a measured phase's session counts and output checks.
func (r *report) phase(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.wrong = append(r.wrong, p.wrong...)
}

// setup records the median set-up and its stages.
func (r *report) setup(st setupTimes) {
	r.set("setup_s", st.Total.Seconds())
	r.set("video.generate_ms", ms(st.Generate))
	r.set("store.build_ms", ms(st.StoreBuild))
	r.set("balancer.first_healthy_ms", ms(st.FirstHealth))
}

// endToEnd derives the end-to-end metrics from the untraced phase.
func (r *report) endToEnd(p *phase) {
	r.set("session_ms_p50", p.refQuantile(0.5))
	r.set("session_ms_p95", p.refQuantile(0.95))
	r.set("sessions_per_s", float64(len(p.sessionMS))/p.refWall().Seconds())
	if p.videoSeconds > 0 {
		r.set("cpu_ms_per_video_s", ms(p.refCPU())/p.videoSeconds)
	}
	r.hostSlowdown(p)
	r.set("heap_live_peak_mb", float64(p.heapPeak)/1e6)
	r.samples = len(p.sessionMS)
	if p.payloadBytes > 0 {
		r.set("client.goodput_mb_s", float64(p.payloadBytes)/1e6/p.wall.Seconds())
	}
}

// hostSlowdown records how much slower than the reference host the host
// ran over the phase, in wall and in CPU time.
func (r *report) hostSlowdown(p *phase) {
	r.set("host.wall_slowdown", float64(p.wall)/float64(p.refWall()))
	if p.cpu > 0 {
		r.set("host.cpu_slowdown", float64(p.cpu)/float64(p.refCPU()))
	}
}

// runtimeLayers records allocation and GC cost per attempted session.
func (r *report) runtimeLayers(p *phase) {
	n := float64(max(p.attempted, 1))
	r.set("runtime.alloc_bytes_per_session", float64(p.rt.allocBytes)/n)
	r.set("runtime.allocs_per_session", float64(p.rt.allocObjects)/n)
	if p.rt.totalCPU > 0 {
		r.set("runtime.gc_cpu_fraction", p.rt.gcCPU/p.rt.totalCPU)
	}
}

// decideLayers records the Decide timings the wrapper collected.
func (r *report) decideLayers(tr *tracer, sessions int) {
	d := tr.get("core.decide_us")
	r.set("core.decide_us_p50", quantile(d, 0.5))
	r.set("core.decide_us_p95", quantile(d, 0.95))
	r.set("core.decisions", float64(len(d))/float64(max(sessions, 1)))
}

// writeSpans stores a traced pass's spans under the spans directory.
func (r *report) writeSpans(cfg config, pass string, tr *tracer) error {
	if cfg.spansDir == "" {
		return nil
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, pass))
	if err := tr.write(path); err != nil {
		return err
	}
	r.note("spans of the %s pass: %s", pass, path)
	return nil
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the JSON result for the metric set the mode reports.
func (r *report) result(trace bool) result {
	if r.attempted > 0 {
		r.set("session_fail_ratio", float64(r.failed)/float64(r.attempted))
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, s := range specs {
		v := r.values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[s.name] = resultValue{Value: v, Unit: s.unit}
	}
	return out
}

// printHuman writes the readable part of the report: host facts, every
// metric the run computed, the notes and the stages out of reach.
func printHuman(cfg config, r *report) {
	fmt.Printf("fleetbench workload=%s seed=%d seconds=%v trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s loopback=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, loopbackFacts())
	fmt.Printf("sessions: attempted=%d failed=%d latency samples=%d\n", r.attempted, r.failed, r.samples)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[s.name] = s.unit
	}
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, r.values[n], units[n])
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	if cfg.trace {
		fmt.Println("not reachable from outside the program (need in-program spans):", strings.Join(unreachable, "; "))
	}
	for _, w := range r.wrong {
		fmt.Println("WRONG:", w)
	}
}

// loopbackFacts names the loopback interface the fleet runs over.
func loopbackFacts() string {
	ifs, err := net.Interfaces()
	if err != nil {
		return "127.0.0.1"
	}
	for _, i := range ifs {
		if i.Flags&net.FlagLoopback != 0 {
			return fmt.Sprintf("127.0.0.1 (%s mtu %d)", i.Name, i.MTU)
		}
	}
	return "127.0.0.1"
}

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		if err := runSetupChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench set-up:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: fleet-handshake, fleet-bulk, fleet-play or popsim-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: fleetbench --workload <fleet-handshake|fleet-bulk|fleet-play|popsim-sweep> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	printHuman(cfg, r)
	line, err := json.Marshal(r.result(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
