package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dragonfly/internal/balancer"
	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/quality"
	"dragonfly/internal/server"
	"dragonfly/internal/store"
	"dragonfly/internal/video"
)

// fleetServers is the fleet size: two tile servers behind one balancer.
const fleetServers = 2

// setupTimes splits one set-up into the stages the per-layer report names.
// A set-up child process reports it as JSON.
type setupTimes struct {
	Total       time.Duration
	Generate    time.Duration // video.Generate
	StoreBuild  time.Duration // store.Shared (the pre-framed tile store)
	FirstHealth time.Duration // balancer serving until every member answered a probe
}

// fleet is the system under test for the three fleet workloads: two
// server.Servers and one balancer.Balancer, each on its own 127.0.0.1 TCP
// listener inside this process, so every byte crosses the loopback
// interface and no real link.
type fleet struct {
	m       *video.Manifest
	store   *store.Store
	servers []*server.Server
	regs    []*obs.Registry // one per server, read through Snapshot
	addrs   []string        // server listen addresses
	bal     *balancer.Balancer
	fronts  []string // balancer listen addresses, one per client worker

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// benchVideo generates the paper-geometry video every fleet workload
// serves: 12×12 tiles, 5 qualities, 1-second chunks. The generator seed is
// fixed so the library is the same for every benchmark seed; the seed
// drives the viewers instead.
func benchVideo(id string, chunks int) *video.Manifest {
	m := video.Generate(video.GenParams{ID: id, Seed: 2, NumChunks: chunks})
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	return m
}

// warmTables builds the process-wide overlap and score tables the
// scheduler reads, so no session pays for them inside the measured phase.
// They are keyed by tiling, so only the first set-up of a process builds
// the overlap planes.
func warmTables(m *video.Manifest) {
	tab := geom.SharedTable(m.Grid(), geom.TableParams{})
	geom.DefaultRoIs.Planes(tab)
	tab.Plane(geom.DefaultViewport.RadiusDeg)
	quality.Scores(m, quality.PSNR)
}

// startFleet generates the video, builds its store and tables, starts the
// servers and the balancer, and returns once every member has answered a
// health probe. The balancer serves loadConns front listeners, one per
// client worker, so a worker's connections reach it in a fixed order;
// shape, when non-nil, wraps front listener i.
func startFleet(id string, chunks int, shape func(l net.Listener, i int) net.Listener) (*fleet, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	m := benchVideo(id, chunks)
	st.Generate = time.Since(t0)

	t1 := time.Now()
	f := &fleet{m: m, store: store.Shared(m)}
	st.StoreBuild = time.Since(t1)
	warmTables(m)

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	var cfgs []balancer.BackendConfig
	for i := 0; i < fleetServers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, st, fmt.Errorf("server listen: %w", err)
		}
		reg := obs.NewRegistry()
		s := server.New(m)
		s.Obs = reg
		f.servers = append(f.servers, s)
		f.regs = append(f.regs, reg)
		f.addrs = append(f.addrs, l.Addr().String())
		cfgs = append(cfgs, balancer.BackendConfig{Addr: l.Addr().String()})
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = s.Serve(ctx, l)
		}()
	}
	bal, err := balancer.New(balancer.Config{Backends: cfgs, ProbeInterval: 200 * time.Millisecond})
	if err != nil {
		f.stop()
		return nil, st, err
	}
	f.bal = bal
	t2 := time.Now()
	for i := 0; i < loadConns; i++ {
		fl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, st, fmt.Errorf("balancer listen: %w", err)
		}
		f.fronts = append(f.fronts, fl.Addr().String())
		if shape != nil {
			fl = shape(fl, i)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = bal.Serve(ctx, fl)
		}()
	}
	if err := f.awaitHealthy(5 * time.Second); err != nil {
		f.stop()
		return nil, st, err
	}
	st.FirstHealth = time.Since(t2)
	st.Total = time.Since(t0)
	return f, st, nil
}

// awaitHealthy waits until every server has answered at least one balancer
// probe and the balancer reports every member healthy.
func (f *fleet) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		healthy := 0
		for i, bs := range f.bal.Status() {
			if bs.Healthy && f.servers[i].Counters().Probes > 0 {
				healthy++
			}
		}
		if healthy == fleetServers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d members healthy after %v", healthy, fleetServers, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop cancels the fleet and waits until the balancer and both servers
// have returned from Serve.
func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
}

// counters sums the send accounting of both servers.
func (f *fleet) counters() server.Counters {
	var t server.Counters
	for _, s := range f.servers {
		c := s.Counters()
		t.PrimarySent += c.PrimarySent
		t.BytesSent += c.BytesSent
		t.ShedItems += c.ShedItems
	}
	return t
}

// queueLenP50 merges both servers' srv_queue_len histograms and returns
// their bucket-interpolated median.
func (f *fleet) queueLenP50() float64 {
	var merged obs.HistogramSnapshot
	for _, r := range f.regs {
		h, ok := r.Snapshot().Histograms["srv_queue_len"]
		if !ok {
			continue
		}
		if merged.Buckets == nil {
			merged.Bounds = h.Bounds
			merged.Buckets = make([]int64, len(h.Buckets))
		}
		for i, n := range h.Buckets {
			merged.Buckets[i] += n
		}
		merged.Count += h.Count
	}
	return histQuantile(merged, 0.5)
}
