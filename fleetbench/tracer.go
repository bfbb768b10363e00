package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dragonfly/internal/player"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one benchmark session share Session; Parent is the
// ID of the enclosing span (0 for a session's root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // since the traced phase began
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans and per-call samples in memory until the run ends.
// A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span               // a span's ID is its index plus one
	samples map[string][]float64 // per-call durations, by layer name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, session, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: session, Name: name, StartUS: now, EndUS: -1})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// observe appends a value to a named sample list.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// get returns a copy of a named sample list.
func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// spanTotal counts the closed spans of one name and sums their durations.
type spanTotal struct {
	n     int
	total time.Duration
}

// spanStats totals closed spans by name.
func (t *tracer) spanStats() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		if s.EndUS < 0 {
			continue
		}
		e := out[s.Name]
		e.n++
		e.total += time.Duration(s.EndUS-s.StartUS) * time.Microsecond
		out[s.Name] = e
	}
	return out
}

// coverage is the share of root-span ("session") time that its direct
// children account for: the blocking path the benchmark can see from
// outside the layers.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[int64]int64{} // root span ID -> duration
	var rootTotal, childTotal int64
	for _, s := range t.spans {
		if s.Parent == 0 && s.EndUS >= 0 {
			roots[s.ID] = s.EndUS - s.StartUS
			rootTotal += s.EndUS - s.StartUS
		}
	}
	for _, s := range t.spans {
		if _, ok := roots[s.Parent]; ok && s.EndUS >= 0 {
			childTotal += s.EndUS - s.StartUS
		}
	}
	if rootTotal == 0 {
		return 0
	}
	return float64(childTotal) / float64(rootTotal)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedScheme wraps a player.Scheme to time every Decide call into the
// tracer's "core.decide_us" samples.
type timedScheme struct {
	player.Scheme
	tr *tracer
}

func (s timedScheme) Decide(ctx *player.Context) []player.RequestItem {
	t := time.Now()
	out := s.Scheme.Decide(ctx)
	s.tr.observe("core.decide_us", float64(time.Since(t).Nanoseconds())/1e3)
	return out
}

// schemeFor returns the scheme itself for the untraced run and its timing
// wrapper for the traced one.
func schemeFor(s player.Scheme, tr *tracer) player.Scheme {
	if tr == nil {
		return s
	}
	return timedScheme{Scheme: s, tr: tr}
}
