package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/slx"
	"repro/slx/hist"
)

// span is one traced interval. Spans of one pass share Trace. Parent
// is the span that caused this one, 0 meaning the pass itself. ChildNs
// is time spent in aggregated child calls that are too frequent to
// record as spans of their own (monitor calls); a span's self time is
// its duration minus ChildNs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ChildNs int64  `json:"child_ns,omitempty"`
}

// tracer keeps the spans of a traced run in memory until write.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock: nanoseconds since the run started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record stores a finished span and returns its ID.
func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// monStats aggregates the safety-layer calls of one operation. Atomic,
// because an engine may call monitors from more than one goroutine.
type monStats struct {
	stepCalls, stepNs     atomic.Int64
	forkCalls, forkNs     atomic.Int64
	digestCalls, digestNs atomic.Int64
	uncacheable           atomic.Int64
}

// childNs is the time spent inside the monitors.
func (s *monStats) childNs() int64 { return s.stepNs.Load() + s.forkNs.Load() + s.digestNs.Load() }

// timedProperty wraps a property so that every monitor it spawns is
// timed. Name, Kind and Check are forwarded unchanged.
type timedProperty struct {
	slx.Property
	st *monStats
}

// Spawn implements slx.Property.
func (p timedProperty) Spawn() slx.Monitor {
	m := p.Property.Spawn()
	if m == nil {
		return nil
	}
	return wrapMonitor(m, p.st)
}

// timedMonitor times the calls into a monitor. It always offers
// StateDigest and Release, and forwards each to the wrapped monitor
// exactly when that monitor has it: a monitor without the Digester hook
// still reports an undigestable state, and one without Release is
// still never released, so the state cache and the monitor pools
// behave as without tracing.
type timedMonitor struct {
	inner slx.Monitor
	st    *monStats
}

// monPool recycles released wrappers, so tracing adds no allocation
// per forked monitor once the pool is warm.
var monPool = sync.Pool{New: func() any { return new(timedMonitor) }}

func wrapMonitor(m slx.Monitor, st *monStats) *timedMonitor {
	w := monPool.Get().(*timedMonitor)
	w.inner, w.st = m, st
	return w
}

// Step implements slx.Monitor.
func (m *timedMonitor) Step(e hist.Event) bool {
	t0 := time.Now()
	ok := m.inner.Step(e)
	m.st.stepNs.Add(int64(time.Since(t0)))
	m.st.stepCalls.Add(1)
	return ok
}

// Verdict implements slx.Monitor.
func (m *timedMonitor) Verdict() slx.Verdict { return m.inner.Verdict() }

// Fork implements slx.Monitor.
func (m *timedMonitor) Fork() slx.Monitor {
	t0 := time.Now()
	f := m.inner.Fork()
	m.st.forkNs.Add(int64(time.Since(t0)))
	m.st.forkCalls.Add(1)
	return wrapMonitor(f, m.st)
}

// StateDigest implements slx.Digester.
func (m *timedMonitor) StateDigest() (uint64, bool) {
	m.st.digestCalls.Add(1)
	dg, ok := m.inner.(slx.Digester)
	if !ok {
		m.st.uncacheable.Add(1)
		return 0, false
	}
	t0 := time.Now()
	d, ok := dg.StateDigest()
	m.st.digestNs.Add(int64(time.Since(t0)))
	if !ok {
		m.st.uncacheable.Add(1)
	}
	return d, ok
}

// Release forwards the engine's release to the wrapped monitor when it
// implements one, then recycles the wrapper.
func (m *timedMonitor) Release() {
	if r, ok := m.inner.(interface{ Release() }); ok {
		r.Release()
	}
	m.inner, m.st = nil, nil
	monPool.Put(m)
}
