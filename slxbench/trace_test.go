package main

import (
	"math/rand"
	"testing"

	"repro/slx"
	"repro/slx/hist"
)

// TestTracingKeepsOutcomes runs every explore and sample job untraced
// and traced: verdicts, witnesses and every deterministic counter must
// match, and the timed monitors must see every event the engine feeds
// the property layer.
func TestTracingKeepsOutcomes(t *testing.T) {
	jobs := append(exploreJobs(rand.New(rand.NewSource(1))), sampleJobs(1, 0)...)
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			c := j.checker()
			plain, prep := j.run(c, nil, 0, nil)
			j.check(c, &plain, prep)
			layers := map[string]float64{}
			traced, trep := j.run(c, newTracer(), 0, layers)
			j.check(c, &traced, trep)
			if plain.err != nil || traced.err != nil {
				t.Fatalf("untraced: %v; traced: %v", plain.err, traced.err)
			}
			if plain.sig != traced.sig {
				t.Fatalf("tracing changed the outcome:\nuntraced %s\ntraced   %s", plain.sig, traced.sig)
			}
			if got, want := layers["safety.step_calls"], float64(trep.EventScans); got != want {
				t.Fatalf("timed monitors stepped %v events, the engine scanned %v", got, want)
			}
		})
	}
}

// bareMonitor has neither the Digester hook nor Release.
type bareMonitor struct{}

func (bareMonitor) Step(hist.Event) bool { return true }
func (bareMonitor) Verdict() slx.Verdict { return slx.Verdict{Holds: true} }
func (m bareMonitor) Fork() slx.Monitor  { return m }

// releasingMonitor has both hooks.
type releasingMonitor struct {
	bareMonitor
	released int
}

func (r *releasingMonitor) StateDigest() (uint64, bool) { return 42, true }
func (r *releasingMonitor) Release()                    { r.released++ }

// TestTimedMonitorForwardsHooks checks that the wrapper reports an
// undigestable state for a monitor without the Digester hook, forwards
// the digest of one with it, and forwards Release exactly when the
// wrapped monitor has it.
func TestTimedMonitorForwardsHooks(t *testing.T) {
	st := new(monStats)
	if _, ok := wrapMonitor(bareMonitor{}, st).StateDigest(); ok {
		t.Fatal("a monitor without StateDigest must stay undigestable")
	}
	wrapMonitor(bareMonitor{}, st).Release() // must not panic
	inner := &releasingMonitor{}
	w := wrapMonitor(inner, st)
	if d, ok := w.StateDigest(); !ok || d != 42 {
		t.Fatalf("digest = %d, %v; want 42, true", d, ok)
	}
	w.Release()
	if inner.released != 1 {
		t.Fatalf("inner monitor released %d times, want 1", inner.released)
	}
	if st.uncacheable.Load() != 1 || st.digestCalls.Load() != 2 {
		t.Fatalf("uncacheable=%d digestCalls=%d, want 1 and 2", st.uncacheable.Load(), st.digestCalls.Load())
	}
}

// TestPaperAndServicePass runs one untraced and one traced pass of the
// workloads TestTracingKeepsOutcomes does not cover: every known answer
// must hold, and the traced pass must report its layers.
func TestPaperAndServicePass(t *testing.T) {
	for name, layer := range map[string]string{"paper": "core.figure1a_ms", "service": "service.run_ms_p50"} {
		t.Run(name, func(t *testing.T) {
			inst, err := workloads[name].setup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			plain := inst.pass(0, nil)
			traced := inst.pass(0, newTracer())
			for _, p := range []passResult{plain, traced} {
				for _, o := range append(p.ops, parity(0, plain, traced)...) {
					if o.err != nil {
						t.Errorf("%s: %v", o.name, o.err)
					}
				}
			}
			if traced.layers[layer] <= 0 {
				t.Errorf("traced pass reported %s = %v", layer, traced.layers[layer])
			}
		})
	}
}
