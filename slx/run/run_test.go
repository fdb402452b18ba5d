package run_test

import (
	"reflect"
	"testing"

	"repro/slx/hist"
	"repro/slx/run"
)

// counter is a tiny footprint-declaring shared counter.
type counter struct{ n int }

func (c *counter) Footprints() bool { return true }

// Begin implements run.Object: one window increments and reads the
// counter.
func (c *counter) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	return run.ObjectFunc(func(p *run.Proc, inv run.Invocation) hist.Value {
		p.Access("n", true)
		c.n++
		return c.n
	}).Begin(p, inv)
}

func config(obj run.Object, sched run.Scheduler) run.Config {
	return run.Config{
		Procs:  2,
		Object: obj,
		Env: run.Script(map[int][]run.Invocation{
			1: {{Op: "incr"}, {Op: "incr"}},
			2: {{Op: "incr"}},
		}),
		Scheduler: sched,
		MaxSteps:  50,
	}
}

// TestRoundRobinRunsToQuiescence drives a scripted run through the
// public facade and checks the recorded history and step accounting.
func TestRoundRobinRunsToQuiescence(t *testing.T) {
	res := run.Run(config(&counter{}, &run.RoundRobin{}))
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.Reason != run.StopQuiescent {
		t.Fatalf("run stopped for %v, want quiescence", res.Reason)
	}
	if got := len(res.H); got != 6 {
		t.Fatalf("recorded %d events, want 6 (3 invocations + 3 responses): %s", got, res.H)
	}
	if res.Steps != res.StepsBy[1]+res.StepsBy[2] {
		t.Errorf("steps %d != per-process sum %d+%d", res.Steps, res.StepsBy[1], res.StepsBy[2])
	}
	if len(res.Accesses) != len(res.Schedule) {
		t.Errorf("access log has %d entries for %d decisions", len(res.Accesses), len(res.Schedule))
	}
}

// TestFixedReplayReproducesHistory checks the facade's replay guarantee:
// re-running a recorded schedule yields the identical history.
func TestFixedReplayReproducesHistory(t *testing.T) {
	first := run.Run(config(&counter{}, &run.RoundRobin{}))
	if first.Err != nil {
		t.Fatalf("run failed: %v", first.Err)
	}
	replay := run.Run(config(&counter{}, run.Fixed(first.Schedule)))
	if replay.Err != nil {
		t.Fatalf("replay failed: %v", replay.Err)
	}
	if !reflect.DeepEqual(first.H, replay.H) {
		t.Errorf("replayed history differs:\n first: %s\nreplay: %s", first.H, replay.H)
	}
}

// TestSoloSchedulesOneProcess checks Solo grants steps only to its
// process.
func TestSoloSchedulesOneProcess(t *testing.T) {
	res := run.Run(config(&counter{}, run.Solo(2)))
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.StepsBy[1] != 0 || res.StepsBy[2] == 0 {
		t.Errorf("solo(2) granted p1=%d p2=%d steps", res.StepsBy[1], res.StepsBy[2])
	}
	for _, e := range res.H {
		if e.Proc != 2 {
			t.Errorf("solo(2) recorded an event of process %d: %s", e.Proc, e)
		}
	}
}
