package snapshot

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// snapObject drives SW through the simulator: "update" writes the caller's
// own component, "scan" returns the encoded vector.
type snapObject struct {
	s *SW
}

// Begin implements sim.Object by stepping the snapshot's own frames.
func (o *snapObject) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case "update":
		return &opFrame{sub: o.s.BeginUpdate(p.ID()-1, inv.Arg)}, nil, sim.StepPaused
	case "scan":
		return &opFrame{sub: o.s.BeginScan(), scan: true}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// opFrame runs one update or scan frame and turns its result into the
// operation's response.
type opFrame struct {
	sub  sim.Frame
	scan bool
}

// Step implements sim.Frame.
func (f *opFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	v, st := f.sub.Step(p)
	switch {
	case st != sim.StepDone:
		return nil, st
	case f.scan:
		return safety.EncodeVector(v.([]Value)), sim.StepDone
	}
	return history.OK, sim.StepDone
}

// Fork implements sim.Frame.
func (f *opFrame) Fork() sim.Frame {
	c := *f
	c.sub = f.sub.Fork()
	return &c
}

// sequential runs one operation at a time: the k-th operation to
// respond overall is order[k]'s, which runs alone until it does.
func sequential(order []int) sim.Scheduler {
	return sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		done := 0
		for _, e := range v.H {
			if e.Kind == history.KindResponse {
				done++
			}
		}
		if done >= len(order) {
			return sim.Decision{}, false
		}
		return sim.Decision{Proc: order[done]}, true
	})
}

func TestSequentialSemantics(t *testing.T) {
	s := New("R", 3, 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	res := sim.Run(sim.Config{
		Procs:  3,
		Object: &snapObject{s: s},
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "scan"}, {Op: "scan"}, {Op: "scan"}},
			2: {{Op: "update", Arg: 7}, {Op: "update", Arg: 8}},
			3: {{Op: "update", Arg: 9}},
		}),
		Scheduler: sequential([]int{1, 2, 1, 2, 3, 1}),
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	var scans []history.Value
	for _, e := range res.H {
		if e.Kind == history.KindResponse && e.Op == "scan" {
			scans = append(scans, e.Val)
		}
	}
	want := []history.Value{
		safety.EncodeVector([]Value{0, 0, 0}),
		safety.EncodeVector([]Value{0, 7, 0}),
		safety.EncodeVector([]Value{0, 8, 9}),
	}
	if len(scans) != len(want) {
		t.Fatalf("scans = %v, want %v", scans, want)
	}
	for i := range want {
		if scans[i] != want[i] {
			t.Fatalf("scans = %v, want %v", scans, want)
		}
	}
	if s.Borrows() != 0 {
		t.Errorf("sequential scans never borrow, got %d", s.Borrows())
	}
}

func TestLinearizableUnderRandomSchedules(t *testing.T) {
	spec := safety.SnapshotSpec{N: 3, Initial: 0}
	for seed := int64(0); seed < 120; seed++ {
		obj := &snapObject{s: New("R", 3, 0)}
		res := sim.Run(sim.Config{
			Procs:  3,
			Object: obj,
			Env: sim.Script(map[int][]sim.Invocation{
				1: {{Op: "update", Arg: 11}, {Op: "scan"}, {Op: "update", Arg: 12}},
				2: {{Op: "scan"}, {Op: "update", Arg: 21}, {Op: "scan"}},
				3: {{Op: "update", Arg: 31}, {Op: "scan"}},
			}),
			Scheduler: sim.Random(seed),
			MaxSteps:  2000,
		})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if !safety.Linearizable(spec, res.H) {
			t.Fatalf("seed %d: snapshot not linearizable: %s", seed, res.H)
		}
	}
}

func TestLinearizableExhaustive(t *testing.T) {
	// All interleavings of one scan against one update, to a depth
	// covering complete runs (the borrow path has its own directed test).
	spec := safety.SnapshotSpec{N: 2, Initial: 0}
	st, err := explore.Run(explore.Config{
		Procs:     2,
		NewObject: func() sim.Object { return &snapObject{s: New("R", 2, 0)} },
		NewEnv: func() sim.Environment {
			return sim.Script(map[int][]sim.Invocation{
				1: {{Op: "scan"}},
				2: {{Op: "update", Arg: 5}},
			})
		},
		Depth: 24,
		Check: explore.CheckSafety("snapshot-linearizability", func(h history.History) bool {
			return safety.Linearizable(spec, h)
		}),
	})
	if err != nil {
		t.Fatalf("exhaustive check failed: %v (witness %v)", err, st.Witness)
	}
	if st.Prefixes < 100 {
		t.Errorf("expected substantial exploration, got %d prefixes", st.Prefixes)
	}
}

func TestBorrowPathTaken(t *testing.T) {
	// Force the borrow: p1 begins a scan (first collect), then p2 performs
	// two full updates, then p1's further collects observe two moves and
	// borrow the embedded view.
	obj := &snapObject{s: New("R", 2, 0)}
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: obj,
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "scan"}},
			2: {{Op: "update", Arg: 5}, {Op: "update", Arg: 6}},
		}),
		Scheduler: sim.Seq(
			sim.Limit(sim.Solo(1), 3), // invoke + first collect (2 reads)
			sim.Limit(sim.Solo(2), 8), // first update completes
			sim.Limit(sim.Solo(1), 2), // second collect: sees one move
			sim.Limit(sim.Solo(2), 8), // second update completes
			sim.Solo(1),               // third collect: second move → borrow
			sim.Solo(2),
		),
		MaxSteps: 100,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if obj.s.Borrows() == 0 {
		t.Fatal("schedule should force a borrowed view")
	}
	if !safety.Linearizable(safety.SnapshotSpec{N: 2, Initial: 0}, res.H) {
		t.Fatalf("borrowed scan must stay linearizable: %s", res.H)
	}
}

func TestScanWaitFree(t *testing.T) {
	// A scan's step count is bounded even under continuous interference:
	// with n=2 and a single interfering updater, a scan needs at most
	// 1 + (n+2) collects of n reads each, i.e. well under 20 steps.
	obj := &snapObject{s: New("R", 2, 0)}
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: obj,
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "scan"}},
			2: {
				{Op: "update", Arg: 1}, {Op: "update", Arg: 2},
				{Op: "update", Arg: 3}, {Op: "update", Arg: 4},
				{Op: "update", Arg: 5}, {Op: "update", Arg: 6},
			},
		}),
		// Give p1 one step for every two of p2's: maximal interference.
		Scheduler: sim.Limit(sim.Alternate(1, 2, 2), 120),
		MaxSteps:  200,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if res.H.Pending(1) {
		t.Fatalf("scan must complete despite interference (took >%d steps)", res.StepsBy[1])
	}
	if res.StepsBy[1] > 20 {
		t.Errorf("scan took %d steps, want <= 20 (wait-freedom bound)", res.StepsBy[1])
	}
}

func TestSingleWriterSequencesAdvance(t *testing.T) {
	s := New("R", 2, 0)
	var updates []sim.Invocation
	for i := 1; i <= 5; i++ {
		updates = append(updates, sim.Invocation{Op: "update", Arg: i * 10})
	}
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    &snapObject{s: s},
		Env:       sim.Script(map[int][]sim.Invocation{1: updates}),
		Scheduler: sim.Solo(1),
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	c := s.regs[0].Snapshot().(*cell)
	if c.seq != 5 || c.val != 50 {
		t.Errorf("cell = seq %d val %v, want seq 5 val 50", c.seq, c.val)
	}
}
