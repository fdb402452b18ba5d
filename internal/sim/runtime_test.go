package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tm"
)

// TestRunSpawnsNoGoroutines pins the single execution model: a run
// dispatches every step on the caller's goroutine, so the goroutine
// count seen from inside every scheduler callback of an 8-process run
// equals the count before the run. Goroutines left by earlier tests may
// still be exiting and lower the count mid-run; such an attempt is
// retried, while a count above the one before fails at once.
func TestRunSpawnsNoGoroutines(t *testing.T) {
	vals := map[int]history.Value{}
	for p := 1; p <= 8; p++ {
		vals[p] = p % 2
	}
	for attempt := 0; attempt < 5; attempt++ {
		before := runtime.NumGoroutine()
		rr := &sim.RoundRobin{}
		calls, lower := 0, 0
		res := sim.Run(sim.Config{
			Procs:  8,
			Object: consensus.NewCommitAdoptOF(8),
			Env:    consensus.ProposeOnce(vals),
			Scheduler: sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
				calls++
				switch n := runtime.NumGoroutine(); {
				case n > before:
					t.Fatalf("scheduler call %d sees %d goroutines, %d before the run", calls, n, before)
				case n < before:
					lower++
				}
				return rr.Next(v)
			}),
			MaxSteps: 400,
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if calls < 100 {
			t.Fatalf("only %d scheduler calls; the check needs a long run", calls)
		}
		if lower == 0 {
			return
		}
	}
	t.Fatal("the goroutine count kept changing under every attempt")
}

// markTarget is one object the Mark/Restore fuzzer drives.
type markTarget struct {
	procs  int
	object func() sim.Object
	env    func() sim.Environment
}

var markTargets = []markTarget{
	{2, func() sim.Object { return consensus.NewCommitAdoptOF(2) },
		func() sim.Environment { return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1}) }},
	{2, func() sim.Object { return queue.NewPersistent(2) },
		func() sim.Environment {
			return sim.Script(map[int][]sim.Invocation{
				1: {{Op: "enq", Arg: "a"}, {Op: "deq"}, {Op: "enq", Arg: "c"}},
				2: {{Op: "enq", Arg: "b"}, {Op: "deq"}},
			})
		}},
	{2, func() sim.Object { return tm.NewDurableTM(2) },
		func() sim.Environment {
			return tm.TxnLoop(map[int]tm.Txn{
				1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "x", Val: 1}}},
				2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
			})
		}},
	{2, func() sim.Object { return queue.NewLocked() },
		func() sim.Environment {
			return sim.Script(map[int][]sim.Invocation{
				1: {{Op: "enq", Arg: "a"}, {Op: "deq"}},
				2: {{Op: "deq"}, {Op: "enq", Arg: "b"}},
			})
		}},
}

// decide decodes one fuzz byte into a valid decision for the view: the
// low two bits pick a step (0, 1), a crash (2) or a recovery (3), the
// rest pick the process. ok is false when nothing can happen.
func decide(b byte, v *sim.View) (sim.Decision, bool) {
	k := int(b>>2) & 0x1f
	switch b & 3 {
	case 2:
		live := append(append([]int(nil), v.Ready...), v.Blocked...)
		if len(live) > 0 {
			return sim.Decision{Proc: live[k%len(live)], Crash: true}, true
		}
	case 3:
		if len(v.Crashed) > 0 {
			return sim.Decision{Proc: v.Crashed[k%len(v.Crashed)], Recover: true}, true
		}
	}
	if len(v.Ready) > 0 {
		return sim.Decision{Proc: v.Ready[k%len(v.Ready)]}, true
	}
	if len(v.Crashed) > 0 {
		return sim.Decision{Proc: v.Crashed[k%len(v.Crashed)], Recover: true}, true
	}
	return sim.Decision{}, false
}

// FuzzSessionMarkRestore drives a session with fuzzed decisions (crashes
// and recoveries included), marks at the fuzzed points (bytes with the
// high bit set), then rewinds to each mark in turn, continues on a
// different path, rewinds again and replays the original continuation,
// and checks every reached configuration — history, ready and crashed
// sets, fingerprint — against a fresh sim.Run of the same prefix.
func FuzzSessionMarkRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tg := markTargets[int(data[0])%len(markTargets)]
		data = data[1:]
		if len(data) > 48 {
			data = data[:48]
		}
		s, err := sim.NewSession(sim.SessionConfig{
			Procs: tg.procs, Object: tg.object(), NewEnv: tg.env, Fingerprint: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var path []sim.Decision
		// extend applies the decisions bytes decode (each shifted by
		// salt), marking before every byte with the high bit set.
		type mark struct {
			m   *sim.Mark
			len int
		}
		var marks []mark
		extend := func(bytes []byte, salt byte, record bool) {
			for _, b := range bytes {
				if record && b&0x80 != 0 {
					marks = append(marks, mark{s.Mark(), len(path)})
				}
				d, ok := decide(b+salt, s.View())
				if !ok {
					return
				}
				if _, err := s.Extend(d); err != nil {
					t.Fatalf("extend %v after %v: %v", d, path, err)
				}
				path = append(path, d)
			}
		}
		extend(data, 0, true)
		compare(t, tg, s, path)
		for i := len(marks) - 1; i >= 0; i-- {
			mk := marks[i]
			if _, err := s.Restore(mk.m); err != nil {
				t.Fatalf("restore to %d: %v", mk.len, err)
			}
			path = path[:mk.len]
			compare(t, tg, s, path)
			extend(data[mk.len:], byte(i+1), false)
			compare(t, tg, s, path)
			// Restoring the same mark again must undo the detour, frames
			// included: the original continuation reaches the same
			// configurations as before.
			if _, err := s.Restore(mk.m); err != nil {
				t.Fatalf("restore to %d: %v", mk.len, err)
			}
			path = path[:mk.len]
			extend(data[mk.len:], 0, false)
			compare(t, tg, s, path)
			if _, err := s.Restore(mk.m); err != nil {
				t.Fatalf("restore to %d: %v", mk.len, err)
			}
			path = path[:mk.len]
		}
	})
}

// compare checks the session's configuration against a fresh run of
// the same prefix.
func compare(t *testing.T, tg markTarget, s *sim.Session, prefix []sim.Decision) {
	t.Helper()
	res := sim.Run(sim.Config{
		Procs:            tg.procs,
		Object:           tg.object(),
		Env:              tg.env(),
		Scheduler:        sim.Fixed(prefix),
		Fingerprint:      true,
		RecoverQuiescent: true,
	})
	if res.Err != nil || len(res.Schedule) != len(prefix) {
		t.Fatalf("fresh run of %v: %v (took %d decisions)", prefix, res.Err, len(res.Schedule))
	}
	if !res.H.Equal(s.History()) {
		t.Fatalf("prefix %v: history\n session %s\n fresh   %s", prefix, s.History(), res.H)
	}
	v := s.View()
	var ready []int
	for p := 1; p <= tg.procs; p++ {
		if !contains(res.Idle, p) && !contains(res.Blocked, p) && !contains(res.Crashed, p) {
			ready = append(ready, p)
		}
	}
	if !equalInts(v.Ready, ready) || !equalInts(v.Crashed, res.Crashed) {
		t.Fatalf("prefix %v: ready/crashed session %v/%v, fresh %v/%v", prefix, v.Ready, v.Crashed, ready, res.Crashed)
	}
	if fp, ok := s.Fingerprint(); ok != res.Fingerprinted || fp != res.Fingerprint {
		t.Fatalf("prefix %v: fingerprint session %x/%v, fresh %x/%v", prefix, fp, ok, res.Fingerprint, res.Fingerprinted)
	}
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
