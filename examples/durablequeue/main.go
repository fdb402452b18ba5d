// Durablequeue: a seeded recovery bug only crash+recover can reach. A
// persistent queue journals every enqueue in a per-process redo log
// (write intent, flush, apply, clear, flush the clear) — but its
// recovery routine rolls the log forward UNCONDITIONALLY, without
// checking whether the crashed enqueue already took effect. A crash
// between the apply and the final log clear therefore makes recovery
// enqueue the element a second time.
//
// The protocol is correct in every crash-free execution (the apply is a
// single atomic window), and correct under crashes alone (a crashed
// process never runs again, so its durable log is never replayed):
// exhaustive exploration is provably clean both without crashes and
// with WithCrashes(1) — the duplicate needs WithRecoveries(1) on top,
// where strict linearizability (crash-aware: a crashed operation
// linearizes at most once or vanishes) flags the twice-delivered
// element. Contrast internal/queue.Persistent, whose recovery guards
// the redo with the intent's pre-state and is clean under recovery.
package main

import (
	"fmt"
	"os"

	"repro/slx"
	"repro/slx/check"
	"repro/slx/hist"
	"repro/slx/run"
)

func main() {
	if err := play(); err != nil {
		fmt.Fprintln(os.Stderr, "durablequeue:", err)
		os.Exit(1)
	}
}

// dqRec is one redo-log record, immutable once written.
type dqRec struct{ arg hist.Value }

// dqueue is the buggy roll-forward queue. items is the committed queue
// (durable); logVol/logDur are the volatile cache and durable cell of
// each process's redo log (1-based).
type dqueue struct {
	items  []hist.Value
	logVol []*dqRec
	logDur []*dqRec
}

func newDQueue(n int) *dqueue {
	return &dqueue{logVol: make([]*dqRec, n+1), logDur: make([]*dqRec, n+1)}
}

// logName is the footprint label of proc p's redo log.
func logName(p int) string { return fmt.Sprintf("log.%d", p) }

// deq is the shared single-window dequeue body.
func (q *dqueue) deq(p *run.Proc) hist.Value {
	p.Access("q", true)
	var out hist.Value
	if len(q.items) == 0 {
		out = "empty"
	} else {
		out = q.items[0]
		q.items = q.items[1:]
	}
	p.Observe(out)
	return out
}

// dqFrame is one in-flight operation in continuation form. pc (enq): 0 =
// write log, 1 = flush log, 2 = apply, 3 = clear log, 4 = flush the
// clear; deq is a single window.
type dqFrame struct {
	q   *dqueue
	inv run.Invocation
	pc  int
}

// Begin implements run.Object.
func (q *dqueue) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "enq", "deq":
		return &dqFrame{q: q, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *dqFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	q := f.q
	if f.inv.Op == "deq" {
		return q.deq(p), run.StepDone
	}
	id := p.ID()
	switch f.pc {
	case 0:
		p.Access(logName(id), true)
		q.logVol[id] = &dqRec{arg: f.inv.Arg}
	case 1:
		p.Access(logName(id), true)
		q.logDur[id] = q.logVol[id]
	case 2:
		p.Access("q", true)
		q.items = append(q.items, f.inv.Arg)
	case 3:
		p.Access(logName(id), true)
		q.logVol[id] = nil
	case 4:
		p.Access(logName(id), true)
		q.logDur[id] = nil
		return hist.OK, run.StepDone
	}
	f.pc++
	return nil, run.StepPaused
}

// Fork implements run.Frame.
func (f *dqFrame) Fork() run.Frame {
	c := *f
	return &c
}

func (q *dqueue) Footprints() bool { return true }

// CrashVolatile implements run.Recoverable: every log cache reverts to
// its durable cell; the committed queue survives.
func (q *dqueue) CrashVolatile() {
	copy(q.logVol, q.logDur)
}

// RecoverFrame implements run.Recoverable.
func (q *dqueue) RecoverFrame() run.Frame { return &dqRecovery{q: q} }

// dqRecovery is the recovery routine: read the durable log and roll it
// forward. pc: 0 = read log (done if empty), 1 = re-apply, 2 = clear
// log, 3 = flush the clear.
type dqRecovery struct {
	q   *dqueue
	pc  int
	rec *dqRec
}

// Step implements run.Frame.
func (f *dqRecovery) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	q := f.q
	id := p.ID()
	switch f.pc {
	case 0:
		p.Access(logName(id), false)
		if q.logVol[id] == nil {
			return nil, run.StepDone
		}
		f.rec = q.logVol[id]
	case 1:
		// THE BUG: roll the log forward unconditionally. If the crashed
		// enqueue already applied (crash after pc 2, before pc 4), this
		// enqueues the element a second time. The correct protocol guards
		// the redo with the intent's pre-state (internal/queue.Persistent).
		p.Access("q", true)
		q.items = append(q.items, f.rec.arg)
	case 2:
		p.Access(logName(id), true)
		q.logVol[id] = nil
	case 3:
		p.Access(logName(id), true)
		q.logDur[id] = nil
		return nil, run.StepDone
	}
	f.pc++
	return nil, run.StepPaused
}

// Fork implements run.Frame.
func (f *dqRecovery) Fork() run.Frame {
	c := *f
	return &c
}

func (q *dqueue) Fingerprint(f *run.Fingerprinter) {
	f.Str("dq")
	f.Int(len(q.items))
	for _, v := range q.items {
		f.Val(v)
	}
	for p := 1; p < len(q.logVol); p++ {
		for _, r := range [2]*dqRec{q.logVol[p], q.logDur[p]} {
			if r == nil {
				f.Int(0)
			} else {
				f.Int(1)
				f.Val(r.arg)
			}
		}
	}
}

// dqState is a captured configuration (log records are immutable, so
// the slices copy shallowly).
type dqState struct {
	items  []hist.Value
	logVol []*dqRec
	logDur []*dqRec
}

func (q *dqueue) Snapshot() any {
	return dqState{
		items:  append([]hist.Value(nil), q.items...),
		logVol: append([]*dqRec(nil), q.logVol...),
		logDur: append([]*dqRec(nil), q.logDur...),
	}
}

func (q *dqueue) Restore(s any) {
	st := s.(dqState)
	q.items = append(q.items[:0:0], st.items...)
	copy(q.logVol, st.logVol)
	copy(q.logDur, st.logDur)
}

// scenario: process 1 enqueues once, process 2 dequeues twice. One
// enqueue can fill the queue at most once, so a second successful
// dequeue of "a" is the duplicate.
func scenario() []slx.Option {
	return []slx.Option{
		slx.WithProcs(2),
		slx.WithObject(func() run.Object { return newDQueue(2) }),
		slx.WithEnv(func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "enq", Arg: "a"}},
				2: {{Op: "deq"}, {Op: "deq"}},
			})
		}),
		slx.WithDepth(12),
	}
}

func play() error {
	prop := check.StrictLinearizability(check.QueueSpec{})

	// Without crashes the protocol is correct: exhaustive exploration is
	// clean.
	rep, err := slx.New(scenario()...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("no crashes:          ok=%v over %d prefixes\n", rep.OK(), rep.Prefixes)
	if !rep.OK() {
		return fmt.Errorf("crash-free exploration must be clean: %s", rep.Failures()[0])
	}

	// Crashes alone cannot reach the bug either: a crashed process never
	// replays its log.
	rep, err = slx.New(append(scenario(), slx.WithCrashes(1))...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("crashes=1:           ok=%v over %d prefixes\n", rep.OK(), rep.Prefixes)
	if !rep.OK() {
		return fmt.Errorf("crash-only exploration must be clean: %s", rep.Failures()[0])
	}

	// Crash + recover: the roll-forward duplicate is reachable and strict
	// linearizability rejects it.
	rep, err = slx.New(append(scenario(), slx.WithCrashes(1), slx.WithRecoveries(1))...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("crashes=1 recover=1: ok=%v over %d prefixes\n", rep.OK(), rep.Prefixes)
	if rep.OK() {
		return fmt.Errorf("recovery exploration must find the roll-forward duplicate")
	}
	witness := rep.Witness()
	fmt.Printf("violation: %s\n  witness: %v\n", rep.Failures()[0].Reason, witness)

	// The recorded witness — crash and recover decisions included —
	// replays to the same verdict.
	replay, err := slx.New(append(scenario(), slx.WithMaxSteps(len(witness)+1))...).Replay(witness, prop)
	if err != nil {
		return err
	}
	if replay.OK() {
		return fmt.Errorf("witness %v replayed clean", witness)
	}
	fmt.Printf("witness replay:      ok=false (%s)\n", replay.Failures()[0].Reason)
	return nil
}
