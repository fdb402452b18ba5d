// Queueblast: a seeded deep bug only sampling can reach. Eight
// processes hammer a bounded FIFO queue whose enqueue silently evicts
// the oldest element once three items are buffered. Exposing the bug
// takes four completed enqueues — two granted steps each, eight steps
// minimum — plus a dequeue to observe the loss, so NO schedule of depth
// 7 can violate linearizability: exhaustive exploration at -depth 7 is
// provably clean while the bug is alive. PCT sampling at depth 24
// reaches it in a handful of schedules and hands back a replayable
// witness.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/slx"
	"repro/slx/check"
	"repro/slx/hist"
	"repro/slx/run"
)

func main() {
	if err := play(); err != nil {
		fmt.Fprintln(os.Stderr, "queueblast:", err)
		os.Exit(1)
	}
}

// capacity is the buffer bound past which blastQueue drops its head.
const capacity = 3

// blastQueue is the buggy bounded queue. Enqueue takes two granted
// steps (reserve, then publish) so the minimal violating schedule is
// provably deeper than the exhaustive ceiling used below.
//
//slx:norecover the blast scenario is crash-free; all state is modeled durable
type blastQueue struct{ items []hist.Value }

// blastFrame is one in-flight operation in continuation form:
// reserve+publish for enq, one window for deq.
type blastFrame struct {
	q   *blastQueue
	inv run.Invocation
	pc  int
}

// Begin implements run.Object.
func (q *blastQueue) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "enq", "deq":
		return &blastFrame{q: q, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *blastFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	q := f.q
	if f.inv.Op == "enq" {
		if f.pc == 0 { // reserve
			p.Access("q", true)
			f.pc = 1
			return nil, run.StepPaused
		}
		// publish
		p.Access("q", true)
		q.items = append(q.items, f.inv.Arg)
		if len(q.items) > capacity {
			// The seeded bug: silently evict the oldest element.
			q.items = q.items[1:]
		}
		return hist.OK, run.StepDone
	}
	p.Access("q", true)
	var out hist.Value
	if len(q.items) == 0 {
		out = "empty"
	} else {
		out = q.items[0]
		q.items = q.items[1:]
	}
	p.Observe(out)
	return out, run.StepDone
}

// Fork implements run.Frame.
func (f *blastFrame) Fork() run.Frame {
	c := *f
	return &c
}

func (q *blastQueue) Footprints() bool { return true }

func (q *blastQueue) Fingerprint(f *run.Fingerprinter) {
	f.Str("q")
	f.Int(len(q.items))
	for _, v := range q.items {
		f.Val(v)
	}
}

func (q *blastQueue) Snapshot() any { return append([]hist.Value(nil), q.items...) }

func (q *blastQueue) Restore(s any) { q.items = append(q.items[:0:0], s.([]hist.Value)...) }

// scenario: processes 1-4 enqueue one value each (string payloads, as
// the queue specification requires), processes 5-8 dequeue twice.
func scenario() []slx.Option {
	return []slx.Option{
		slx.WithObject(func() run.Object { return &blastQueue{} }),
		slx.WithEnv(func() run.Environment {
			script := map[int][]run.Invocation{}
			for p := 1; p <= 4; p++ {
				script[p] = []run.Invocation{{Op: "enq", Arg: fmt.Sprintf("v%d", p)}}
			}
			for p := 5; p <= 8; p++ {
				script[p] = []run.Invocation{{Op: "deq"}, {Op: "deq"}}
			}
			return run.Script(script)
		}),
		slx.WithProcs(8),
	}
}

func play() error {
	prop := check.Linearizability(check.QueueSpec{})

	// Exhaustive exploration below the minimal violating depth: clean,
	// and the 8-proc branching already costs hundreds of thousands of
	// prefixes.
	full, err := slx.New(append(scenario(), slx.WithDepth(7))...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive -depth 7: ok=%v over %d prefixes (a violation needs 4 enqueues = 8 steps, so depth 7 cannot reach it)\n",
		full.OK(), full.Prefixes)
	if !full.OK() {
		return fmt.Errorf("depth-7 exploration must be clean: %s", full.Failures()[0])
	}

	// PCT sampling at depth 24: schedules to first bug for several
	// change-point budgets, under one fixed master seed.
	const budget = 20000
	fmt.Printf("\n%-4s %-20s %-16s %s\n", "d", "schedules-to-bug", "distinct-states", "witness")
	var witness []run.Decision
	for _, d := range []int{0, 1, 2, 3, 5, 8} {
		start := time.Now()
		rep, err := slx.New(append(scenario(),
			slx.WithDepth(24),
			slx.WithSample(budget, d),
			slx.WithSeed(1),
			slx.WithWorkers(4),
		)...).Explore(prop)
		if err != nil {
			return err
		}
		if rep.OK() {
			fmt.Printf("%-4d %-20s %-16d (none in %d schedules, %.1fs)\n",
				d, "not found", rep.DistinctStates, budget, time.Since(start).Seconds())
			continue
		}
		fmt.Printf("%-4d %-20d %-16d len=%d seed=%d\n",
			d, rep.Schedules, rep.DistinctStates, len(rep.Witness()), rep.FailingSeed)
		if witness == nil {
			witness = rep.Witness()
		}
	}
	if witness == nil {
		return fmt.Errorf("sampling must find the seeded bug at some d within %d schedules", budget)
	}

	// The recorded witness replays to the same verdict.
	replay, err := slx.New(append(scenario(), slx.WithMaxSteps(len(witness)+1))...).Replay(witness, prop)
	if err != nil {
		return err
	}
	if replay.OK() {
		return fmt.Errorf("witness %v replayed clean", witness)
	}
	fmt.Printf("\nwitness replay: ok=false (%s)\n", replay.Failures()[0].Reason)
	return nil
}
