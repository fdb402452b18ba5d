package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/run"
	"repro/slx/tm"
)

// simTarget is one object the standalone simulator driver walks.
type simTarget struct {
	name   string
	procs  int
	depth  int
	object func() run.Object
	env    func() run.Environment
}

// simTargets are the explore suite's objects that are reachable from
// outside internal/service, at depths of a few ten thousand nodes each.
// queue.Persistent stands in for the multi-process queues.
func simTargets() []simTarget {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	}
	return []simTarget{
		{name: "register3", procs: 3, depth: 7,
			object: func() run.Object { return &register{v: 0} },
			env:    func() run.Environment { return registerEnv(1, 2, 3) }},
		{name: "persistent-queue8", procs: 8, depth: 5,
			object: func() run.Object { return queue.NewPersistent(8) },
			env:    func() run.Environment { return persistentQueueEnv(8) }},
		{name: "consensus", procs: 2, depth: 14,
			object: func() run.Object { return consensus.NewCommitAdoptOF(2) },
			env:    func() run.Environment { return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1}) }},
		{name: "i12", procs: 2, depth: 13,
			object: func() run.Object { return tm.NewI12(2) },
			env:    func() run.Environment { return tm.TxnLoop(tpl) }},
		{name: "globalcas", procs: 2, depth: 13,
			object: func() run.Object { return tm.NewGlobalCAS(2) },
			env:    func() run.Environment { return tm.TxnLoop(tpl) }},
	}
}

// simCosts accumulates the driver's timed session calls.
type simCosts struct {
	extendNs, extends   int64
	markNs, marks       int64
	restoreNs, restores int64
	fpNs, fps, poisoned int64
}

// simDriver walks every schedule of each simTarget to its depth on one
// session, calling Fingerprint at every node, Mark at every branching
// node, Extend on every edge and Restore after every child, and
// returns the mean cost of each call and the number of fingerprints
// the session could not compute. Each call is timed on its own, so the
// cost of the two clock reads around it, measured by clockPairNs, is
// subtracted from every mean.
func simDriver() (map[string]float64, error) {
	clock := clockPairNs()
	fmt.Fprintf(os.Stderr, "sim driver: %.1f ns of clock reads subtracted per call\n", clock)
	var c simCosts
	for _, t := range simTargets() {
		s, err := sim.NewSession(sim.SessionConfig{Procs: t.procs, Object: t.object(), NewEnv: t.env, Fingerprint: true})
		if err != nil {
			return nil, fmt.Errorf("sim driver %s: %w", t.name, err)
		}
		err = c.walk(s, t.depth)
		s.Close()
		if err != nil {
			return nil, fmt.Errorf("sim driver %s: %w", t.name, err)
		}
	}
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns)/float64(n) - clock
	}
	return map[string]float64{
		"sim.extend_ns":            per(c.extendNs, c.extends),
		"sim.mark_ns":              per(c.markNs, c.marks),
		"sim.restore_ns":           per(c.restoreNs, c.restores),
		"sim.fingerprint_ns":       per(c.fpNs, c.fps),
		"sim.fingerprint_poisoned": float64(c.poisoned),
	}, nil
}

func (c *simCosts) walk(s *sim.Session, depth int) error {
	t0 := time.Now()
	_, ok := s.Fingerprint()
	c.fpNs += int64(time.Since(t0))
	c.fps++
	if !ok {
		c.poisoned++
	}
	if depth == 0 {
		return nil
	}
	ready := s.Ready()
	if len(ready) == 0 {
		return nil
	}
	t0 = time.Now()
	m := s.Mark()
	c.markNs += int64(time.Since(t0))
	c.marks++
	defer s.Release(m)
	for _, p := range ready {
		t0 = time.Now()
		_, err := s.Extend(sim.Decision{Proc: p})
		c.extendNs += int64(time.Since(t0))
		c.extends++
		if err != nil {
			return err
		}
		if err := c.walk(s, depth-1); err != nil {
			return err
		}
		t0 = time.Now()
		_, err = s.Restore(m)
		c.restoreNs += int64(time.Since(t0))
		c.restores++
		if err != nil {
			return err
		}
	}
	return nil
}

// clockPairNs is the mean interval the driver's timing reads around an
// empty body: the part of every timed call that is the clock itself.
func clockPairNs() float64 {
	const n = 1 << 20
	var total int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += int64(time.Since(t0))
	}
	return float64(total) / n
}
