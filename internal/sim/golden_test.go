package sim_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/mutex"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/snapshot"
	"repro/internal/tm"
)

// goldenTrees are the schedule trees pinned by testdata/golden_trees.txt:
// every object of the consensus, mutex, queue and tm packages, and I12
// over the software snapshot, each under crash branches (and recovery
// branches for the crash–recovery objects).
func goldenTrees() []simtest.Tree {
	propose := func(vals map[int]history.Value) func() sim.Environment {
		return func() sim.Environment { return consensus.ProposeOnce(vals) }
	}
	forever := func(vals map[int]history.Value) func() sim.Environment {
		return func() sim.Environment { return consensus.ProposeForever(vals) }
	}
	locks := func(n int) func() sim.Environment {
		return func() sim.Environment { return mutex.AcquireReleaseLoop(n) }
	}
	queueEnv := func() sim.Environment {
		return sim.Script(map[int][]sim.Invocation{
			1: {{Op: "enq", Arg: "a"}, {Op: "deq"}},
			2: {{Op: "deq"}, {Op: "enq", Arg: "b"}},
		})
	}
	writeX := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
		3: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 3}}},
	}
	readWrite := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "y", Val: 1}}},
		2: {Accesses: []tm.Access{{Var: "y"}, {Write: true, Var: "x", Val: 2}}},
	}
	// reaccess re-reads and rewrites one variable, exercising the paths
	// of an object that revisits its own earlier accesses.
	reaccess := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "x", Val: 1}, {Var: "x"}}},
	}
	txns := func(tpl map[int]tm.Txn) func() sim.Environment {
		return func() sim.Environment { return tm.TxnLoop(tpl) }
	}
	// lazyEnv writes a value resolved at scheduling time, which poisons
	// the state fingerprint of every run that resolves it.
	lazyEnv := func() sim.Environment {
		lazy := sim.LazyArg(func(v *sim.View) history.Value { return v.Steps })
		return sim.Script(map[int][]sim.Invocation{
			1: {{Op: history.TMStart}, {Op: history.TMWrite, Obj: "x", Arg: lazy}, {Op: history.TMTryC}},
			2: {{Op: history.TMStart}, {Op: history.TMRead, Obj: "x"}, {Op: history.TMTryC}},
		})
	}
	return []simtest.Tree{
		{Name: "consensus.CommitAdoptOF", Procs: 2, Depth: 11, Crashes: 1,
			NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv:    propose(map[int]history.Value{1: 0, 2: 1})},
		{Name: "consensus.CASBased", Procs: 3, Depth: 7, Crashes: 1,
			NewObject: func() sim.Object { return consensus.NewCASBased() },
			NewEnv:    propose(map[int]history.Value{1: "a", 2: "b", 3: "c"})},
		{Name: "consensus.Trivial", Procs: 2, Depth: 5, Crashes: 1,
			NewObject: func() sim.Object { return consensus.Trivial{} },
			NewEnv:    forever(map[int]history.Value{1: 0, 2: 1})},
		{Name: "consensus.RespondOnce", Procs: 2, Depth: 6, Crashes: 1,
			NewObject: func() sim.Object {
				return &consensus.RespondOnce{Proc: 1, Op: consensus.Propose, Arg: 0, Resp: 0}
			},
			NewEnv: forever(map[int]history.Value{1: 0, 2: 1})},
		{Name: "consensus.DecideOwn", Procs: 3, Depth: 7, Crashes: 1,
			NewObject: func() sim.Object { return consensus.NewDecideOwn(3) },
			NewEnv:    propose(map[int]history.Value{1: 1, 2: 2, 3: 3})},
		{Name: "consensus.FirstAnnounced", Procs: 3, Depth: 8, Crashes: 1,
			NewObject: func() sim.Object { return consensus.NewFirstAnnounced(3) },
			NewEnv:    propose(map[int]history.Value{1: 1, 2: 2, 3: 3})},
		{Name: "mutex.Peterson", Procs: 2, Depth: 10, Crashes: 1,
			NewObject: func() sim.Object { return mutex.NewPeterson() },
			NewEnv:    locks(2)},
		{Name: "mutex.TASLock", Procs: 2, Depth: 10, Crashes: 1,
			NewObject: func() sim.Object { return mutex.NewTASLock() },
			NewEnv:    locks(2)},
		{Name: "mutex.Tournament", Procs: 3, Depth: 8, Crashes: 1,
			NewObject: func() sim.Object { return mutex.NewTournament(3) },
			NewEnv:    locks(3)},
		{Name: "mutex.Bakery", Procs: 2, Depth: 11, Crashes: 1,
			NewObject: func() sim.Object { return mutex.NewBakery(2) },
			NewEnv:    locks(2)},
		{Name: "mutex.Bakery", Procs: 3, Depth: 7, Crashes: 1,
			NewObject: func() sim.Object { return mutex.NewBakery(3) },
			NewEnv:    locks(3)},
		{Name: "queue.Locked", Procs: 2, Depth: 11, Crashes: 1,
			NewObject: func() sim.Object { return queue.NewLocked() },
			NewEnv:    queueEnv},
		{Name: "queue.CASQueue", Procs: 2, Depth: 10, Crashes: 1,
			NewObject: func() sim.Object { return queue.NewCASQueue() },
			NewEnv:    queueEnv},
		{Name: "queue.Persistent", Procs: 2, Depth: 10, Crashes: 1, Recoveries: 1,
			NewObject: func() sim.Object { return queue.NewPersistent(2) },
			NewEnv:    queueEnv},
		{Name: "tm.I12", Procs: 2, Depth: 10, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewI12(2) },
			NewEnv:    txns(writeX)},
		{Name: "tm.I12", Procs: 3, Depth: 7, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewI12(3) },
			NewEnv:    txns(writeX)},
		{Name: "tm.I12.SW", Procs: 2, Depth: 12, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewI12WithSnapshot(2, snapshot.New("R", 2, 0)) },
			NewEnv:    txns(writeX)},
		{Name: "tm.I12.SW", Procs: 1, Depth: 20, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewI12WithSnapshot(1, snapshot.New("R", 1, 0)) },
			NewEnv:    txns(writeX)},
		{Name: "tm.GlobalCAS", Procs: 2, Depth: 10, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewGlobalCAS(2) },
			NewEnv:    txns(readWrite)},
		{Name: "tm.GlobalCAS.lazy", Procs: 2, Depth: 8, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewGlobalCAS(2) },
			NewEnv:    lazyEnv},
		{Name: "tm.DSTM", Procs: 2, Depth: 11, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewDSTM(2) },
			NewEnv:    txns(readWrite)},
		{Name: "tm.DSTM", Procs: 1, Depth: 20, Crashes: 1,
			NewObject: func() sim.Object { return tm.NewDSTM(1) },
			NewEnv:    txns(reaccess)},
		{Name: "tm.Aborter", Procs: 2, Depth: 8, Crashes: 1,
			NewObject: func() sim.Object { return tm.Aborter{} },
			NewEnv:    txns(readWrite)},
		{Name: "tm.DurableTM", Procs: 2, Depth: 10, Crashes: 1, Recoveries: 1,
			NewObject: func() sim.Object { return tm.NewDurableTM(2) },
			NewEnv:    txns(writeX)},
	}
}

// TestGoldenTrees checks every schedule of every golden tree against
// the digests recorded in testdata/golden_trees.txt. The file was
// produced by the goroutine runtime that executed each object's
// blocking form; it has no regeneration switch on purpose.
func TestGoldenTrees(t *testing.T) {
	simtest.CheckGolden(t, "testdata/golden_trees.txt", goldenTrees())
}
