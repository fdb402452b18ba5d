package service

import (
	"testing"

	"repro/internal/simtest"
	"repro/slx/run"
)

// TestGoldenTrees pins every schedule of the three objects this package
// defines (the seeded-bug targets) to the digests recorded in
// testdata/golden_trees.txt; see internal/simtest. The file was
// produced by the goroutine runtime that executed each object's
// blocking form; it has no regeneration switch on purpose.
func TestGoldenTrees(t *testing.T) {
	simtest.CheckGolden(t, "testdata/golden_trees.txt", []simtest.Tree{
		{Name: "lossyreg", Procs: 2, Depth: 10, Crashes: 1,
			NewObject: func() run.Object { return &lossyRegister{v: 0} },
			NewEnv: func() run.Environment {
				return run.Script(map[int][]run.Invocation{
					1: {{Op: "write", Arg: 1}, {Op: "read"}},
					2: {{Op: "write", Arg: 2}, {Op: "read"}},
				})
			}},
		{Name: "queueblast", Procs: 3, Depth: 8, Crashes: 1,
			NewObject: func() run.Object { return &blastQueue{} },
			NewEnv: func() run.Environment {
				return run.Script(map[int][]run.Invocation{
					1: {{Op: "enq", Arg: "v1"}, {Op: "enq", Arg: "v3"}},
					2: {{Op: "enq", Arg: "v2"}, {Op: "enq", Arg: "v4"}},
					3: {{Op: "deq"}, {Op: "deq"}},
				})
			}},
		{Name: "durablequeue", Procs: 2, Depth: 11, Crashes: 1, Recoveries: 1,
			NewObject: func() run.Object { return newDurQueue(2) },
			NewEnv: func() run.Environment {
				return run.Script(map[int][]run.Invocation{
					1: {{Op: "enq", Arg: "a"}, {Op: "enq", Arg: "c"}},
					2: {{Op: "deq"}, {Op: "enq", Arg: "b"}},
				})
			}},
	})
}
