package main

import (
	"fmt"

	"repro/internal/queue"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/run"
)

// Sampling budgets. The clean jobs have fixed schedule budgets, so
// their time measures throughput; each bug hunt runs until its first
// violation, within a budget far above what PCT needs on queueblast.
const (
	pctSchedules  = 1000
	walkSchedules = 100
	huntsPerPass  = 32
	huntBudget    = 20000
)

// sampleJobs is pass k of the sample workload: sampling on clean
// targets (part 0), then PCT bug hunts on queueblast (part 1). All
// seeds are drawn from the run seed and k, so each pass samples fresh
// schedules and the run's medians average over many of them.
func sampleJobs(seed int64, k int) []checkJob {
	rng := passRand(seed, k)
	one := slx.WithWorkers(1)
	jobs := []checkJob{
		targetJob("pct-consensus-d24", 0, "consensus", false,
			slx.WithDepth(24), slx.WithSample(pctSchedules, 3), slx.WithSeed(rng.Int63n(1<<40)+1), one),
		targetJob("pct-i12-d20", 0, "i12", false,
			slx.WithDepth(20), slx.WithSample(pctSchedules, 3), slx.WithSeed(rng.Int63n(1<<40)+1), one),
		{
			name: "walk-persistent-queue8-d24",
			opts: append(persistentQueueOptions(8),
				slx.WithDepth(24), slx.WithSample(walkSchedules, 0), slx.WithSampleWalk(), slx.WithSeed(rng.Int63n(1<<40)+1), one),
			prop: func() slx.Property { return check.Linearizability(check.QueueSpec{}) },
		},
	}
	for i := 0; i < huntsPerPass; i++ {
		jobs = append(jobs, targetJob(fmt.Sprintf("hunt-queueblast-%d", i), 1, "queueblast", true,
			slx.WithDepth(24), slx.WithSample(huntBudget, 3), slx.WithSeed(rng.Int63n(1<<40)+1), one))
	}
	return jobs
}

// persistentQueueOptions is an n-process queue.Persistent workload:
// the first half of the processes enqueue "v<id>", the second half
// dequeue. check.QueueSpec takes string payloads.
func persistentQueueOptions(n int) []slx.Option {
	return []slx.Option{
		slx.WithProcs(n),
		slx.WithObject(func() run.Object { return queue.NewPersistent(n) }),
		slx.WithEnv(func() run.Environment { return persistentQueueEnv(n) }),
	}
}

func persistentQueueEnv(n int) run.Environment {
	script := map[int][]run.Invocation{}
	for p := 1; p <= n; p++ {
		if p <= n/2 {
			script[p] = []run.Invocation{{Op: "enq", Arg: fmt.Sprintf("v%d", p)}}
		} else {
			script[p] = []run.Invocation{{Op: "deq"}}
		}
	}
	return run.Script(script)
}

type sampleInstance struct{ seed int64 }

func setupSample(seed int64) (instance, error) {
	s := &sampleInstance{seed: seed}
	// Warm up on the first clean job of a pass that is never measured.
	// A hunt would make set-up time depend on the seed.
	if r := sampleJobs(seed, -1)[0].runChecked(); r.err != nil {
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	return s, nil
}

func (s *sampleInstance) pass(k int, tr *tracer) passResult {
	var layers map[string]float64
	if tr != nil {
		layers = map[string]float64{}
	}
	jobs := sampleJobs(s.seed, k)
	checkers := make([]*slx.Checker, len(jobs))
	for i, j := range jobs {
		checkers[i] = j.checker()
	}
	ops, reps, dur := runPass(jobs, checkers, tr, k, layers)
	if tr != nil {
		var toBug []float64
		for i, j := range jobs {
			if j.violates && reps[i] != nil {
				toBug = append(toBug, float64(reps[i].Schedules))
			}
		}
		if n := layers["sample.schedules"]; n > 0 {
			layers["sample.us_per_schedule"] = layers["sample.job_ns"] / n / 1e3
		}
		delete(layers, "sample.job_ns")
		layers["sample.schedules_to_bug"] = median(toBug)
	}
	return passResult{ops: ops, dur: dur, layers: layers}
}

func (s *sampleInstance) finalChecks() []opResult { return nil }

func (s *sampleInstance) close() {}
