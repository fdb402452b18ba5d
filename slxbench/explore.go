package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/service"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/hist"
	"repro/slx/run"
)

// checkJob is one Checker.Explore call with its known answer.
type checkJob struct {
	name string
	part int
	opts []slx.Option
	prop func() slx.Property
	// violates is the known answer: true when the job must report a
	// violation (whose witness must then replay to the same property).
	violates bool
}

// exploreJobs is the explore workload's suite, built from the seed.
// Every job runs with one worker, so every counter is deterministic.
//
// The cached half (part 0) runs with POR and the state cache, so its
// per-node cost includes configuration fingerprints and monitor
// digests; the plain half (part 1) runs neither and spends its time in
// the simulator and in monitor steps. A digest or cache change should
// move part_a_s and leave part_b_s alone.
func exploreJobs(rng *rand.Rand) []checkJob {
	cached := []slx.Option{slx.WithPOR(), slx.WithStateCache(), slx.WithWorkers(1)}
	plain := []slx.Option{slx.WithWorkers(1)}
	// The register writes carry seed-drawn distinct values.
	vals := rng.Perm(100)
	jobs := []checkJob{
		targetJob("queueblast-d7-cached", 0, "queueblast", false, append(cached, slx.WithDepth(7))...),
		{
			name: "register3-d7-cached",
			opts: append(registerOptions(vals[0]+1, vals[1]+1, vals[2]+1), append(cached, slx.WithDepth(7))...),
			prop: func() slx.Property { return check.Linearizability(check.RegisterSpec{Initial: 0}) },
		},
		targetJob("durablequeue-d14-crash1-recover1-cached", 0, "durablequeue", true,
			append(cached, slx.WithDepth(14), slx.WithCrashes(1), slx.WithRecoveries(1))...),
		targetJob("queueblast-d6", 1, "queueblast", false, append(plain, slx.WithDepth(6))...),
		targetJob("consensus-d16", 1, "consensus", false, append(plain, slx.WithDepth(16))...),
		targetJob("i12-d14", 1, "i12", false, append(plain, slx.WithDepth(14))...),
		targetJob("globalcas-d14", 1, "globalcas", false, append(plain, slx.WithDepth(14))...),
	}
	// The seed also fixes the order of the jobs within each half.
	shuffleHalf := func(js []checkJob) {
		rng.Shuffle(len(js), func(i, j int) { js[i], js[j] = js[j], js[i] })
	}
	shuffleHalf(jobs[:3])
	shuffleHalf(jobs[3:])
	return jobs
}

// targetJob builds a job over a registered slxd target, so the
// benchmark explores exactly what `slx explore -target` does.
func targetJob(name string, part int, target string, violates bool, extra ...slx.Option) checkJob {
	t, ok := service.LookupTarget(target)
	if !ok {
		panic("slxbench: unknown target " + target)
	}
	return checkJob{name: name, part: part, opts: append(t.Options(), extra...), prop: t.Property, violates: violates}
}

// checker builds the job's checker.
func (j checkJob) checker() *slx.Checker { return slx.New(j.opts...) }

// run explores once. With a tracer the property is timed and the job
// recorded as a span of the pass. The answer is checked later, by
// check, so that checking stays out of the pass time.
func (j checkJob) run(c *slx.Checker, tr *tracer, pass int, layers map[string]float64) (opResult, *slx.Report) {
	prop := j.prop()
	var st *monStats
	if tr != nil {
		st = new(monStats)
		prop = timedProperty{Property: prop, st: st}
	}
	t0 := time.Now()
	rep, err := c.Explore(prop)
	dur := time.Since(t0)
	res := opResult{name: j.name, part: j.part, dur: dur, err: err}
	if err == nil && tr != nil {
		start := tr.at(t0)
		tr.record(span{Trace: pass, Name: "job." + j.name, StartNs: start, EndNs: start + int64(dur), ChildNs: st.childNs()})
		addReportLayers(layers, rep, dur, st)
	}
	return res, rep
}

// check sets the answer check and the signature of a finished run.
func (j checkJob) check(c *slx.Checker, res *opResult, rep *slx.Report) {
	if res.err != nil {
		return
	}
	res.err = j.verify(c, rep)
	res.sig = reportSig(rep)
}

// runChecked runs and checks a job outside any pass.
func (j checkJob) runChecked() opResult {
	c := j.checker()
	res, rep := j.run(c, nil, 0, nil)
	j.check(c, &res, rep)
	return res
}

// runPass runs jobs in order on their checkers, then checks every
// answer; the pass time covers the runs only.
func runPass(jobs []checkJob, checkers []*slx.Checker, tr *tracer, k int, layers map[string]float64) ([]opResult, []*slx.Report, time.Duration) {
	ops := make([]opResult, len(jobs))
	reps := make([]*slx.Report, len(jobs))
	start := time.Now()
	for i, j := range jobs {
		ops[i], reps[i] = j.run(checkers[i], tr, k, layers)
	}
	dur := time.Since(start)
	for i, j := range jobs {
		j.check(checkers[i], &ops[i], reps[i])
	}
	return ops, reps, dur
}

// verify checks a report against the job's known answer; a violation's
// witness must replay through Checker.Replay to the same property.
func (j checkJob) verify(c *slx.Checker, rep *slx.Report) error {
	if rep.Interrupted {
		return fmt.Errorf("interrupted")
	}
	if !j.violates {
		if !rep.OK() {
			return fmt.Errorf("unexpected violation: %s", rep.Failures()[0])
		}
		return nil
	}
	if rep.OK() {
		return fmt.Errorf("known violation not found")
	}
	return replaysTo(c, rep.Failures()[0], j.prop())
}

// replaysTo replays a failing verdict's witness and requires the same
// property to fail on the replayed run.
func replaysTo(c *slx.Checker, v slx.Verdict, prop slx.Property) error {
	if v.Witness == nil {
		return fmt.Errorf("violation of %s carries no witness", v.Property)
	}
	rr, err := c.Replay(v.Witness, prop)
	if err != nil {
		return fmt.Errorf("replay witness: %w", err)
	}
	got, ok := rr.Verdict(v.Property)
	if !ok || got.Holds {
		return fmt.Errorf("witness %v does not replay to a violation of %s", v.Witness, v.Property)
	}
	return nil
}

// reportSig is the deterministic signature of a report: verdicts,
// witness and every counter that is deterministic at one worker.
func reportSig(r *slx.Report) string {
	var failed string
	if f := r.Failures(); len(f) > 0 {
		failed = f[0].Property
	}
	return fmt.Sprintf("ok=%v failed=%q witness=%v prefixes=%d steps=%d resims=%d pruned=%d hits=%d scans=%d schedules=%d states=%d seed=%d",
		r.OK(), failed, r.Witness(), r.Prefixes, r.SimSteps, r.Resims, r.Pruned, r.CacheHits,
		r.EventScans, r.Schedules, r.DistinctStates, r.FailingSeed)
}

// addReportLayers adds one traced job's counters and monitor timings to
// the pass's layer values.
func addReportLayers(l map[string]float64, r *slx.Report, dur time.Duration, st *monStats) {
	self := float64(int64(dur)-st.childNs()) / 1e6
	if r.Sampled {
		l["sample.schedules"] += float64(r.Schedules)
		l["sample.distinct_states"] += float64(r.DistinctStates)
		l["sample.self_ms"] += self
		l["sample.job_ns"] += float64(dur)
	} else {
		l["explore.prefixes"] += float64(r.Prefixes)
		l["explore.pruned"] += float64(r.Pruned)
		l["explore.cache_hits"] += float64(r.CacheHits)
		l["explore.sim_steps"] += float64(r.SimSteps)
		l["explore.resim_steps"] += float64(r.Resims)
		l["explore.self_ms"] += self
		l["explore.job_ns"] += float64(dur)
	}
	l["safety.event_scans"] += float64(r.EventScans)
	l["safety.step_calls"] += float64(st.stepCalls.Load())
	l["safety.step_ms"] += float64(st.stepNs.Load()) / 1e6
	l["safety.fork_calls"] += float64(st.forkCalls.Load())
	l["safety.fork_ms"] += float64(st.forkNs.Load()) / 1e6
	l["safety.digest_calls"] += float64(st.digestCalls.Load())
	l["safety.digest_ms"] += float64(st.digestNs.Load()) / 1e6
	l["safety.digest_uncacheable"] += float64(st.uncacheable.Load())
}

// finishExploreLayers turns the pass's sums into the reported ratios.
func finishExploreLayers(l map[string]float64) {
	if p := l["explore.prefixes"]; p > 0 {
		l["explore.ns_per_prefix"] = l["explore.job_ns"] / p
	}
	if ok := l["safety.digest_calls"] - l["safety.digest_uncacheable"]; ok > 0 {
		l["explore.cache_hit_ratio"] = l["explore.cache_hits"] / ok
	}
	delete(l, "explore.job_ns")
}

// exploreInstance is the set-up explore workload.
type exploreInstance struct {
	jobs     []checkJob
	checkers []*slx.Checker
}

func setupExplore(seed int64) (instance, error) {
	jobs := exploreJobs(rand.New(rand.NewSource(seed)))
	e := &exploreInstance{jobs: jobs}
	for _, j := range jobs {
		e.checkers = append(e.checkers, j.checker())
	}
	// Warm up on the smallest job of each half.
	for _, j := range jobs {
		if j.name == "register3-d7-cached" || j.name == "consensus-d16" {
			if r := j.runChecked(); r.err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.name, r.err)
			}
		}
	}
	return e, nil
}

func (e *exploreInstance) pass(k int, tr *tracer) passResult {
	var layers map[string]float64
	if tr != nil {
		layers = map[string]float64{}
	}
	ops, _, dur := runPass(e.jobs, e.checkers, tr, k, layers)
	if tr != nil {
		finishExploreLayers(layers)
	}
	return passResult{ops: ops, dur: dur, layers: layers}
}

// finalChecks pins the rest of the durablequeue known answer: the
// queue violates only under a crash plus a recovery, so it is clean
// with no failures and with a crash alone.
func (e *exploreInstance) finalChecks() []opResult {
	var out []opResult
	for _, v := range []struct {
		name string
		opts []slx.Option
	}{
		{"durablequeue-d14-no-failures", []slx.Option{slx.WithDepth(14), slx.WithWorkers(1)}},
		{"durablequeue-d14-crash1", []slx.Option{slx.WithDepth(14), slx.WithCrashes(1), slx.WithWorkers(1)}},
	} {
		out = append(out, targetJob(v.name, 0, "durablequeue", false, v.opts...).runChecked())
	}
	return out
}

func (e *exploreInstance) close() {}

// registerOptions configures the 3-process register workload: each
// process writes its value, then reads.
func registerOptions(v1, v2, v3 int) []slx.Option {
	return []slx.Option{
		slx.WithProcs(3),
		slx.WithObject(func() run.Object { return &register{v: 0} }),
		slx.WithEnv(func() run.Environment { return registerEnv(v1, v2, v3) }),
	}
}

func registerEnv(v1, v2, v3 int) run.Environment {
	return run.Script(map[int][]run.Invocation{
		1: {{Op: "write", Arg: v1}, {Op: "read"}},
		2: {{Op: "write", Arg: v2}, {Op: "read"}},
		3: {{Op: "write", Arg: v3}, {Op: "read"}},
	})
}

// register is an atomic read/write register: one access per operation,
// with the footprint, fingerprint, snapshot and continuation hooks that
// let exploration run it on sessions with POR and the state cache.
//
//slx:norecover the register scenario is crash-free
type register struct {
	v hist.Value
	// frames memoizes the continuation frames by invocation, as the
	// repository's register benchmark does: frames are immutable, so
	// one frame per distinct invocation serves every node and Begin
	// allocates nothing after warm-up.
	frames map[run.Invocation]*registerFrame
}

// registerFrame is one in-flight operation; it is immutable, so Fork
// returns the receiver.
type registerFrame struct {
	r   *register
	inv run.Invocation
}

func (r *register) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	p.Exec(inv.Op, func() { out = r.access(p, inv) })
	return out
}

func (r *register) access(p *run.Proc, inv run.Invocation) hist.Value {
	if inv.Op == "read" {
		p.Access("r", false)
		p.Observe(r.v)
		return r.v
	}
	p.Access("r", true)
	r.v = inv.Arg
	return hist.OK
}

func (r *register) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	f := r.frames[inv]
	if f == nil {
		if r.frames == nil {
			r.frames = make(map[run.Invocation]*registerFrame)
		}
		f = &registerFrame{r: r, inv: inv}
		r.frames[inv] = f
	}
	return f, nil, run.StepPaused
}

func (f *registerFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	return f.r.access(p, f.inv), run.StepDone
}

func (f *registerFrame) Fork() run.Frame { return f }

func (r *register) Footprints() bool { return true }

func (r *register) Fingerprint(f *run.Fingerprinter) { f.Str("r"); f.Val(r.v) }

func (r *register) Snapshot() any { return r.v }

func (r *register) Restore(s any) { r.v = s }
