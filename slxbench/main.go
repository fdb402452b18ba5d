// Command slxbench is the end-to-end benchmark of slx. It runs one
// workload through the public entry points (slx.Checker, slx/plane,
// internal/service) for a fixed number of seconds, checks every answer
// against a known-answer table, and prints one JSON result line.
//
// Usage (from the repository root, after building):
//
//	slxbench --workload explore|sample|paper|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// from traced passes that alternate with untraced ones. NOTES.md says
// what every metric measures and which end-to-end metric each per-layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow first set-up does not decide the figure.
const setupReps = 9

// opResult is the outcome of one timed operation: a job, an
// experiment, or a service request from POST to terminal state.
type opResult struct {
	name string
	// part is 0 or 1: the half of the workload's operation list the
	// operation belongs to (part_a_s, part_b_s).
	part int
	dur  time.Duration
	// err is set when the answer is wrong or missing.
	err error
	// sig is a deterministic signature of the outcome (verdict,
	// witness, counters), compared between the untraced and traced run
	// of the same pass; empty when the outcome is not deterministic.
	sig string
}

// passResult is one pass over the workload's operation list.
type passResult struct {
	ops []opResult
	dur time.Duration
	// layers holds the per-layer values of a traced pass.
	layers map[string]float64
}

// instance is a set-up workload.
type instance interface {
	// pass runs pass k. Its inputs depend only on the seed and k. tr is
	// nil on an untraced pass.
	pass(k int, tr *tracer) passResult
	// finalChecks runs the known-answer checks that need runs of their
	// own, outside the timed passes.
	finalChecks() []opResult
	close()
}

// workload describes one benchmark workload.
type workload struct {
	// tailPct is the percentile reported as op_ms_tail: the highest one
	// with at least ten operations beyond it in a run of the default
	// length on a 2-CPU host.
	tailPct float64
	setup   func(seed int64) (instance, error)
}

var workloads = map[string]workload{
	"explore": {tailPct: 75, setup: setupExplore},
	"sample":  {tailPct: 99, setup: setupSample},
	"paper":   {tailPct: 90, setup: setupPaper},
	"service": {tailPct: 99, setup: setupService},
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the names
// and units of the metrics it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := bench(); err != nil {
		fmt.Fprintln(os.Stderr, "slxbench:", err)
		os.Exit(1)
	}
}

func bench() error {
	name := flag.String("workload", "", "workload: explore, sample, paper or service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the spans of a traced run are written to")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	traced := *traceFlag == 1

	// Set up several times; the last instance is measured.
	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = wl.setup(*seed)
		if err != nil {
			return fmt.Errorf("set up %s: %w", *name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, tracedPasses []passResult
	var rt runtimeDelta
	var parityErrs []opResult
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		before := readRuntime()
		p := inst.pass(k, nil)
		rt.add(before, readRuntime())
		plain = append(plain, p)
		if traced {
			start := tr.now()
			tp := inst.pass(k, tr)
			tr.record(span{Trace: k, Name: "pass", StartNs: start, EndNs: start + int64(tp.dur)})
			tracedPasses = append(tracedPasses, tp)
			parityErrs = append(parityErrs, parity(k, p, tp)...)
		}
	}
	final := inst.finalChecks()
	var sims map[string]float64
	if traced {
		var err error
		sims, err = simDriver()
		final = append(final, opResult{name: "sim driver", err: err})
	}

	attempted, failed := 0, 0
	count := func(ops []opResult) {
		for _, o := range ops {
			attempted++
			if o.err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", o.name, o.err)
			}
		}
	}
	for _, p := range plain {
		count(p.ops)
	}
	for _, p := range tracedPasses {
		count(p.ops)
	}
	count(final)
	count(parityErrs)

	var values map[string]float64
	var want []metricSpec
	if traced {
		values = perLayerValues(plain, tracedPasses, rt)
		for k, v := range sims {
			values[k] = v
		}
		want = spec.PerLayer
		if err := tr.write(filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))); err != nil {
			return err
		}
	} else {
		values = endToEndValues(plain, wl.tailPct, setups)
		want = spec.EndToEnd
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	if len(values) > 0 {
		return fmt.Errorf("measured metrics missing from %s: %v", *specPath, sortedKeys(values))
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d passes, %d operations, error_ratio %g (%d/%d)\n",
		*name, *seed, len(plain)+len(tracedPasses), attempted, float64(failed)/float64(attempted), failed, attempted)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// parity compares the untraced and the traced run of pass k: tracing
// must not change any verdict, witness or deterministic counter.
func parity(k int, plain, traced passResult) []opResult {
	var out []opResult
	if len(plain.ops) != len(traced.ops) {
		return []opResult{{name: fmt.Sprintf("pass %d parity", k), err: fmt.Errorf("%d untraced vs %d traced operations", len(plain.ops), len(traced.ops))}}
	}
	for i, o := range plain.ops {
		t := traced.ops[i]
		if o.sig == "" && t.sig == "" {
			continue
		}
		r := opResult{name: fmt.Sprintf("pass %d %s parity", k, o.name)}
		if o.name != t.name || o.sig != t.sig {
			r.err = fmt.Errorf("untraced %s %q, traced %s %q", o.name, o.sig, t.name, t.sig)
		}
		out = append(out, r)
	}
	return out
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(passes []passResult, tailPct float64, setups []float64) map[string]float64 {
	var passS, partA, partB, opMs []float64
	var wall time.Duration
	nops := 0
	for _, p := range passes {
		var parts [2]time.Duration
		for _, o := range p.ops {
			parts[o.part] += o.dur
			opMs = append(opMs, ms(o.dur))
		}
		passS = append(passS, p.dur.Seconds())
		partA = append(partA, parts[0].Seconds())
		partB = append(partB, parts[1].Seconds())
		wall += p.dur
		nops += len(p.ops)
	}
	fmt.Fprintf(os.Stderr, "%d passes: pass_s p25 %.4f p50 %.4f p75 %.4f; %d operations: p50 %.3f ms, p%g %.3f ms\n",
		len(passS), percentile(passS, 25), median(passS), percentile(passS, 75),
		len(opMs), percentile(opMs, 50), tailPct, percentile(opMs, tailPct))
	return map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
		"pass_s":      median(passS),
		"part_a_s":    median(partA),
		"part_b_s":    median(partB),
		"op_ms_p50":   percentile(opMs, 50),
		"op_ms_tail":  percentile(opMs, tailPct),
		"ops_per_s":   float64(nops) / wall.Seconds(),
	}
}

// perLayerValues computes the per-layer metrics of a traced run: the
// median over traced passes of each layer value, the runtime counters
// of the untraced passes, and the tracing overhead. The sim driver's
// metrics are added by the caller.
func perLayerValues(plain, traced []passResult, rt runtimeDelta) map[string]float64 {
	series := map[string][]float64{}
	for _, p := range traced {
		for k, v := range p.layers {
			series[k] = append(series[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range series {
		out[k] = median(vs)
	}
	var pd, td []float64
	nops := 0
	for i := range plain {
		pd = append(pd, plain[i].dur.Seconds())
		td = append(td, traced[i].dur.Seconds())
		nops += len(plain[i].ops)
	}
	out["trace.overhead_ratio"] = median(td) / median(pd)
	for k, v := range rt.perOp(nops, len(plain)) {
		out[k] = v
	}
	return out
}

// passRand is the input generator of pass k: the same seed and pass
// index always give the same inputs.
func passRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
