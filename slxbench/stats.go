package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// median returns the median of vs (0 for none).
func median(vs []float64) float64 { return percentile(vs, 50) }

// percentile returns the p-th percentile of vs by linear interpolation
// between closest ranks (0 for none).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runtimeSample names the runtime/metrics counters read around every
// untraced pass.
var runtimeSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// runtimeCounters is one reading of runtimeSample.
type runtimeCounters struct {
	allocs, bytes, cycles float64
	gcCPU                 float64
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSample...)
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocs: v(0) + v(1), bytes: v(2), cycles: v(3), gcCPU: v(4)}
}

// runtimeDelta accumulates runtime counter deltas over the untraced
// passes.
type runtimeDelta struct{ runtimeCounters }

func (d *runtimeDelta) add(before, after runtimeCounters) {
	d.allocs += after.allocs - before.allocs
	d.bytes += after.bytes - before.bytes
	d.cycles += after.cycles - before.cycles
	d.gcCPU += after.gcCPU - before.gcCPU
}

// perOp normalizes the deltas: allocations and bytes per operation, GC
// cycles and GC CPU per pass.
func (d runtimeDelta) perOp(ops, passes int) map[string]float64 {
	return map[string]float64{
		"go.allocs_per_op": d.allocs / float64(ops),
		"go.bytes_per_op":  d.bytes / float64(ops),
		"go.gc_cycles":     d.cycles / float64(passes),
		"go.gc_cpu_s":      d.gcCPU / float64(passes),
	}
}
