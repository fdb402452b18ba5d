package consensus

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// DecideOwn is the trivial wait-free k-set agreement implementation for
// n <= k processes: every process announces and decides its own value (at
// most n <= k distinct decisions). For n >= k+1 it violates k-set
// agreement, matching the Borowsky-Gafni boundary: k-set agreement is
// wait-free solvable from registers iff n <= k.
type DecideOwn struct {
	ann *base.Snapshot
}

// NewDecideOwn creates the implementation for n processes.
func NewDecideOwn(n int) *DecideOwn {
	return &DecideOwn{ann: base.NewSnapshot("ann", n, nil)}
}

// Begin implements sim.Object: one announce step, then decide the own
// value.
func (d *DecideOwn) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &announceFrame{ann: d.ann, arg: inv.Arg}, nil, sim.StepPaused
}

// announceFrame is one in-flight propose of DecideOwn or FirstAnnounced:
// announce the own value, then (scan=true) scan the announcements and
// decide the lowest announced slot's value.
type announceFrame struct {
	ann       *base.Snapshot
	arg       history.Value
	scan      bool
	announced bool
}

// Step implements sim.Frame.
func (f *announceFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if !f.announced {
		f.ann.UpdateW(p, p.ID()-1, f.arg)
		if !f.scan {
			return f.arg, sim.StepDone
		}
		f.announced = true
		return nil, sim.StepPaused
	}
	for _, v := range f.ann.ScanW(p, nil) {
		if v != nil {
			return v, sim.StepDone
		}
	}
	return f.arg, sim.StepDone
}

// Fork implements sim.Frame.
func (f *announceFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// FirstAnnounced is a k-set agreement implementation that decides the
// value in the lowest announced slot it observes: wait-free and safe for
// every n (all processes converge to at most... in fact exactly the values
// that were in low slots when each scanned — up to n distinct values in
// adversarial interleavings, but at most k when at most k values are ever
// announced). It is used by tests as a *plausible but wrong* candidate for
// n > k: the explorer finds the violating interleaving.
type FirstAnnounced struct {
	ann *base.Snapshot
}

// NewFirstAnnounced creates the implementation for n processes.
func NewFirstAnnounced(n int) *FirstAnnounced {
	return &FirstAnnounced{ann: base.NewSnapshot("ann", n, nil)}
}

// Begin implements sim.Object: announce, scan, decide.
func (d *FirstAnnounced) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &announceFrame{ann: d.ann, arg: inv.Arg, scan: true}, nil, sim.StepPaused
}
