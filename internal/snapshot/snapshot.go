// Package snapshot implements a wait-free atomic snapshot object from
// single-writer multi-reader registers, following Afek, Attiya, Dolev,
// Gafni, Merritt and Shavit (JACM 1993).
//
// The paper's Algorithm 1 uses a snapshot object R[1..n] with an atomic
// scan. internal/base provides it as a hardware primitive (one-step scan);
// this package provides the classic software construction so that the TM
// can be built from registers and a single compare-and-swap only — every
// register access is one simulator step, and scans are genuinely
// concurrent with updates.
//
// Update_i embeds a full scan ("view") into the written cell; Scan double
// collects until either two collects agree (a clean snapshot) or some
// updater is seen to move twice, in which case its embedded view — taken
// entirely within our scan's window — is borrowed. Both operations are
// wait-free: a scan performs O(n) double collects.
package snapshot

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/sim"
)

// Value is the component datum.
type Value = base.Value

// cell is the immutable record stored in each component register.
type cell struct {
	val Value
	seq int
	// view is the scan embedded by the update that wrote this cell; nil
	// for the initial cell.
	view []Value
}

// SW is the software snapshot object. Component i must only be updated by
// process i+1 (single-writer), which is how the paper's Algorithm 1 uses
// R[1..n].
type SW struct {
	name string
	regs []*base.Register

	// borrows counts scans that returned an embedded view rather than a
	// clean double collect (observability for tests and benchmarks). It is
	// only mutated inside granted steps' windows.
	borrows int
}

// Borrows returns how many scans returned a borrowed embedded view.
func (s *SW) Borrows() int { return s.borrows }

// New creates a software snapshot with n components initialized to
// initial.
func New(name string, n int, initial Value) *SW {
	s := &SW{name: name, regs: make([]*base.Register, n)}
	for i := range s.regs {
		s.regs[i] = base.NewRegister(
			fmt.Sprintf("%s[%d]", name, i),
			&cell{val: initial},
		)
	}
	return s
}

// Len returns the number of components.
func (s *SW) Len() int { return len(s.regs) }

// swState is a captured SW configuration: the component cells (immutable
// records, so the pointers are the state) plus the borrow counter.
type swState struct {
	cells   []Value
	borrows int
}

// Snapshot captures the snapshot object's state for the incremental
// exploration engine (composed into sim.Snapshottable hooks). In-flight
// scans and updates live in their frames, not here.
func (s *SW) Snapshot() any {
	st := &swState{cells: make([]Value, len(s.regs)), borrows: s.borrows}
	for i, r := range s.regs {
		st.cells[i] = r.Snapshot()
	}
	return st
}

// Restore reinstates a state captured by Snapshot.
func (s *SW) Restore(v any) {
	st := v.(*swState)
	for i, r := range s.regs {
		r.Restore(st.cells[i])
	}
	s.borrows = st.borrows
}

func values(cells []*cell) []Value {
	out := make([]Value, len(cells))
	for i, c := range cells {
		out[i] = c.val
	}
	return out
}

// BeginScan returns the continuation frame of an atomic scan of all
// components, to be stepped under the scanning process's granted
// windows (one register read per Step); the Step that completes it
// returns the snapshot as a []Value. The scan is wait-free: it double
// collects until two collects agree (the snapshot is the second
// collect, which was valid at every point between the two) or some
// component moves twice, in which case that component's embedded view
// — scanned entirely inside our window — is returned instead.
func (s *SW) BeginScan() sim.Frame {
	n := len(s.regs)
	return &scanFrame{s: s, moved: make([]int, n), cur: make([]*cell, n)}
}

// scanFrame is an in-flight scan: i is the next component of the
// current collect, prev the previous complete collect (nil during the
// first), and moved counts the changes observed per component.
type scanFrame struct {
	s     *SW
	moved []int
	prev  []*cell
	cur   []*cell
	i     int
}

// Step implements sim.Frame.
func (f *scanFrame) Step(p *sim.Proc) (Value, sim.StepStatus) {
	s := f.s
	f.cur[f.i] = s.regs[f.i].ReadW(p).(*cell)
	if f.i++; f.i < len(s.regs) {
		return nil, sim.StepPaused
	}
	f.i = 0
	if f.prev == nil {
		f.prev, f.cur = f.cur, make([]*cell, len(s.regs))
		return nil, sim.StepPaused
	}
	agree := true
	for i := range f.cur {
		if f.cur[i].seq != f.prev[i].seq {
			agree = false
			f.moved[i]++
			if f.moved[i] >= 2 {
				// cur[i]'s update began after our scan did (it is the
				// second move we observed), so its embedded view was
				// taken within our window.
				s.borrows++
				view := make([]Value, len(s.regs))
				copy(view, f.cur[i].view)
				return view, sim.StepDone
			}
		}
	}
	if agree {
		return values(f.cur), sim.StepDone
	}
	f.prev, f.cur = f.cur, f.prev
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *scanFrame) Fork() sim.Frame {
	c := *f
	c.moved = append([]int(nil), f.moved...)
	c.cur = append([]*cell(nil), f.cur...)
	if f.prev != nil {
		c.prev = append([]*cell(nil), f.prev...)
	}
	return &c
}

// BeginUpdate returns the continuation frame that atomically sets
// component i (0-based) to v. Per the single-writer discipline, only one
// process may ever update a given component. The update embeds a fresh
// scan, making it linearizable with concurrent scans: it scans, reads
// its own component, then writes the new cell.
func (s *SW) BeginUpdate(i int, v Value) sim.Frame {
	return &updateFrame{s: s, i: i, v: v, scan: s.BeginScan().(*scanFrame)}
}

// updateFrame is an in-flight update: the embedded scan runs first
// (scan non-nil), then the read of the own component (old nil), then
// the write.
type updateFrame struct {
	s    *SW
	i    int
	v    Value
	scan *scanFrame
	view []Value
	old  *cell
}

// Step implements sim.Frame.
func (f *updateFrame) Step(p *sim.Proc) (Value, sim.StepStatus) {
	switch {
	case f.scan != nil:
		if view, st := f.scan.Step(p); st == sim.StepDone {
			f.view = view.([]Value)
			f.scan = nil
		}
		return nil, sim.StepPaused
	case f.old == nil:
		f.old = f.s.regs[f.i].ReadW(p).(*cell)
		return nil, sim.StepPaused
	}
	f.s.regs[f.i].WriteW(p, &cell{val: f.v, seq: f.old.seq + 1, view: f.view})
	return nil, sim.StepDone
}

// Fork implements sim.Frame. The collected view and the cells are
// immutable once complete, so only the scan needs a deep copy.
func (f *updateFrame) Fork() sim.Frame {
	c := *f
	if f.scan != nil {
		c.scan = f.scan.Fork().(*scanFrame)
	}
	return &c
}
