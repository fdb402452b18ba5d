package mutex

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// Bakery is Lamport's bakery lock for n processes from registers only:
// first-come-first-served and hence starvation-free. Tickets grow without
// bound, which is fine in simulation (the paper's registers hold arbitrary
// values).
//
//slx:nosnapshot unbounded tickets make restored sessions diverge from recorded history lengths
//slx:nofootprint acquire scans every process's slots, so steps conflict pairwise anyway
//slx:norecover tickets and flags are modeled durable; a crashed holder simply never releases
type Bakery struct {
	n        int
	choosing []*base.Register
	number   []*base.Register
}

// NewBakery creates the lock for n processes.
func NewBakery(n int) *Bakery {
	b := &Bakery{
		n:        n,
		choosing: make([]*base.Register, n),
		number:   make([]*base.Register, n),
	}
	for i := 0; i < n; i++ {
		b.choosing[i] = base.NewRegister("choosing", false)
		b.number[i] = base.NewRegister("number", 0)
	}
	return b
}

// Fingerprint implements sim.Fingerprintable: tickets and choosing
// flags, in process order. (The registers share the names "choosing"
// and "number" across processes, which is fine here: the fixed write
// order keys each component by position.)
func (b *Bakery) Fingerprint(f *sim.Fingerprinter) {
	for i := 0; i < b.n; i++ {
		b.choosing[i].Fingerprint(f)
		b.number[i].Fingerprint(f)
	}
}

// Begin implements sim.Object.
func (b *Bakery) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case OpAcquire:
		return &bakeryAcquire{b: b, me: p.ID() - 1}, nil, sim.StepPaused
	case OpRelease:
		return &bakeryRelease{b: b}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// bakeryAcquire is an in-flight acquire. pc: 0 = raise choosing, 1 =
// read number[j] for the maximum, 2 = take ticket max+1, 3 = lower
// choosing, 4 = wait while choosing[j], 5 = wait while number[j] has
// priority; j walks the other processes in id order.
type bakeryAcquire struct {
	b     *Bakery
	me    int
	pc    int
	j     int
	max   int
	myNum int
}

// Step implements sim.Frame.
func (f *bakeryAcquire) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	b := f.b
	switch f.pc {
	case 0:
		b.choosing[f.me].WriteW(p, true)
		f.pc = 1
	case 1:
		if n := b.number[f.j].ReadW(p).(int); n > f.max {
			f.max = n
		}
		if f.j++; f.j == b.n {
			f.myNum = f.max + 1
			f.pc = 2
		}
	case 2:
		b.number[f.me].WriteW(p, f.myNum)
		f.pc = 3
	case 3:
		b.choosing[f.me].WriteW(p, false)
		f.j = -1
		return f.nextOther()
	case 4:
		if !b.choosing[f.j].ReadW(p).(bool) {
			f.pc = 5
		}
	case 5:
		nj := b.number[f.j].ReadW(p).(int)
		if nj == 0 || nj > f.myNum || (nj == f.myNum && f.j > f.me) {
			return f.nextOther()
		}
	}
	return nil, sim.StepPaused
}

// nextOther advances j to the next other process to wait for; the lock
// is held once none is left.
func (f *bakeryAcquire) nextOther() (history.Value, sim.StepStatus) {
	f.j++
	if f.j == f.me {
		f.j++
	}
	if f.j >= f.b.n {
		return Locked, sim.StepDone
	}
	f.pc = 4
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *bakeryAcquire) Fork() sim.Frame {
	c := *f
	return &c
}

// bakeryRelease is an in-flight release: one write of the own ticket
// back to zero. It never mutates, so Fork returns the receiver.
type bakeryRelease struct{ b *Bakery }

// Step implements sim.Frame.
func (f *bakeryRelease) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	f.b.number[p.ID()-1].WriteW(p, 0)
	return Unlocked, sim.StepDone
}

// Fork implements sim.Frame.
func (f *bakeryRelease) Fork() sim.Frame { return f }
