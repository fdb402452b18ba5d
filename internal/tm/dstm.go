package tm

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// Transaction statuses for the DSTM descriptor.
const (
	txActive    = "active"
	txCommitted = "committed"
	txAborted   = "aborted"
)

// txDesc is a DSTM transaction descriptor: its status word is the
// transaction's single linearization point.
type txDesc struct {
	status *base.CAS
}

// orec is a per-variable ownership record: the variable's value is
// rec.newVal if the owner committed, rec.oldVal otherwise.
type orec struct {
	owner  *txDesc
	oldVal history.Value
	newVal history.Value
}

// DSTM is a simplified obstruction-free TM in the style of Herlihy,
// Luchangco, Moir and Scherer (the paper's reference [21]): per-variable
// ownership records, visible reads, and abort-the-other conflict
// resolution. A transaction running without step contention steals every
// ownership record it needs and commits ((1,1)-freedom); two contenders
// can abort each other forever, so unlike GlobalCAS it is not lock-free —
// the deterministic lockstep test exhibits the mutual-abort livelock.
//
// Opacity: acquiring a variable first aborts any active owner, so between
// two of a transaction's operations no other transaction can have touched
// its variables without aborting it first; every operation begins by
// checking the own status and returns A once aborted. Values resolve
// through the previous owner's status, one level deep, because each
// acquisition snapshots the resolved current value into oldVal.
type DSTM struct {
	orecs map[string]*base.CAS
	local []dstmLocal
}

type dstmLocal struct {
	desc *txDesc
}

// NewDSTM creates the implementation for n processes.
func NewDSTM(n int) *DSTM {
	return &DSTM{
		orecs: make(map[string]*base.CAS),
		local: make([]dstmLocal, n+1),
	}
}

func (t *DSTM) orecFor(v string) *base.CAS {
	c, ok := t.orecs[v]
	if !ok {
		c = base.NewCAS("orec:"+v, (*orec)(nil))
		t.orecs[v] = c
	}
	return c
}

// Begin implements sim.Object. start installs a fresh descriptor and
// tryC retires it, both in the invocation window (tryC's commit is one
// CAS step on the status word); read and write run the acquire loop.
// An operation on a process without a live descriptor aborts at once.
func (t *DSTM) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	l := &t.local[p.ID()]
	switch inv.Op {
	case history.TMStart:
		l.desc = &txDesc{status: base.NewCAS("tx", txActive)}
		return nil, history.OK, sim.StepDone
	case history.TMTryC:
		d := l.desc
		if d == nil {
			return nil, history.Abort, sim.StepDone
		}
		l.desc = nil
		return &dstmCommit{d: d}, nil, sim.StepPaused
	case history.TMRead, history.TMWrite:
		if l.desc == nil {
			return nil, history.Abort, sim.StepDone
		}
		return &dstmAcquire{
			mine:  l.desc,
			oc:    t.orecFor(inv.Obj),
			write: inv.Op == history.TMWrite,
			val:   inv.Arg,
		}, nil, sim.StepPaused
	default:
		return nil, history.Abort, sim.StepDone
	}
}

// dstmCommit is an in-flight tryC: one CAS of the status word from
// active to committed. It never mutates, so Fork returns it.
type dstmCommit struct{ d *txDesc }

// Step implements sim.Frame.
func (f *dstmCommit) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if f.d.status.CompareAndSwapW(p, txActive, txCommitted) {
		return history.Commit, sim.StepDone
	}
	return history.Abort, sim.StepDone
}

// Fork implements sim.Frame.
func (f *dstmCommit) Fork() sim.Frame { return f }

// Phases of dstmAcquire.pc; each names the access the next Step makes.
const (
	acqActive      = iota // read the own status at the top of the loop
	acqReadOrec           // read the variable's ownership record
	acqOwnedActive        // re-read of an owned variable: validate the own status
	acqOwnedCAS           // re-write of an owned variable: CAS the new record
	acqWroteActive        // after that CAS: validate the own status
	acqOwnerActive        // read the current owner's status
	acqAbortOwner         // abort the active owner
	acqResolve            // read the previous owner's status to resolve the value
	acqStealCAS           // CAS our record over cur
	acqStoleActive        // after that CAS: validate the own status
)

// dstmAcquire is an in-flight read or write: the acquire loop taking
// ownership of the variable's record for the own transaction (mine).
// A transaction running alone steals every record and completes; a
// competitor's active transaction is aborted first (obstruction-free
// conflict resolution).
type dstmAcquire struct {
	mine     *txDesc
	oc       *base.CAS
	write    bool
	val      history.Value
	pc       int
	cur      *orec
	next     *orec
	resolved history.Value
}

// Step implements sim.Frame.
func (f *dstmAcquire) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	switch f.pc {
	case acqActive:
		if f.mine.status.ReadW(p) != txActive {
			return history.Abort, sim.StepDone
		}
		f.pc = acqReadOrec
	case acqReadOrec:
		f.cur, _ = f.oc.ReadW(p).(*orec)
		switch {
		case f.cur != nil && f.cur.owner == f.mine:
			// Re-access of an owned variable. Validate the own status
			// before exposing the value: if a competitor aborted us, the
			// value would join an inconsistent read set (opacity for
			// aborted transactions).
			if !f.write {
				f.pc = acqOwnedActive
				break
			}
			f.next = &orec{owner: f.mine, oldVal: f.cur.oldVal, newVal: f.val}
			f.pc = acqOwnedCAS
		case f.cur != nil:
			f.pc = acqOwnerActive
		default:
			// A nil record holds the initial value 0.
			f.resolved = 0
			f.steal()
		}
	case acqOwnedActive:
		if f.mine.status.ReadW(p) != txActive {
			return history.Abort, sim.StepDone
		}
		return f.cur.newVal, sim.StepDone
	case acqOwnedCAS:
		if f.oc.CompareAndSwapW(p, f.cur, f.next) {
			f.pc = acqWroteActive
		} else {
			f.pc = acqActive
		}
	case acqWroteActive:
		if f.mine.status.ReadW(p) != txActive {
			return history.Abort, sim.StepDone
		}
		return history.OK, sim.StepDone
	case acqOwnerActive:
		if f.cur.owner.status.ReadW(p) == txActive {
			f.pc = acqAbortOwner
		} else {
			f.pc = acqResolve
		}
	case acqAbortOwner:
		f.cur.owner.status.CompareAndSwapW(p, txActive, txAborted)
		f.pc = acqActive
	case acqResolve:
		// The record's value is newVal if its owner committed, oldVal
		// otherwise.
		if f.cur.owner.status.ReadW(p) == txCommitted {
			f.resolved = f.cur.newVal
		} else {
			f.resolved = f.cur.oldVal
		}
		f.steal()
	case acqStealCAS:
		if f.oc.CompareAndSwapW(p, f.cur, f.next) {
			f.pc = acqStoleActive
		} else {
			f.pc = acqActive
		}
	case acqStoleActive:
		// Post-acquire validation: if our status still reads active here,
		// no competitor has stolen any of our records up to this instant
		// (stealing aborts first), so every value we have returned is
		// simultaneously current — a consistent snapshot.
		if f.mine.status.ReadW(p) != txActive {
			return history.Abort, sim.StepDone
		}
		if f.write {
			return history.OK, sim.StepDone
		}
		return f.resolved, sim.StepDone
	}
	return nil, sim.StepPaused
}

// steal prepares the CAS installing our record over cur, keeping the
// resolved current value as oldVal (writes install val as newVal).
func (f *dstmAcquire) steal() {
	newVal := f.resolved
	if f.write {
		newVal = f.val
	}
	f.next = &orec{owner: f.mine, oldVal: f.resolved, newVal: newVal}
	f.pc = acqStealCAS
}

// Fork implements sim.Frame. The records it points to are immutable.
func (f *dstmAcquire) Fork() sim.Frame {
	c := *f
	return &c
}
