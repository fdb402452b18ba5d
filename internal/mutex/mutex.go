// Package mutex implements the lock shared-object type the paper's
// Section 3.2 cites as the home of starvation-freedom ("the strongest
// liveness requirement for lock-based implementations"), with three
// implementations from base objects:
//
//   - Peterson: the classic two-process starvation-free lock from
//     registers;
//   - Tournament: the n-process tournament of Peterson locks
//     (starvation-free, registers only);
//   - TASLock: a test-and-set spinlock — deadlock-free but NOT
//     starvation-free, which the StarveTAS adversary demonstrates with a
//     fair schedule on which one process never acquires.
//
// The object type has operations "acquire" (response Locked) and
// "release" (response Unlocked); the good-response set for lock liveness
// is {Locked}, so starvation-freedom is exactly wait-freedom over
// acquisitions and deadlock-freedom is 1-lock-freedom.
package mutex

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
)

// Lock operation names (aliases of the safety package's) and responses.
const (
	OpAcquire = safety.LockAcquire
	OpRelease = safety.LockRelease
	Locked    = "locked"
	Unlocked  = "unlocked"
)

// Good is the lock good-response set: only acquisitions are progress.
func Good() liveness.Good { return liveness.Good{Locked: true} }

// StarvationFreedom is the lock L_max: every correct process that keeps
// requesting the lock acquires it infinitely often.
func StarvationFreedom() liveness.Property {
	return liveness.WaitFreedom{Good: Good()}
}

// DeadlockFreedom requires that some process keeps acquiring.
func DeadlockFreedom() liveness.Property {
	return liveness.LLockFreedom{L: 1, Good: Good()}
}

// Peterson is the two-process Peterson lock from registers. Process ids
// must be 1 and 2.
//
//slx:norecover flag and turn registers are modeled durable; a crashed holder simply never releases
type Peterson struct {
	flag [2]*base.Register
	turn *base.Register
}

// NewPeterson creates the lock.
func NewPeterson() *Peterson {
	return &Peterson{
		flag: [2]*base.Register{
			base.NewRegister("flag1", false),
			base.NewRegister("flag2", false),
		},
		turn: base.NewRegister("turn", 1),
	}
}

// Footprints implements sim.Footprinted: all shared state is in the
// three named registers.
func (l *Peterson) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: the three registers hold
// booleans and process ids, compared by value.
func (l *Peterson) Fingerprint(f *sim.Fingerprinter) {
	l.flag[0].Fingerprint(f)
	l.flag[1].Fingerprint(f)
	l.turn.Fingerprint(f)
}

// petersonState is a captured lock configuration.
type petersonState struct{ f0, f1, turn any }

// Snapshot implements sim.Snapshottable: the three registers are the
// whole state.
func (l *Peterson) Snapshot() any {
	return &petersonState{f0: l.flag[0].Snapshot(), f1: l.flag[1].Snapshot(), turn: l.turn.Snapshot()}
}

// Restore implements sim.Snapshottable.
func (l *Peterson) Restore(v any) {
	st := v.(*petersonState)
	l.flag[0].Restore(st.f0)
	l.flag[1].Restore(st.f1)
	l.turn.Restore(st.turn)
}

// petersonFrame is one in-flight Peterson operation as a continuation
// state machine; pc tracks the acquire protocol's position (write own
// flag, write turn, then the two-read spin loop).
type petersonFrame struct {
	l       *Peterson
	me      int // p.ID() - 1
	acquire bool
	pc      int
}

// Begin implements sim.Object: both operations start with a base
// access, so the invocation window runs no object code. The lock has one
// flag per process for exactly two processes, so any other process id
// is a misuse and panics.
func (l *Peterson) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	me := p.ID() - 1
	if me != 0 && me != 1 {
		panic(fmt.Sprintf("mutex: Peterson is a two-process lock (process ids 1 and 2), invoked by process %d", p.ID()))
	}
	switch inv.Op {
	case OpAcquire:
		return &petersonFrame{l: l, me: me, acquire: true}, nil, sim.StepPaused
	case OpRelease:
		return &petersonFrame{l: l, me: me}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// Step implements sim.Frame: release writes the own flag down; acquire
// writes the own flag, yields the turn, then spins reading the other
// flag and the turn until either lets it in.
func (f *petersonFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	l := f.l
	if !f.acquire {
		l.flag[f.me].WriteW(p, false)
		return Unlocked, sim.StepDone
	}
	other := 1 - f.me
	switch f.pc {
	case 0:
		l.flag[f.me].WriteW(p, true)
		f.pc = 1
	case 1:
		l.turn.WriteW(p, other+1)
		f.pc = 2
	case 2:
		if !l.flag[other].ReadW(p).(bool) {
			return Locked, sim.StepDone
		}
		f.pc = 3
	case 3:
		if l.turn.ReadW(p) != other+1 {
			return Locked, sim.StepDone
		}
		f.pc = 2
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *petersonFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// TASLock is a test-and-set spinlock: deadlock-free, not starvation-free.
//
//slx:norecover the one TAS bit is modeled durable; a crashed holder simply never releases
type TASLock struct {
	t *base.TAS
}

// NewTASLock creates the lock.
func NewTASLock() *TASLock {
	return &TASLock{t: base.NewTAS("lock")}
}

// Footprints implements sim.Footprinted: all shared state is the single
// test-and-set bit.
func (l *TASLock) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: the single bit is the
// whole shared state.
func (l *TASLock) Fingerprint(f *sim.Fingerprinter) {
	l.t.Fingerprint(f)
}

// Snapshot implements sim.Snapshottable: the bit is the whole state.
func (l *TASLock) Snapshot() any { return l.t.Snapshot() }

// Restore implements sim.Snapshottable.
func (l *TASLock) Restore(v any) { l.t.Restore(v) }

// tasLockFrame is one in-flight TASLock operation. It carries no
// mutable state (the spin loop re-runs the same test-and-set step), so
// Fork returns the frame itself.
type tasLockFrame struct {
	l       *TASLock
	acquire bool
}

// Begin implements sim.Object.
func (l *TASLock) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case OpAcquire:
		return &tasLockFrame{l: l, acquire: true}, nil, sim.StepPaused
	case OpRelease:
		return &tasLockFrame{l: l}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// Step implements sim.Frame.
func (f *tasLockFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if !f.acquire {
		f.l.t.ResetW(p)
		return Unlocked, sim.StepDone
	}
	if f.l.t.TestAndSetW(p) {
		return Locked, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame: the frame is immutable.
func (f *tasLockFrame) Fork() sim.Frame { return f }

// Tournament is the n-process tournament lock: a binary tree of Peterson
// locks; a process climbs from its leaf to the root, playing the side its
// subtree lies on at each node, and releases top-down in reverse. n is
// rounded up to a power of two.
type Tournament struct {
	n      int
	levels int
	// node flags/turn per internal node: node index 1..(leafBase-1),
	// heap-style (children of i are 2i and 2i+1).
	flag map[int][2]*base.Register
	turn map[int]*base.Register
	leaf int // first leaf index = number of internal nodes + 1
}

// NewTournament creates the lock for n processes (n >= 1).
func NewTournament(n int) *Tournament {
	size := 1
	levels := 0
	for size < n {
		size *= 2
		levels++
	}
	t := &Tournament{
		n:      n,
		levels: levels,
		flag:   make(map[int][2]*base.Register),
		turn:   make(map[int]*base.Register),
		leaf:   size,
	}
	for node := 1; node < size; node++ {
		t.flag[node] = [2]*base.Register{
			base.NewRegister("flagL", false),
			base.NewRegister("flagR", false),
		}
		t.turn[node] = base.NewRegister("turn", 0)
	}
	return t
}

// Begin implements sim.Object. A process climbs from its leaf position
// to the root, acquiring the two-process lock of each node on the side
// its subtree lies on, and releases top-down; with a single process
// there is no node, so both operations complete in the invocation
// window.
func (t *Tournament) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	pos := t.leaf + p.ID() - 1
	switch inv.Op {
	case OpAcquire:
		if pos == 1 {
			return nil, Locked, sim.StepDone
		}
		return &tournamentAcquire{t: t, pos: pos}, nil, sim.StepPaused
	case OpRelease:
		if pos == 1 {
			return nil, Unlocked, sim.StepDone
		}
		// Level i of the climb is the node above position pos>>i; the
		// root is the last level.
		top := 0
		for pos>>(top+1) > 1 {
			top++
		}
		return &tournamentRelease{t: t, leaf: pos, level: top}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

func (t *Tournament) flagReg(node, side int) *base.Register {
	return t.flag[node][side]
}

// tournamentAcquire is an in-flight acquire at position pos (the node
// pos/2 is being acquired from side pos%2). pc: 0 = raise the own flag,
// 1 = yield the turn, 2 = read the other flag, 3 = read the turn.
type tournamentAcquire struct {
	t   *Tournament
	pos int
	pc  int
}

// Step implements sim.Frame.
func (f *tournamentAcquire) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	t := f.t
	node, side := f.pos/2, f.pos%2
	other := 1 - side
	switch f.pc {
	case 0:
		t.flagReg(node, side).WriteW(p, true)
		f.pc = 1
	case 1:
		t.turn[node].WriteW(p, other)
		f.pc = 2
	case 2:
		if !t.flagReg(node, other).ReadW(p).(bool) {
			return f.climb()
		}
		f.pc = 3
	case 3:
		if t.turn[node].ReadW(p) != other {
			return f.climb()
		}
		f.pc = 2
	}
	return nil, sim.StepPaused
}

// climb moves past an acquired node: the lock is held at the root.
func (f *tournamentAcquire) climb() (history.Value, sim.StepStatus) {
	f.pos /= 2
	f.pc = 0
	if f.pos > 1 {
		return nil, sim.StepPaused
	}
	return Locked, sim.StepDone
}

// Fork implements sim.Frame.
func (f *tournamentAcquire) Fork() sim.Frame {
	c := *f
	return &c
}

// tournamentRelease is an in-flight release: one flag write per level,
// from the root (the highest level) down to the leaf's node.
type tournamentRelease struct {
	t     *Tournament
	leaf  int
	level int
}

// Step implements sim.Frame.
func (f *tournamentRelease) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	pos := f.leaf >> f.level
	f.t.flagReg(pos/2, pos%2).WriteW(p, false)
	if f.level--; f.level >= 0 {
		return nil, sim.StepPaused
	}
	return Unlocked, sim.StepDone
}

// Fork implements sim.Frame.
func (f *tournamentRelease) Fork() sim.Frame {
	c := *f
	return &c
}

// acquireReleaseEnv alternates acquire/release per process, derived
// purely from the process's own last response in the view. Stateless,
// so it implements the sim.RewindableEnv hook with a nil snapshot.
type acquireReleaseEnv struct{ procs int }

// Next implements sim.Environment.
func (e *acquireReleaseEnv) Next(proc int, v *sim.View) (sim.Invocation, bool) {
	if proc > e.procs {
		return sim.Invocation{}, false
	}
	h := v.H
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Proc == proc && h[i].Kind == history.KindResponse {
			if h[i].Val == Locked {
				return sim.Invocation{Op: OpRelease}, true
			}
			return sim.Invocation{Op: OpAcquire}, true
		}
	}
	return sim.Invocation{Op: OpAcquire}, true
}

// EnvSnapshot implements sim.RewindableEnv (stateless).
func (e *acquireReleaseEnv) EnvSnapshot() any { return nil }

// EnvRestore implements sim.RewindableEnv.
func (e *acquireReleaseEnv) EnvRestore(any) {}

// AcquireReleaseLoop is the lock liveness environment: every process
// alternates acquire and release forever. The next operation is derived
// purely from the process's own last response, so the environment is
// stateless and rewinds for free under incremental sessions.
func AcquireReleaseLoop(procs int) sim.Environment {
	return &acquireReleaseEnv{procs: procs}
}

// StarveTAS is the adversary scheduler that starves process victim on a
// TAS lock while staying fair (both processes take infinitely many steps):
// the victim is granted steps only while the other process holds the lock,
// so each of its test-and-set attempts fails; the owner cycles
// acquire/release forever. Derived purely from the history, so it works
// against any lock implementation — against starvation-free locks (e.g.
// Peterson) the run it produces simply stops being constructible (the
// owner blocks), which tests demonstrate.
func StarveTAS(victim, owner int) sim.Scheduler {
	last := 0
	return sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		// While the owner holds the lock, alternate the two processes so
		// the owner still advances toward its release (fairness); while the
		// lock is free, run only the owner so it re-acquires before the
		// victim can attempt a test-and-set.
		if holder(v.H) == owner && last != victim && v.ReadyContains(victim) {
			last = victim
			return sim.Decision{Proc: victim}, true
		}
		if v.ReadyContains(owner) {
			last = owner
			return sim.Decision{Proc: owner}, true
		}
		if v.ReadyContains(victim) {
			last = victim
			return sim.Decision{Proc: victim}, true
		}
		return sim.Decision{}, false
	})
}

// holder returns the process currently holding the lock per the history (0
// if none): the last acquire response not yet followed by its release
// invocation.
func holder(h history.History) int {
	cur := 0
	for _, e := range h {
		switch {
		case e.Kind == history.KindResponse && e.Op == OpAcquire && e.Val == Locked:
			cur = e.Proc
		case e.Kind == history.KindInvoke && e.Op == OpRelease && e.Proc == cur:
			cur = 0
		}
	}
	return cur
}
