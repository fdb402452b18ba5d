package sim

import (
	"errors"
	"fmt"

	"repro/internal/history"
)

// Snapshottable is the state-capture half of the incremental execution
// engine's object contract: a Session rewinds an Object implementing it
// to an earlier configuration instead of re-executing the whole
// schedule prefix from the initial state. Implementing it promises that
//
//  1. Snapshot returns a value capturing ALL state that outlives a
//     single granted step and is not held in continuation frames — for
//     implementations built from internal/base objects, each base
//     object's Snapshot in a fixed order, plus any composite-level
//     state (lazy allocations, per-process operation contexts) — such
//     that Restore(s) brings the object back to behavior
//     indistinguishable from the moment Snapshot was called.
//  2. Restore never adopts the snapshot value mutably: the engine
//     restores the same snapshot many times (including twice around a
//     single rewind), so Restore must copy what it cannot treat as
//     immutable, and Snapshot must return data later mutations of the
//     object cannot reach.
//  3. State local to one in-flight operation lives in its Frame, not
//     in the object: the Session forks frames on Mark and Restore, so
//     anything a frame reaches by pointer must either be covered by
//     Snapshot/Restore or be deep-copied by Frame.Fork.
//  4. Begin and every Frame.Step are deterministic given the
//     invocation and the observed values (which the simulator already
//     requires for replay).
//
// Unlike Fingerprintable, pointer identity is no obstacle: a snapshot
// may hold pointers to immutable records (the CAS idiom), since Restore
// reinstates the exact pointers. Objects without the hook are simply
// executed by from-root replay; exploration's soundness never depends
// on Snapshottable being implemented or implementable.
type Snapshottable interface {
	Object
	// Snapshot captures the object's current state.
	Snapshot() any
	// Restore reinstates a state previously returned by Snapshot.
	Restore(any)
}

// CanSnapshot reports whether an object supports session execution,
// that is, whether it implements Snapshottable.
func CanSnapshot(o Object) bool {
	_, ok := o.(Snapshottable)
	return ok
}

// RewindableEnv is the optional fast-rewind hook for environments used
// under a Session: EnvSnapshot captures the environment's decision
// state and EnvRestore reinstates it, making Session.Restore a pure
// struct copy. The usual Snapshot contract applies (the same snapshot
// may be restored many times; EnvRestore must not adopt it mutably).
// Environments without the hook still work: Restore falls back to a
// fresh NewEnv() fast-forwarded through each process's historical
// consultations, which supports any environment deciding invocations
// from the invoking process's identity, its own invocation count, and
// its own projection of the history.
type RewindableEnv interface {
	Environment
	EnvSnapshot() any
	EnvRestore(any)
}

// SessionConfig describes a persistent incremental simulation.
type SessionConfig struct {
	// Procs is the number of processes n (1-based ids 1..n).
	Procs int
	// Object is the implementation under test; it must implement
	// Snapshottable (see CanSnapshot). The session owns and mutates it.
	Object Object
	// NewEnv creates an environment instance. A factory rather than an
	// instance: when the environment does not implement RewindableEnv,
	// every Restore replaces it with a fresh one fast-forwarded to the
	// restored configuration. Incremental execution therefore supports
	// environments that decide each invocation from the invoking
	// process's identity, its own invocation count, and its own
	// projection of the history (all repository environments qualify);
	// environments inspecting other View fields need replay execution.
	NewEnv func() Environment
	// Fingerprint enables configuration fingerprints (Session.Fingerprint)
	// when the Object also implements Fingerprintable.
	Fingerprint bool
}

// Session is a live simulation that supports incremental extension
// (Extend: apply exactly one more scheduler decision) and backtracking
// (Mark/Restore: rewind to an earlier configuration on the current
// execution path). Exploration uses it to visit each schedule-tree edge
// in O(1) simulator steps instead of replaying every prefix from the
// root.
//
// Each process's in-flight operation is an explicit continuation Frame,
// and a decision is dispatched as a direct call into the object's state
// machine, exactly as under Run. Restore is therefore a plain struct
// copy — object snapshot, per-process control state, forked frames —
// with zero re-executed steps.
//
// Sessions are not safe for concurrent use; marks may only be restored
// on the path that created them (a mark is a prefix of the current
// execution).
type Session struct {
	rt     *runtime
	obj    Snapshottable
	newEnv func() Environment
	renv   RewindableEnv // non-nil when the env supports fast rewind
	closed bool
	free   *Mark // freelist of Released marks, linked through Mark.link
}

// NewSession starts a session positioned at the initial configuration.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Procs < 1 {
		return nil, errors.New("sim: session Procs must be >= 1")
	}
	if !CanSnapshot(cfg.Object) {
		return nil, fmt.Errorf("sim: session object %T does not support snapshots", cfg.Object)
	}
	obj := cfg.Object.(Snapshottable)
	if cfg.NewEnv == nil {
		return nil, errors.New("sim: session requires NewEnv")
	}
	r := newRuntime(Config{
		Procs:       cfg.Procs,
		Object:      cfg.Object,
		Fingerprint: cfg.Fingerprint,
	}, cfg.NewEnv())
	s := &Session{rt: r, obj: obj, newEnv: cfg.NewEnv}
	s.renv, _ = r.env.(RewindableEnv)
	r.start()
	return s, nil
}

// View returns the view of the current configuration, the one a
// scheduler would be shown. Like the view passed to schedulers, it is
// rebuilt in place: valid only until the next session operation.
func (s *Session) View() *View { return s.rt.view() }

// StepInfo reports what one Extend did.
type StepInfo struct {
	// Delta holds the events the decision recorded. It is a view into
	// the session's live history buffer: valid until the session is
	// restored at or below the delta's first event (and then extended),
	// which in DFS terms means valid for as long as the node that
	// produced it is on the exploration stack. Callers that retain a
	// delta beyond that (violation witnesses) must copy it.
	Delta history.History
	// Access is the footprint of the decision (zero/unknown when the
	// object does not track footprints), matching Result.Accesses.
	Access Access
	// Steps is the number of simulator steps granted: 0 for a crash or
	// recover decision, 1 otherwise.
	Steps int
}

// Extend applies one scheduler decision to the live configuration. The
// decision must be valid (a ready process, a crash of a non-crashed
// process, or a recover of a crashed one), exactly as for a sim.Run
// scheduler.
func (s *Session) Extend(d Decision) (StepInfo, error) {
	r := s.rt
	if s.closed {
		return StepInfo{}, errors.New("sim: session is closed")
	}
	if d.Recover && s.renv == nil {
		// Restore's fallback environment rewind reconstructs consultation
		// points from response events, which recovery consultations do
		// not produce; exploration routes such environments to replay
		// execution instead.
		return StepInfo{}, fmt.Errorf("sim: recover under a session requires a rewindable environment (%T lacks EnvSnapshot/EnvRestore)", r.env)
	}
	evBefore := len(r.h)
	stepsBefore := r.steps
	if err := r.extendDirect(d); err != nil {
		return StepInfo{}, err
	}
	return StepInfo{
		Delta:  r.h[evBefore:len(r.h):len(r.h)],
		Access: r.lastAccess,
		Steps:  r.steps - stepsBefore,
	}, nil
}

// Ready returns the sorted ids of processes currently awaiting a step.
func (s *Session) Ready() []int {
	return s.ReadyAppend(nil)
}

// ReadyAppend appends the sorted ids of processes currently awaiting a
// step to dst and returns the extended slice. Callers that consult
// readiness once per simulated step (the sampling engine's schedule
// loop) reuse one buffer across calls instead of allocating per step.
func (s *Session) ReadyAppend(dst []int) []int {
	return s.rt.appendStatus(dst, statusReady)
}

// CrashedAppend appends the sorted ids of currently crashed processes to
// dst and returns the extended slice: the candidates for a recover
// decision, mirroring ReadyAppend for step decisions.
func (s *Session) CrashedAppend(dst []int) []int {
	return s.rt.appendStatus(dst, statusCrashed)
}

// History returns the external history of the current configuration.
// Like StepInfo.Delta, it is a view into the session's live buffer:
// valid until the session is restored below the current position and
// extended again. Callers that retain it (violation witnesses) must
// copy it.
func (s *Session) History() history.History {
	return s.rt.h[:len(s.rt.h):len(s.rt.h)]
}

// Steps returns the number of simulator steps granted so far.
func (s *Session) Steps() int { return s.rt.steps }

// Fingerprint computes the canonical configuration fingerprint, exactly
// as Result.Fingerprint would report it for a from-root replay of the
// same schedule. ok is false when the session does not fingerprint
// (SessionConfig.Fingerprint off, object not Fingerprintable) or the
// execution was poisoned (LazyArg, unencodable value).
func (s *Session) Fingerprint() (uint64, bool) {
	r := s.rt
	if !r.fpTrack || r.fpPoisoned {
		return 0, false
	}
	return r.fingerprint()
}

// Mark captures the current configuration for a later Restore: the
// object snapshot plus a plain copy of each process's control state
// (status, counters, pending invocation, forked continuation frame,
// chosen-but-uninvoked next invocation) and the environment position.
type Mark struct {
	obj      any
	env      any
	hLen     int
	steps    int
	envCalls int
	poisoned bool
	procs    []procMark // index 0 unused
	link     *Mark      // Session.Release freelist
}

// procMark is one process's control state at a mark.
type procMark struct {
	status     procStatus
	stepsBy    int
	completed  int
	invoked    int
	opSteps    int
	obs        uint64
	pending    Invocation
	hasPend    bool
	frame      Frame
	next       Invocation
	hasNext    bool
	recEpoch   int
	recovering bool
}

// Mark snapshots the current configuration. Marks are cheap (plain
// copies of control state plus forked frames) and poolable: Release returns one
// to the session for reuse.
func (s *Session) Mark() *Mark {
	r := s.rt
	m := s.free
	if m != nil {
		s.free = m.link
		m.link = nil
	} else {
		m = &Mark{procs: make([]procMark, r.cfg.Procs+1)}
	}
	m.obj = s.obj.Snapshot()
	m.env = nil
	if s.renv != nil {
		m.env = s.renv.EnvSnapshot()
	}
	m.hLen = len(r.h)
	m.steps = r.steps
	m.envCalls = r.envCalls
	m.poisoned = r.fpPoisoned
	for id := 1; id <= r.cfg.Procs; id++ {
		pm := &m.procs[id]
		pm.status = r.status[id]
		pm.stepsBy = r.stepsBy[id]
		pm.completed = r.fpCompleted[id]
		pm.invoked = r.fpInvoked[id]
		pm.opSteps = r.fpOpSteps[id]
		pm.recEpoch = 0
		pm.recovering = false
		if r.recEpochs != nil {
			pm.recEpoch = r.recEpochs[id]
			pm.recovering = r.recovering[id]
		}
		pm.obs = 0
		if r.fpTrack {
			pm.obs = r.fpObs[id]
		}
		pm.pending = r.fpPending[id]
		pm.hasPend = r.fpHasPend[id]
		pm.frame = nil
		if f := r.frames[id]; f != nil {
			pm.frame = f.Fork()
		}
		pm.next = r.next[id]
		pm.hasNext = r.hasNext[id]
	}
	return m
}

// Release returns a mark to the session's pool for reuse by a later
// Mark. The caller must not use the mark afterwards; releasing a mark
// that could still be restored is a use-after-free on the caller's
// side. Release is optional — unreleased marks are simply garbage
// collected.
func (s *Session) Release(m *Mark) {
	if m == nil || m.link != nil {
		return
	}
	m.obj = nil
	m.env = nil
	for i := range m.procs {
		m.procs[i].pending = Invocation{}
		m.procs[i].frame = nil
		m.procs[i].next = Invocation{}
	}
	m.link = s.free
	s.free = m
}

// Restore rewinds the session to a mark taken earlier on the current
// execution path: a plain struct copy of the control state plus the
// object snapshot — no re-executed steps, ever. The returned count is
// always 0; the signature is kept so callers account re-simulation work
// uniformly across engines.
func (s *Session) Restore(m *Mark) (int, error) {
	r := s.rt
	if s.closed {
		return 0, errors.New("sim: session is closed")
	}
	moved := r.steps != m.steps || len(r.h) != m.hLen
	if !moved {
		same := true
		for id := 1; id <= r.cfg.Procs; id++ {
			if r.status[id] != m.procs[id].status {
				same = false
				break
			}
		}
		if same {
			return 0, nil
		}
	}

	// History truncates in place: deltas handed out above the mark are
	// dead once the caller restores below them (see StepInfo.Delta).
	r.h = r.h[:m.hLen]
	r.eventSteps = r.eventSteps[:m.hLen]
	r.steps = m.steps
	r.fpPoisoned = m.poisoned
	for id := 1; id <= r.cfg.Procs; id++ {
		pm := &m.procs[id]
		r.status[id] = pm.status
		r.stepsBy[id] = pm.stepsBy
		r.fpCompleted[id] = pm.completed
		r.fpInvoked[id] = pm.invoked
		r.fpOpSteps[id] = pm.opSteps
		if r.recEpochs != nil {
			// Marks taken before the first recover hold zeros; arrays stay
			// allocated across restores (the fingerprint fold reads zeros
			// from both states identically).
			r.recEpochs[id] = pm.recEpoch
			r.recovering[id] = pm.recovering
		}
		if r.fpTrack {
			r.fpObs[id] = pm.obs
		}
		r.fpPending[id] = pm.pending
		r.fpHasPend[id] = pm.hasPend
		r.frames[id] = nil
		if pm.frame != nil {
			// Fork on the way out too: the same mark may be restored
			// many times, and the live frame must not mutate the mark's.
			r.frames[id] = pm.frame.Fork()
		}
		r.next[id] = pm.next
		r.hasNext[id] = pm.hasNext
	}
	if moved {
		s.obj.Restore(m.obj)
	}
	if r.envCalls != m.envCalls {
		if s.renv != nil {
			s.renv.EnvRestore(m.env)
		} else {
			// Fallback for environments without the rewind hook: a fresh
			// instance fast-forwarded through each process's historical
			// consultations (one per completed operation plus the one
			// that chose its pending/next invocation).
			r.env = s.newEnv()
			respAfter := r.responseIndices()
			for id := 1; id <= r.cfg.Procs; id++ {
				s.fastForward(id, m.procs[id].completed+1, respAfter)
			}
		}
		r.envCalls = m.envCalls
	}
	return 0, nil
}

// responseIndices returns, per process, the history index just past
// each of its response events, in order — the points at which the
// process consulted the environment for its next invocation.
func (r *runtime) responseIndices() [][]int {
	out := make([][]int, r.cfg.Procs+1)
	for i := range r.h {
		if r.h[i].Kind == history.KindResponse {
			out[r.h[i].Proc] = append(out[r.h[i].Proc], i+1)
		}
	}
	return out
}

// histView reconstructs the view process id saw when it made its
// call-th environment consultation: the history truncated just after
// its (call-1)-th response (empty for the first call). Only H and Steps
// are populated; see SessionConfig.NewEnv for the environment contract.
func (s *Session) histView(id, call int, respAfter [][]int) *View {
	r := s.rt
	k := 0
	if call >= 2 {
		ra := respAfter[id]
		i := call - 2
		if i >= len(ra) {
			i = len(ra) - 1
		}
		if i >= 0 {
			k = ra[i]
		}
	}
	v := &View{H: r.h[:k:k]}
	if k > 0 {
		v.Steps = r.eventSteps[k-1]
	}
	return v
}

// fastForward advances the (fresh) environment past process id's first
// `calls` consultations, presenting each with its historical view.
func (s *Session) fastForward(id, calls int, respAfter [][]int) {
	for j := 1; j <= calls; j++ {
		s.rt.env.Next(id, s.histView(id, j, respAfter))
	}
}

// Close shuts the session down. The session's history remains readable;
// Extend/Restore fail afterwards.
func (s *Session) Close() {
	s.closed = true
}
