package sim

import (
	"repro/internal/history"
)

// Fingerprinter accumulates a canonical 64-bit digest (FNV-1a) of
// simulation state. Writers must feed state components in a fixed,
// deterministic order; every component is written with a type tag so
// adjacent components of different kinds cannot collide by
// concatenation. The digest is deterministic across runs and processes,
// which is what lets exploration deduplicate states across replays and
// lets tests assert "same state, same fingerprint" across schedules.
type Fingerprinter struct {
	h        uint64
	poisoned bool
	scratch  []byte // reused encoding buffer for Val
}

// NewFingerprinter returns an empty fingerprinter.
func NewFingerprinter() *Fingerprinter {
	return &Fingerprinter{h: history.DigestSeed()}
}

func (f *Fingerprinter) byteIn(b byte) {
	f.h = history.DigestByte(f.h, b)
}

func (f *Fingerprinter) tag(t byte) { f.byteIn(t) }

// Str folds a string component into the digest, length-delimited.
func (f *Fingerprinter) Str(s string) {
	f.tag('s')
	f.Int(len(s))
	for i := 0; i < len(s); i++ {
		f.byteIn(s[i])
	}
}

// Int folds an integer component into the digest.
func (f *Fingerprinter) Int(v int) {
	f.tag('i')
	f.Uint64(uint64(v))
}

// Bool folds a boolean component into the digest.
func (f *Fingerprinter) Bool(b bool) {
	f.tag('b')
	if b {
		f.byteIn(1)
	} else {
		f.byteIn(0)
	}
}

// Uint64 folds a 64-bit word into the digest.
func (f *Fingerprinter) Uint64(v uint64) {
	f.h = history.DigestWord(f.h, v)
}

// Val folds an arbitrary history value into the digest by its dynamic
// type and content (history.AppendCanonical: every node kind- and
// type-tagged, every variable-size component length-delimited, map
// entries sorted). Two values encode identically iff they are
// structurally equal by content, and two values of different dynamic
// types never collide with each other's content. It is NOT
// identity-aware: two distinct allocations with equal content encode
// the same, which is exactly why implementations that compare pointers
// (CAS over fresh allocations) must not opt into fingerprinting — see
// Fingerprintable.
//
// A value the encoder refuses — a non-nil pointer below the top level
// (identity, not content, and possibly cyclic), a channel or function,
// or a type whose fmt.Stringer/Formatter/error methods take over its
// rendering — poisons the fingerprint instead: the run yields no
// Result.Fingerprint and the state cache skips it, like a LazyArg run.
func (f *Fingerprinter) Val(v history.Value) {
	f.tag('v')
	if v == nil {
		f.Str("<nil>")
		return
	}
	b, ok := history.AppendCanonical(f.scratch[:0], v)
	f.scratch = b // keep the grown buffer for the next value
	if !ok {
		f.poisoned = true
		return
	}
	f.tag('s')
	f.Int(len(b))
	for i := 0; i < len(b); i++ {
		f.byteIn(b[i])
	}
}

// Sum returns the digest of everything folded in so far.
func (f *Fingerprinter) Sum() uint64 { return f.h }

// Poisoned reports whether some folded value could not be canonically
// encoded (see Val); a poisoned digest must not be used as a state
// fingerprint.
func (f *Fingerprinter) Poisoned() bool { return f.poisoned }

// Fingerprintable is the opt-in state-fingerprint hook: an Object
// implementing it promises that
//
//  1. Fingerprint writes a canonical encoding of ALL state shared
//     between processes (for implementations built from internal/base
//     objects: each base object's Fingerprint method, in a fixed
//     order), such that two instances with equal encodings behave
//     identically under identical future schedules, and
//  2. every value its operations read from shared state into process-local
//     variables is declared to the executing process via Proc.Observe
//     (base-object read operations do this automatically), so the
//     runtime can fold mid-operation local state into the fingerprint.
//
// Implementations whose behavior depends on pointer identity — e.g. a
// compare-and-swap over freshly allocated records, where two
// content-equal states can still differ on which allocation the CAS
// will accept — must NOT implement the hook: content encodings cannot
// distinguish such states, and a fingerprint that equates them would
// let exploration prune subtrees with genuinely different futures.
// Values passed to Fingerprinter.Val must be encodable by content:
// scalars and strings, composed through structs, arrays, slices, maps,
// and interfaces, with at most one top-level pointer to a composite
// (which is dereferenced). Everything else — a nested non-nil pointer
// (identity, not content), a top-level pointer to a scalar, channels,
// functions, and types implementing fmt.Stringer, fmt.Formatter, or
// error — poisons the fingerprint: the run then yields no
// Result.Fingerprint, same as a non-fingerprintable object, rather
// than producing a nondeterministic or colliding one (the symptom is
// WithStateCache reporting zero hits). Objects without the hook simply
// yield no Result.Fingerprint and exploration's state cache skips
// them.
type Fingerprintable interface {
	Object
	// Fingerprint writes the object's canonical shared state into f.
	Fingerprint(f *Fingerprinter)
}

// fingerprint computes the canonical state fingerprint of the current
// configuration: the object's declared state, plus each process's
// control state — status (ready/idle/blocked/crashed, which also
// encodes the crash set), completed-operation count (its position in a
// view-independent environment's script), pending invocation, steps
// taken within the pending operation (its program counter), and the
// running digest of values it observed within the pending operation
// (its mid-operation local state). It is called between step windows,
// when no process is executing. ok is false when some folded value
// poisoned the digest (see Fingerprinter.Val).
func (r *runtime) fingerprint() (fp uint64, ok bool) {
	f := NewFingerprinter()
	r.cfg.Object.(Fingerprintable).Fingerprint(f)
	for id := 1; id <= r.cfg.Procs; id++ {
		f.Int(int(r.status[id]))
		f.Int(r.fpCompleted[id])
		f.Int(r.fpOpSteps[id])
		f.Uint64(r.fpObs[id])
		if r.fpHasPend[id] {
			p := &r.fpPending[id]
			f.Bool(true)
			f.Str(p.Op)
			f.Str(p.Obj)
			f.Val(p.Arg)
		} else {
			f.Bool(false)
		}
		// Crash–recovery control state: the recovery epoch and the
		// invoked-operation count separate configurations whose histories
		// consumed different invocations through crashed operations (the
		// environment's position depends on invocations, not completions),
		// and the recovering flag separates a recovery routine about to
		// take its first step from a process between operations. The
		// arrays are nil exactly when no recover decision happened on this
		// runtime, in which case every epoch is zero — the fold is a pure
		// function of the configuration either way.
		if r.recEpochs != nil {
			f.Int(r.recEpochs[id])
			f.Bool(r.recovering[id])
		} else {
			f.Int(0)
			f.Bool(false)
		}
		f.Int(r.fpInvoked[id])
	}
	return f.Sum(), !f.Poisoned()
}
