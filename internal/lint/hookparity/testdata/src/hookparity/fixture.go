// Package hookparity is the analyzer fixture: object types in every
// parity state, self-contained stand-ins for sim.Proc, sim.Frame and
// sim.Fingerprinter included.
package hookparity

// Proc stands in for sim.Proc.
type Proc struct{}

// Invocation stands in for sim.Invocation.
type Invocation struct{}

// Fingerprinter stands in for sim.Fingerprinter.
type Fingerprinter struct{}

// Frame stands in for sim.Frame.
type Frame interface{ Step(*Proc) (any, int) }

// full implements every hook, the Recoverable pair included: clean.
type full struct{}

func (f *full) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (f *full) Footprints() bool                                { return true }
func (f *full) Fingerprint(fp *Fingerprinter)                   {}
func (f *full) Snapshot() any                                   { return nil }
func (f *full) Restore(any)                                     {}
func (f *full) CrashVolatile()                                  {}
func (f *full) RecoverFrame() Frame                             { return nil }

// partial opts into footprints only and carries no exemptions.
type partial struct{} // want `not sim\.Fingerprintable` `not sim\.Snapshottable` `not sim\.Recoverable`

func (q *partial) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (q *partial) Footprints() bool                                { return true }

// halfSnapshot has Snapshot but no Restore: the snapshot hook is
// incomplete, so only the fingerprint side of the pair is satisfied.
//
//slx:norecover fixture: every cell durable
type halfSnapshot struct{} // want `not sim\.Footprint` `not sim\.Snapshottable`

func (h *halfSnapshot) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (h *halfSnapshot) Fingerprint(fp *Fingerprinter)                   {}
func (h *halfSnapshot) Snapshot() any                                   { return nil }

// annotated opts into snapshots only, with the missing hooks
// explicitly exempted: clean.
//
//slx:nofootprint fixture: steps must conflict
//slx:nofingerprint fixture: pointer identity
//slx:norecover fixture: every cell durable
type annotated struct{}

func (a *annotated) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (a *annotated) Snapshot() any                                   { return nil }
func (a *annotated) Restore(any)                                     {}

// plain opts into nothing: outside the parity contract, clean.
type plain struct{}

func (pl *plain) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }

// recoverOnly opts into crash–recovery alone; the other hooks must be
// implemented or exempted like for any capability.
type recoverOnly struct{} // want `not sim\.Footprint` `not sim\.Fingerprintable` `not sim\.Snapshottable`

func (r *recoverOnly) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (r *recoverOnly) CrashVolatile()                                  {}
func (r *recoverOnly) RecoverFrame() Frame                             { return nil }

// halfRecover has CrashVolatile but no RecoverFrame: the runtime's
// interface assertion fails silently, so the half pair is always a
// diagnostic — no pragma can excuse it.
//
//slx:norecover fixture: pragma must not silence the broken pair
type halfRecover struct{} // want `implements CrashVolatile but not RecoverFrame`

func (h *halfRecover) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (h *halfRecover) Footprints() bool                                { return true }
func (h *halfRecover) Fingerprint(fp *Fingerprinter)                   {}
func (h *halfRecover) Snapshot() any                                   { return nil }
func (h *halfRecover) Restore(any)                                     {}
func (h *halfRecover) CrashVolatile()                                  {}

// beginOnly is an object by its Begin method alone and opts into
// snapshots without exempting the rest: diagnosed like any object.
type beginOnly struct{} // want `not sim\.Footprint` `not sim\.Fingerprintable` `not sim\.Recoverable`

func (b *beginOnly) Begin(p *Proc, inv Invocation) (Frame, any, int) { return nil, nil, 0 }
func (b *beginOnly) Snapshot() any                                   { return nil }
func (b *beginOnly) Restore(any)                                     {}

// notAnObject has hook-shaped methods but no Begin: it is not a
// shared-object implementation, so the parity rule does not apply.
type notAnObject struct{}

func (n *notAnObject) Footprints() bool { return true }
func (n *notAnObject) Snapshot() any    { return nil }

var _ = []any{&full{}, &partial{}, &halfSnapshot{}, &annotated{}, &plain{}, &recoverOnly{}, &halfRecover{}, &beginOnly{}, &notAnObject{}}
