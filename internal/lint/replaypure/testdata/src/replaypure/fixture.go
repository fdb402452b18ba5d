// Package replaypure is the analyzer fixture: continuation methods in
// every contract state, with self-contained stand-ins for sim.Proc,
// sim.Frame and the base window methods.
package replaypure

// Proc stands in for sim.Proc.
type Proc struct{}

// Access declares a footprint entry.
func (p *Proc) Access(name string, write bool) {}

// Observe records the window's observed value.
func (p *Proc) Observe(v any) {}

// ID returns the process id.
func (p *Proc) ID() int { return 1 }

// Invocation stands in for sim.Invocation.
type Invocation struct {
	Op  string
	Arg any
}

// Frame stands in for sim.Frame.
type Frame interface {
	Step(p *Proc) (any, int)
	Fork() Frame
}

// register is a base-object stand-in with a window method.
type register struct{ val any }

// ReadW is a window-form read.
func (r *register) ReadW(p *Proc) any {
	p.Access("r", false)
	p.Observe(r.val)
	return r.val
}

// WriteW is a window-form write.
func (r *register) WriteW(p *Proc, v any) {
	p.Access("r", true)
	r.val = v
}

// cleanObj is the canonical continuation translation: Begin observes
// steering state but declares nothing; the frame does the accesses.
type cleanObj struct {
	r      *register
	active bool
}

// Begin is clean: Observe is allowed in the invocation window.
func (o *cleanObj) Begin(p *Proc, inv Invocation) (Frame, any, int) {
	p.Observe(o.active)
	return &cleanFrame{o: o, inv: inv}, nil, 0
}

type cleanFrame struct {
	o   *cleanObj
	inv Invocation
}

// Step is clean: accesses belong in the granted window.
func (f *cleanFrame) Step(p *Proc) (any, int) {
	p.Access("r", true)
	f.o.r.WriteW(p, f.inv.Arg)
	return nil, 1
}

func (f *cleanFrame) Fork() Frame { return f }

// accessInBegin declares a footprint in the invocation window: flagged.
type accessInBegin struct{ r *register }

func (o *accessInBegin) Begin(p *Proc, inv Invocation) (Frame, any, int) {
	p.Access("r", true) // want `Begin declares a footprint in the invocation window`
	return nil, nil, 1
}

// windowInBegin calls a base window method from Begin: flagged.
type windowInBegin struct{ r *register }

func (o *windowInBegin) Begin(p *Proc, inv Invocation) (Frame, any, int) {
	return nil, o.r.ReadW(p), 1 // want `Begin calls the window method ReadW in the invocation window`
}

// exempted matches the Begin shape but is not a sim continuation; the
// pragma waives the contract.
type exempted struct{ r *register }

//slx:nostepwindow fixture: not a sim continuation method
func (o *exempted) Begin(p *Proc, inv Invocation) (Frame, any, int) {
	p.Access("r", true)
	return nil, nil, 1
}

// otherShape has the Step name but not the continuation signature:
// ignored.
type otherShape struct{}

func (o *otherShape) Step(e any) error {
	p := &Proc{}
	p.Access("x", true)
	return nil
}

var _ = []any{
	(*cleanObj).Begin,
	(*accessInBegin).Begin,
	(*windowInBegin).Begin,
	(*exempted).Begin,
	(*otherShape).Step,
}
