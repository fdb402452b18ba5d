package sim

import "repro/internal/history"

// StepStatus is what a continuation frame reports after executing one
// granted step (or what Begin reports for the invocation window).
type StepStatus int

const (
	// StepPaused: the operation has more atomic steps to take; the
	// process remains ready and the frame will be stepped again.
	StepPaused StepStatus = iota + 1
	// StepDone: the operation completed; the accompanying value is its
	// response, recorded in the history within the same window.
	StepDone
	// StepBlocked: the implementation parks the process forever: the
	// current operation never completes and the process never takes
	// another step. It models implementations whose automata stop
	// enabling actions (e.g. the trivial implementation I_t in the
	// proof of Theorem 4.9).
	StepBlocked
)

// String names the status.
func (s StepStatus) String() string {
	switch s {
	case StepPaused:
		return "paused"
	case StepDone:
		return "done"
	case StepBlocked:
		return "blocked"
	default:
		return "invalid"
	}
}

// Frame is one in-flight operation of one process: the explicit
// continuation of the operation's local state (program counter, loop
// indices, values read so far). Step executes the operation's next
// atomic step — exactly one base-object access through the usual Proc
// hooks (Access/Observe, via the internal/base *W window methods) plus
// the trailing local code up to the next access — and reports whether
// the operation paused again, completed (returning its response), or
// blocked forever. This is the window rule: Object.Begin runs the code
// before the first access, and Step k runs the k-th access plus the
// local code that follows it up to the next access or the return.
//
// Fork returns a frame equivalent to the receiver for Session.Mark and
// Session.Restore: stepping the original must not affect the fork and
// vice versa. A frame whose state never mutates after creation (every
// single-remaining-step frame qualifies) may return itself; frames with
// mutable progress state (loop counters, phase indices, collected
// values) must return a deep copy.
type Frame interface {
	Step(p *Proc) (history.Value, StepStatus)
	Fork() Frame
}
