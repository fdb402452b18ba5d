package safety

import (
	"fmt"
	"strconv"

	"repro/internal/history"
)

// Sequential specifications of classic high-level objects (the paper's
// Section 1 context "high-level object implementations from registers
// [19]"), used by the linearizability checker.
//
// Queue and stack states are comparable strings: the sequence of
// payloads, each written as its decimal byte length, a colon, and the
// payload itself ("1:a3:b,c" holds "a" then "b,c"). The encoding is
// injective, so payloads may contain any bytes, commas included, and be
// empty. Payloads are strings; a non-string argument is stored as its
// %v rendering, so dequeue/pop responses come back as that string.

// EmptyResp is the response of a dequeue/pop on an empty container.
const EmptyResp = "empty"

// payload renders an enqueued or pushed argument as the string stored
// in the state and returned on dequeue/pop.
func payload(arg history.Value) string {
	switch x := arg.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	}
	return fmt.Sprint(arg)
}

// splitFirst decodes the first payload of a non-empty encoded state and
// returns it with the encoding of the rest; ok is false for a string the
// encoding never produces.
func splitFirst(enc string) (head, rest string, ok bool) {
	n, i := 0, 0
	for ; i < len(enc) && enc[i] != ':'; i++ {
		c := enc[i]
		if c < '0' || c > '9' || n > len(enc) {
			return "", "", false
		}
		n = n*10 + int(c-'0')
	}
	if i == 0 || i == len(enc) {
		return "", "", false
	}
	i++ // the colon
	if n > len(enc)-i {
		return "", "", false
	}
	return enc[i : i+n], enc[i+n:], true
}

// takeFirst appends the dequeue/pop transition of encoded state enc.
func takeFirst(dst []Transition, enc string) []Transition {
	if enc == "" {
		return append(dst, Transition{Next: "", Resp: EmptyResp})
	}
	head, rest, ok := splitFirst(enc)
	if !ok {
		return dst
	}
	return append(dst, Transition{Next: rest, Resp: head})
}

// QueueSpec is a FIFO queue with operations "enq" (argument, responds OK)
// and "deq" (responds the head value or EmptyResp).
type QueueSpec struct{}

// Name implements SeqSpec.
func (QueueSpec) Name() string { return "queue" }

// Init implements SeqSpec.
func (QueueSpec) Init() State { return "" }

// Apply implements SeqSpec.
func (q QueueSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	return q.ApplyAppend(nil, st, proc, op, obj, arg)
}

// ApplyAppend implements AppendSpec.
func (QueueSpec) ApplyAppend(dst []Transition, st State, proc int, op, obj string, arg history.Value) []Transition {
	enc, ok := st.(string)
	if !ok {
		return dst
	}
	switch op {
	case "enq":
		p := payload(arg)
		return append(dst, Transition{Next: enc + strconv.Itoa(len(p)) + ":" + p, Resp: history.OK})
	case "deq":
		return takeFirst(dst, enc)
	default:
		return dst
	}
}

// StackSpec is a LIFO stack with operations "push" and "pop".
type StackSpec struct{}

// Name implements SeqSpec.
func (StackSpec) Name() string { return "stack" }

// Init implements SeqSpec.
func (StackSpec) Init() State { return "" }

// Apply implements SeqSpec.
func (s StackSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	return s.ApplyAppend(nil, st, proc, op, obj, arg)
}

// ApplyAppend implements AppendSpec.
func (StackSpec) ApplyAppend(dst []Transition, st State, proc int, op, obj string, arg history.Value) []Transition {
	enc, ok := st.(string)
	if !ok {
		return dst
	}
	switch op {
	case "push":
		p := payload(arg)
		return append(dst, Transition{Next: strconv.Itoa(len(p)) + ":" + p + enc, Resp: history.OK})
	case "pop":
		return takeFirst(dst, enc)
	default:
		return dst
	}
}

// CounterSpec is a fetch-and-increment counter: "inc" responds with the
// pre-increment value, "get" with the current value.
type CounterSpec struct{}

// Name implements SeqSpec.
func (CounterSpec) Name() string { return "counter" }

// Init implements SeqSpec.
func (CounterSpec) Init() State { return 0 }

// Apply implements SeqSpec.
func (c CounterSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	return c.ApplyAppend(nil, st, proc, op, obj, arg)
}

// ApplyAppend implements AppendSpec.
func (CounterSpec) ApplyAppend(dst []Transition, st State, proc int, op, obj string, arg history.Value) []Transition {
	n, ok := st.(int)
	if !ok {
		return dst
	}
	switch op {
	case "inc":
		return append(dst, Transition{Next: n + 1, Resp: n})
	case "get":
		return append(dst, Transition{Next: n, Resp: n})
	default:
		return dst
	}
}
