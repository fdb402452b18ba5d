package safety

import (
	"sync"

	"repro/internal/history"
)

// TMMonitor is the incremental form of the TM safety checkers. Opacity
// and strict serializability are defined per-prefix — every prefix ending
// in a response must admit a legal serialization — so the batch checkers
// re-verify every prefix of every history they are handed. The monitor
// exploits that structure: it runs the serialization search exactly once
// per new response event, so along one exploration path each prefix is
// verified once instead of once per descendant. The Section 5.3
// timestamp-abort rule is additionally re-evaluated on the TM control
// events that can change it (start responses, tryC invocations and
// responses).
//
// The monitor keeps the search's transaction records itself instead of
// re-deriving them from the history: an event updates the record of its
// process's current transaction, mirroring history.Transactions. Records
// are small values copied with each Fork into pooled backing; their step
// lists are shared between forks and clipped there, so a later append by
// either side reallocates instead of writing through.
//
// The events themselves are kept only for StateDigest, as an immutable
// list shared by forks, and folded into the running HistoryDigest when a
// digest is asked for: exploration without the state cache never pays
// for canonical encoding.
type TMMonitor struct {
	strict bool // strict serializability instead of opacity
	rule   bool // additionally enforce the Section 5.3 timestamp rule
	failed bool
	n      int        // events consumed: the next event's history index
	txs    []txRecord // by start invocation, as history.Transactions
	procs  []tmProc
	// events lists the consumed events, newest first; dig digests the
	// first folded of them.
	events *eventNode
	dig    HistoryDigest
	folded int
}

// tmProc is one process's grouping state: its current transaction and
// the operation of it awaiting a response.
type tmProc struct {
	id   int
	cur  int // index+1 in txs of the current transaction, 0 if none
	seq  int // transactions started
	open bool
	op   string // the awaiting operation: name, object and argument
	obj  string
	arg  history.Value
}

// eventNode is one consumed event in TMMonitor's shared event list.
type eventNode struct {
	e    history.Event
	prev *eventNode
}

// NewOpacityMonitor creates the incremental opacity monitor.
func NewOpacityMonitor() *TMMonitor { return &TMMonitor{} }

// NewStrictSerializabilityMonitor creates the incremental strict
// serializability monitor.
func NewStrictSerializabilityMonitor() *TMMonitor { return &TMMonitor{strict: true} }

// NewPropertySMonitor creates the incremental monitor for the Section
// 5.3 property S (opacity plus the timestamp-abort rule).
func NewPropertySMonitor() *TMMonitor { return &TMMonitor{rule: true} }

// Step implements Monitor.
func (m *TMMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	i := m.n
	m.n++
	m.events = &eventNode{e: e, prev: m.events}
	switch e.Kind {
	case history.KindInvoke:
		m.invoke(i, e)
	case history.KindResponse:
		m.respond(i, e)
		if len(m.txs) > maxOpacityTxs || !serializable(m.txs, m.strict) {
			m.failed = true
			return false
		}
	}
	if m.rule && m.ruleEvent(e) && !ruleHolds(m.txs) {
		m.failed = true
		return false
	}
	return true
}

// proc returns the grouping state of process id, creating it if absent
// and create is set.
func (m *TMMonitor) proc(id int, create bool) *tmProc {
	for k := range m.procs {
		if m.procs[k].id == id {
			return &m.procs[k]
		}
	}
	if !create {
		return nil
	}
	m.procs = append(m.procs, tmProc{id: id})
	return &m.procs[len(m.procs)-1]
}

// invoke consumes invocation e at history index i: a start opens a new
// transaction; any invocation inside a live transaction becomes its
// awaiting operation, and one outside is ignored.
func (m *TMMonitor) invoke(i int, e history.Event) {
	p := m.proc(e.Proc, true)
	if e.Op == history.TMStart {
		// The transactions completed so far are exactly those that
		// precede the new one in real time.
		var precede bitset
		for j := range m.txs {
			if m.txs[j].completed() {
				if precede == nil {
					precede = newBitset(len(m.txs))
				}
				precede.setBit(j)
			}
		}
		p.seq++
		m.txs = append(m.txs, txRecord{status: history.TxLive, precede: precede,
			seq: p.seq, first: i, last: i, startRes: -1, tryCInv: -1})
		p.cur = len(m.txs)
	}
	if p.cur == 0 || m.txs[p.cur-1].completed() {
		p.open = false
		return
	}
	tx := &m.txs[p.cur-1]
	tx.last = i
	tx.tryC = e.Op == history.TMTryC
	if tx.tryC {
		tx.tryCInv = i
	}
	p.open, p.op, p.obj, p.arg = true, e.Op, e.Obj, e.Arg
}

// respond consumes response e at history index i: it completes the
// awaiting operation, recording a successful read or write as a step,
// and may complete the transaction.
func (m *TMMonitor) respond(i int, e history.Event) {
	p := m.proc(e.Proc, false)
	if p == nil || p.cur == 0 {
		return
	}
	tx := &m.txs[p.cur-1]
	if p.open {
		// The awaiting operation is the current transaction's last.
		p.open = false
		tx.tryC = false
		switch {
		case p.op == history.TMStart:
			tx.startRes = i
		case e.Val == history.Abort:
		case p.op == history.TMRead:
			tx.steps = append(tx.steps, txStep{isRead: true, v: p.obj, val: e.Val})
		case p.op == history.TMWrite:
			tx.steps = append(tx.steps, txStep{isRead: false, v: p.obj, val: p.arg})
		}
	}
	if tx.completed() {
		return
	}
	tx.last = i
	if e.Val == history.Abort {
		tx.status = history.TxAborted
	} else if e.Op == history.TMTryC && e.Val == history.Commit {
		tx.status = history.TxCommitted
	}
}

// ruleEvent reports whether e can change the timestamp-abort verdict: a
// subset qualifies (or gains a committed member) only through start
// responses, tryC invocations and tryC responses.
func (m *TMMonitor) ruleEvent(e history.Event) bool {
	switch e.Op {
	case history.TMStart:
		return e.Kind == history.KindResponse
	case history.TMTryC:
		return true
	}
	return false
}

// OK implements Monitor.
func (m *TMMonitor) OK() bool { return !m.failed }

// tmPool recycles released monitors back into Fork, as linPool does.
var tmPool = sync.Pool{New: func() any { return new(TMMonitor) }}

// Fork implements Monitor.
func (m *TMMonitor) Fork() Monitor {
	for k := range m.txs {
		s := m.txs[k].steps
		m.txs[k].steps = s[:len(s):len(s)]
	}
	f := tmPool.Get().(*TMMonitor)
	f.strict, f.rule, f.failed, f.n = m.strict, m.rule, m.failed, m.n
	f.events, f.dig, f.folded = m.events, m.dig, m.folded
	f.txs = append(f.txs[:0], m.txs...)
	f.procs = append(f.procs[:0], m.procs...)
	return f
}

// Release implements Releaser: the fork's branch is fully explored, so
// its backings can serve a later Fork. The records and events it drops
// would otherwise stay reachable from the pool.
func (m *TMMonitor) Release() {
	clear(m.txs)
	clear(m.procs)
	m.events = nil
	tmPool.Put(m)
}

// Spawn returns the incremental opacity monitor.
func (Opacity) Spawn() Monitor { return NewOpacityMonitor() }

// Spawn returns the incremental strict serializability monitor.
func (StrictSerializability) Spawn() Monitor { return NewStrictSerializabilityMonitor() }

// Spawn returns the incremental property S monitor.
func (PropertyS) Spawn() Monitor { return NewPropertySMonitor() }
