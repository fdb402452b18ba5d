package safety

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/history"
)

// Digester is the optional canonical-state hook of a Monitor, required
// by exploration's state cache. StateDigest returns a 64-bit digest of
// the monitor's residual state — everything its future Step verdicts
// can depend on — such that two monitors with equal digests accept and
// reject exactly the same event suffixes. ok=false means the monitor
// cannot digest its current state; the exploration then treats the
// prefix as uncacheable.
//
// A digest must abstract away representation accidents (internal
// indices, the order state was accumulated in) but never semantic
// distinctions: equal digests with divergent future verdicts would let
// the cache prune a subtree containing a violation.
type Digester interface {
	StateDigest() (uint64, bool)
}

// digestPart folds one length-delimited string into a running digest;
// the length prefix keeps concatenated parts from colliding.
func digestPart(h uint64, s string) uint64 {
	h = history.DigestWord(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = history.DigestByte(h, s[i])
	}
	return h
}

// digestStrings hashes a canonical sequence of strings (FNV-1a,
// length-delimited so concatenation cannot collide).
func digestStrings(parts ...string) uint64 {
	h := history.DigestSeed()
	for _, s := range parts {
		h = digestPart(h, s)
	}
	return h
}

// field length-prefixes a rendered component so that, within one
// digest part built from several components, variable content cannot
// shift component boundaries ("a"+"b,c" versus "a,b"+"c").
func field(s string) string { return strconv.Itoa(len(s)) + ":" + s }

// valField canonically encodes a value as a length-prefixed component
// (history.AppendCanonical — injective on encodable values, unlike %v,
// whose space-joined composites collide: []string{"x y"} vs
// []string{"x","y"}). ok=false when the value cannot be canonically
// encoded (nested non-nil pointers, channels, functions, fmt-method
// implementers — renderings that could embed allocator addresses,
// nondeterministic across runs and collidable across semantically
// different states): the monitor must then report itself undigestable
// (the prefix becomes uncacheable, never unsound). The simulator-side
// Fingerprinter.Val applies the same guard to object state.
func valField(v history.Value) (string, bool) {
	b, ok := history.AppendCanonical(nil, v)
	if !ok {
		return "", false
	}
	return field(string(b)), true
}

// digestValueSet canonically encodes a set of values: each rendered
// with its dynamic type and length-prefixed, then sorted.
func digestValueSet(set map[history.Value]bool) (string, bool) {
	keys := make([]string, 0, len(set))
	for v := range set {
		k, ok := valField(v)
		if !ok {
			return "", false
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
	}
	return b.String(), true
}

// StateDigest implements Digester: the agreement+validity verdict
// depends only on the proposed-value set and the decided value.
func (m *avMonitor) StateDigest() (uint64, bool) {
	proposed, ok := digestValueSet(m.proposed)
	if !ok {
		return 0, false
	}
	decided, ok := valField(m.decided)
	if !ok {
		return 0, false
	}
	return digestStrings("av", proposed, strconv.FormatBool(m.have)+"/"+strconv.FormatBool(m.failed), decided), true
}

// StateDigest implements Digester: the k-set verdict depends only on
// the proposed and decided value sets (and k).
func (m *ksetMonitor) StateDigest() (uint64, bool) {
	proposed, ok := digestValueSet(m.proposed)
	if !ok {
		return 0, false
	}
	decided, ok := digestValueSet(m.decided)
	if !ok {
		return 0, false
	}
	return digestStrings("kset", strconv.Itoa(m.k)+"/"+strconv.FormatBool(m.failed), proposed, decided), true
}

// StateDigest implements Digester: the mutual-exclusion verdict depends
// only on the current critical-section holder.
func (m *mutexMonitor) StateDigest() (uint64, bool) {
	return digestStrings("mutex", strconv.Itoa(m.holder)+"/"+strconv.FormatBool(m.failed)), true
}

// StateDigest implements Digester. The TM monitor's residual state is
// its transaction records, which are a function of the consumed history,
// so the digest is a canonical encoding of the event sequence.
// Exploration therefore deduplicates TM states only across schedules
// that produced the identical external history (interleavings that
// reorder only internal steps), which is sound by construction. Events
// are folded in lazily, here: the ones consumed since the last call,
// oldest first.
func (m *TMMonitor) StateDigest() (uint64, bool) {
	if k := m.n - m.folded; k > 0 {
		pending := make([]*eventNode, k)
		for node := m.events; k > 0; node = node.prev {
			k--
			pending[k] = node
		}
		for _, node := range pending {
			m.dig.Append(node.e)
		}
		m.folded = m.n
	}
	return m.dig.Sum("tm/" + strconv.FormatBool(m.strict) + "/" + strconv.FormatBool(m.rule) + "/" + strconv.FormatBool(m.failed))
}

// HistoryDigest is a running canonical digest of an event sequence,
// maintained in O(1) per appended event — the residual-state digest of
// monitors whose state is a function of their history (TMMonitor, the
// slx batch fallback), which would otherwise re-encode the whole history on
// every explored prefix (O(depth²) along a DFS path). The zero value
// digests the empty sequence; copies are independent, so forked
// monitors just copy the struct.
type HistoryDigest struct {
	h   uint64
	bad bool
}

// Append folds one event in. A value digestEvent refuses marks the
// whole digest undigestable, permanently (matching the from-scratch
// encoding, which would refuse the same event every time).
func (d *HistoryDigest) Append(e history.Event) {
	if d.bad {
		return
	}
	de, ok := digestEvent(e)
	if !ok {
		d.bad = true
		return
	}
	if d.h == 0 {
		d.h = history.DigestSeed()
	}
	d.h = digestPart(d.h, de)
}

// Sum combines a caller tag (the monitor's residual non-history state —
// it may change between calls, which is why it is not folded in
// Append) with the appended events' digest.
func (d *HistoryDigest) Sum(tag string) (uint64, bool) {
	if d.bad {
		return 0, false
	}
	return history.DigestWord(digestPart(history.DigestSeed(), tag), d.h), true
}

// digestEvent canonically encodes one history event, every
// variable-content component length-prefixed.
func digestEvent(e history.Event) (string, bool) {
	arg, ok := valField(e.Arg)
	if !ok {
		return "", false
	}
	val, ok := valField(e.Val)
	if !ok {
		return "", false
	}
	return strconv.Itoa(int(e.Kind)) + "/" + strconv.Itoa(e.Proc) + "/" + field(e.Op) + field(e.Obj) + arg + val, true
}

// DigestHistory canonically digests an event sequence from scratch;
// ok=false when some event's values defeat canonical rendering.
// Monitors that digest per explored prefix should maintain a
// HistoryDigest instead of calling this O(len(h)) form every time.
func DigestHistory(tag string, h history.History) (uint64, bool) {
	var d HistoryDigest
	for _, e := range h {
		d.Append(e)
	}
	return d.Sum(tag)
}

// StateDigest implements Digester. The linearizability monitor's future
// verdicts depend on its configuration set and the pending operations;
// completed operations are frozen inside every configuration's
// sequential state and never revisited. Configurations are canonically
// encoded as (spec state, promised responses keyed by process) — the
// internal operation indices, which depend on the invocation order the
// history happened to arrive in, are translated to process ids (one
// pending operation per process) so equivalent states reached through
// different interleavings digest identically. The pending operations
// themselves are encoded by (process, op, object, argument).
//
// The one residual dependence on history length is the maxLinOps
// capacity cut-off, which is a function of the per-process operation
// counts; those are part of the simulator's state fingerprint, so equal
// cache keys imply equal capacity too.
func (m *LinMonitor) StateDigest() (uint64, bool) {
	var parts []string
	parts = append(parts, "lin/"+strconv.FormatBool(m.strict)+"/"+strconv.FormatBool(m.failed)+"/"+strconv.Itoa(len(m.ops)))

	for p, pi := range m.pending {
		if pi == 0 {
			continue
		}
		op := m.ops[pi-1]
		arg, ok := valField(op.arg)
		if !ok {
			return 0, false
		}
		parts = append(parts, "pend:"+strconv.Itoa(p)+"/"+field(op.name)+field(op.obj)+arg)
	}

	cfgs := make([]string, 0, len(m.configs))
	for _, c := range m.configs {
		var b strings.Builder
		st, ok := valField(c.st)
		if !ok {
			return 0, false
		}
		b.WriteString("st:")
		b.WriteString(st)
		if len(c.promises) > 0 {
			// Sort by the promised operation's process: index order is an
			// accident of invocation arrival.
			byProc := append([]promise(nil), c.promises...)
			sort.Slice(byProc, func(a, b int) bool { return m.ops[byProc[a].idx].proc < m.ops[byProc[b].idx].proc })
			for _, pr := range byProc {
				pv, ok := valField(pr.val)
				if !ok {
					return 0, false
				}
				b.WriteString("p" + strconv.Itoa(m.ops[pr.idx].proc) + "=")
				b.WriteString(pv)
			}
		}
		cfgs = append(cfgs, b.String())
	}
	sort.Strings(cfgs)
	seen := ""
	for _, c := range cfgs {
		if c != seen {
			parts = append(parts, c)
			seen = c
		}
	}
	return digestStrings(parts...), true
}
