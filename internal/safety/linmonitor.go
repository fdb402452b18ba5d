package safety

import (
	"hash/maphash"
	"math/bits"
	"sync"

	"repro/internal/history"
)

// LinMonitor is the incremental linearizability checker: a just-in-time
// Wing–Gong search that carries its partial-order state along the history
// instead of re-solving the whole prefix at every extension.
//
// The state is a set of configurations. Each configuration witnesses one
// way the operations seen so far can be linearized: a mask of linearized
// operations, the sequential-specification state they produce, and the
// promised responses of operations linearized speculatively before their
// response arrived. Two invariants are maintained after every consumed
// event:
//
//  1. every configuration's mask contains every completed operation
//     (completed operations linearize no later than their response —
//     the real-time order of linearizability), and
//  2. the configuration set is exactly the set of distinct
//     (mask, state, promises) values witnessed by some legal sequential
//     order of the mask's operations that respects real-time order and
//     matches every completed operation's response.
//
// Pending operations are linearized lazily: only when a response forces
// operations before it. Any linearization placing a pending operation
// later is reachable from a smaller configuration, so laziness loses no
// witnesses; the history is linearizable iff the set is non-empty. An
// invocation is O(1) — the configuration set is untouched — and a
// response closes the set over the currently pending operations, which
// on the short prefixes of bounded exploration is far cheaper than the
// from-scratch memoized search.
//
// The representation is tuned for the exploration hot loop: operations
// are append-only and immutable, so forks share the ops backing array
// (copy-on-append via a capacity clip) and completion lives in a bitmask
// on the monitor; configurations are plain values in a monitor-owned
// slice (no per-configuration heap object); promises are short sorted
// slices, deduplicated by an open-addressed hash set whose promise-set
// hash is an order-independent sum, so a speculative step is hashed and
// compared without building its extended promise set; and the search's
// stack, seen-set, promise arena and output buffer come from shared,
// reused scratch, so the constant forking of exploration never re-grows
// them.
type LinMonitor struct {
	spec  SeqSpec
	aspec AppendSpec // spec's allocation-free form, nil if not provided
	// strict selects strict (crash-aware) linearizability: an operation
	// pending when its process crashes must linearize before the crash
	// point or never. The monitor then closes the operation at the crash
	// event — each configuration branches into "the operation vanished"
	// and "it linearized before the crash, with any response" — and marks
	// it done so no later event can linearize it. With strict false a
	// crashed operation stays pending forever and may linearize at any
	// later point, which is plain linearizability on crash-free suffixes
	// but too weak once crashed processes recover: a recovered process
	// must observe only effects that were durable at its crash.
	strict bool
	// ops holds every operation seen, in invocation order. Entries are
	// immutable once appended, so Fork shares the backing array: both
	// sides are clipped to length (full slice expression), making any
	// later append reallocate instead of writing through the share.
	ops      []monOp
	doneMask uint64 // bit i set iff ops[i] has responded
	pending  []int  // proc → index+1 in ops of its pending operation (0 = none)
	configs  []linCfg
	failed   bool
	// Inline backings for pending and configs: exploration forks a
	// monitor per branch, and with the small process and configuration
	// counts of bounded exploration both slices fit inline, so Fork
	// allocates one object instead of three.
	pendInline [8]int
}

// linScratch is the transient state of one advance call: the closure
// search's stack and seen-set, the rebuilt configuration set, the
// promise arena and the memoized spec transitions. Monitors are forked
// far more often than they are advanced, so scratch is kept globally
// (idleScratch) rather than carried (and re-grown) per fork; advance
// holds one scratch for its full duration, which keeps reuse safe under
// parallel exploration.
type linScratch struct {
	seen     slotIndex // over seenCfgs
	seenCfgs []linCfg
	stack    []searchCfg
	next     []searchCfg
	// arena backs the promise slices the closure creates. They live only
	// until the advance ends, when commit copies the surviving ones out
	// in one allocation, so the search itself allocates nothing.
	arena []promise
	// memo caches the spec's transitions per (operation, state) for the
	// advance: the closure reaches one state under many masks and
	// promise sets, and the spec is a pure function of the two. trs
	// backs the cached transition lists.
	memo     slotIndex // over memoKeys
	memoKeys []memoKey
	trs      []Transition
}

// memoKey is one cached apply: operation op at state st, whose
// transitions are trs[start:end].
type memoKey struct {
	op         int32
	start, end int32
	st         State
}

func (sc *linScratch) reset() {
	sc.seen.reset()
	sc.seenCfgs = sc.seenCfgs[:0]
	sc.memo.reset()
	sc.memoKeys = sc.memoKeys[:0]
	sc.trs = sc.trs[:0]
	sc.next = sc.next[:0]
	sc.arena = sc.arena[:0]
}

// lookup probes the seen set for the queried configuration under hash
// h. It returns found, or the free slot where record should store it.
func (sc *linScratch) lookup(h uint64, q *cfgQuery) (slot int, found bool) {
	x := &sc.seen
	m := len(x.slots) - 1
	for i := int(h) & m; ; i = (i + 1) & m {
		sl := x.slots[i]
		if sl.gen != x.gen {
			return i, false
		}
		if x.hashes[sl.idx] == h && q.matches(&sc.seenCfgs[sl.idx]) {
			return i, true
		}
	}
}

// record stores c under hash h in the free slot lookup returned.
func (sc *linScratch) record(slot int, h uint64, c *searchCfg) {
	sc.seenCfgs = append(sc.seenCfgs, c.linCfg)
	sc.seen.insert(slot, h)
}

// markOf reports whether configuration c was already seen, recording it
// if not. The recorded entry shares c's promises.
func (sc *linScratch) markOf(c *searchCfg) bool {
	h := cfgHash(c.mask, c.sh, c.ph)
	q := cfgQuery{mask: c.mask, st: c.st, base: c.promises}
	slot, found := sc.lookup(h, &q)
	if !found {
		sc.record(slot, h, c)
	}
	return found
}

// markWith is markOf for nc (mask and state set) holding base's
// promises plus {idx→val}. The extended promise set is hashed from
// base's sum and compared against stored entries without being built;
// it is only materialized, in the arena, when the configuration is
// fresh, and then attached to nc with its hash.
func (sc *linScratch) markWith(nc, base *searchCfg, idx int32, val history.Value) bool {
	nc.ph = base.ph + promContrib(idx, val)
	h := cfgHash(nc.mask, nc.sh, nc.ph)
	q := cfgQuery{mask: nc.mask, st: nc.st, base: base.promises, delta: 1, idx: idx, val: val}
	slot, found := sc.lookup(h, &q)
	if !found {
		nc.promises, nc.inArena = sc.withPromise(base.promises, idx, val), true
		sc.record(slot, h, nc)
	}
	return found
}

// keepWithout emits c with its promise for idx dropped, unless that
// configuration was already seen. The reduced promise set, too, is only
// built when fresh.
func (sc *linScratch) keepWithout(c *searchCfg, idx int32) {
	nc := *c
	if pv, ok := lookupPromise(c.promises, idx); ok {
		nc.ph -= promContrib(idx, pv)
		h := cfgHash(nc.mask, nc.sh, nc.ph)
		q := cfgQuery{mask: c.mask, st: c.st, base: c.promises, delta: -1, idx: idx}
		slot, found := sc.lookup(h, &q)
		if found {
			return
		}
		nc.promises = sc.withoutPromise(c.promises, idx)
		nc.inArena = nc.promises != nil
		sc.record(slot, h, &nc)
	} else if sc.markOf(&nc) {
		return
	}
	sc.next = append(sc.next, nc)
}

// withPromise returns proms extended with idx→val, sorted, in the arena.
// proms may itself live in the arena: appends only write past its end,
// and a reallocation leaves it on the old backing.
func (sc *linScratch) withPromise(proms []promise, idx int32, val history.Value) []promise {
	start := len(sc.arena)
	i := 0
	for i < len(proms) && proms[i].idx < idx {
		i++
	}
	sc.arena = append(sc.arena, proms[:i]...)
	sc.arena = append(sc.arena, promise{idx: idx, val: val})
	sc.arena = append(sc.arena, proms[i:]...)
	return sc.arena[start:len(sc.arena):len(sc.arena)]
}

// withoutPromise returns proms with idx removed, in the arena (nil when
// empty).
func (sc *linScratch) withoutPromise(proms []promise, idx int32) []promise {
	if len(proms) <= 1 {
		return nil
	}
	start := len(sc.arena)
	for _, p := range proms {
		if p.idx != idx {
			sc.arena = append(sc.arena, p)
		}
	}
	return sc.arena[start:len(sc.arena):len(sc.arena)]
}

// commit replaces dst's contents with the advance's output
// configurations, copying the promise slices they hold in the arena into
// fresh, thereafter immutable, backing (one allocation per commitChunk
// promises); slices that came in with the source configurations are
// already immutable and stay shared.
// Consecutive outputs sharing an arena slice (every transition of one
// linearization step) keep sharing the copy.
func (sc *linScratch) commit(dst []linCfg) []linCfg {
	n := 0
	for i := range sc.next {
		if sc.next[i].inArena {
			n += len(sc.next[i].promises)
		}
	}
	var buf, src, cp []promise
	dst = dst[:0]
	for _, c := range sc.next {
		if c.inArena {
			if len(src) != len(c.promises) || &src[0] != &c.promises[0] {
				if cap(buf)-len(buf) < len(c.promises) {
					buf = make([]promise, 0, max(min(n, commitChunk), len(c.promises)))
				}
				n -= len(c.promises)
				start := len(buf)
				buf = append(buf, c.promises...)
				src, cp = c.promises, buf[start:len(buf):len(buf)]
			}
			c.promises = cp
		}
		dst = append(dst, c.linCfg)
	}
	return dst
}

// commitChunk bounds one copy-out allocation, in promises, so that a
// large advance copies out in small-object allocations.
const commitChunk = 1024

// cfgQuery describes the configuration a seen-set lookup asks about:
// (mask, st) with base's promises, plus {idx→val} when delta is 1 or
// minus idx when delta is -1.
type cfgQuery struct {
	mask  uint64
	st    State
	base  []promise
	delta int
	idx   int32
	val   history.Value
}

// matches reports whether stored configuration e is the queried one.
// Specification states and responses must be ==-comparable (the State
// contract, and closeOver already compares responses with !=).
func (q *cfgQuery) matches(e *linCfg) bool {
	if e.mask != q.mask || len(e.promises) != len(q.base)+q.delta || e.st != q.st {
		return false
	}
	switch q.delta {
	case 0:
		return promEq(e.promises, q.base)
	case 1:
		return promEqWith(e.promises, q.base, q.idx, q.val)
	default:
		return promEqWithout(e.promises, q.base, q.idx)
	}
}

// slotIndex is the hash index behind the seen set and the transition
// memo: open addressing with linear probing over a power-of-two slot
// table whose slots point into the owner's entry array (entry k has hash
// hashes[k]). The owners probe it themselves, comparing their own
// entries. Both only answer membership or cache pure results — the
// closure emits configurations in its own DFS order — so neither the
// hash seed nor the probe order can reach a result; hash collisions
// only cost an exact comparison. Slots carry the generation that wrote
// them, so reset is a counter bump instead of a clear, and the reused
// table keeps its size across advances.
type slotIndex struct {
	slots  []seenSlot
	hashes []uint64
	gen    uint32
}

type seenSlot struct {
	gen uint32 // slot is live iff gen equals the index's
	idx int32  // entry index
}

// seenMinSlots is the initial slot-table size.
const seenMinSlots = 64

func (x *slotIndex) reset() {
	x.hashes = x.hashes[:0]
	x.gen++
	if x.gen == 0 || x.slots == nil {
		// First use, or the generation counter wrapped: stale slots could
		// carry any generation, so clear them once.
		if x.slots == nil {
			x.slots = make([]seenSlot, seenMinSlots)
		}
		clear(x.slots)
		x.gen = 1
	}
}

// insert points free slot (found by a probe for hash h) at the entry the
// owner just appended. The table doubles past half load, so probes stay
// short and a free slot always exists.
func (x *slotIndex) insert(slot int, h uint64) {
	x.slots[slot] = seenSlot{gen: x.gen, idx: int32(len(x.hashes))}
	x.hashes = append(x.hashes, h)
	if 2*len(x.hashes) <= len(x.slots) {
		return
	}
	x.slots = make([]seenSlot, 2*len(x.slots))
	m := len(x.slots) - 1
	for k, hk := range x.hashes {
		i := int(hk) & m
		for x.slots[i].gen == x.gen {
			i = (i + 1) & m
		}
		x.slots[i] = seenSlot{gen: x.gen, idx: int32(k)}
	}
}

// hashSeed keys the seen set's string hashing. It is random per process,
// which is safe because the set answers membership only.
var hashSeed = maphash.MakeSeed()

// mix64 is a 64-bit finalizer (MurmurHash3's fmix64): every input bit
// affects every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// valHash hashes a specification state or response consistently with
// ==: equal values hash equally. Types outside the switch share one
// hash and are told apart by the exact comparison behind it.
func valHash(v any) uint64 {
	switch x := v.(type) {
	case string:
		return maphash.String(hashSeed, x)
	case int:
		return mix64(uint64(x))
	case int64:
		return mix64(uint64(x) ^ 0x5bd1e995)
	case bool:
		if x {
			return 0x2545f4914f6cdd1d
		}
		return 0x9e3779b97f4a7c15
	case nil:
		return 0x94d049bb133111eb
	}
	return 0xbf58476d1ce4e5b9
}

// promContrib is one promise's share of a promise-set hash. The set's
// hash is the wrapping sum of its members' shares, so it does not depend
// on order, and adding or removing a promise is one addition or
// subtraction.
func promContrib(idx int32, val history.Value) uint64 {
	return mix64(uint64(uint32(idx))*0x9e3779b97f4a7c15 ^ valHash(val))
}

// promHash is the hash of a whole promise set.
func promHash(proms []promise) uint64 {
	var h uint64
	for _, p := range proms {
		h += promContrib(p.idx, p.val)
	}
	return h
}

// cfgHash combines a configuration's mask, state hash and promise-set
// hash.
func cfgHash(mask, stHash, ph uint64) uint64 {
	return mix64(mix64(mask^stHash*0x9e3779b97f4a7c15) ^ ph)
}

// promEq reports a == b elementwise; both are sorted by idx and equal
// in length.
func promEq(a, b []promise) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// promEqWith reports stored == base+{idx→val} (merged in sorted order)
// without materializing the extension; len(stored) == len(base)+1.
func promEqWith(stored, base []promise, idx int32, val history.Value) bool {
	ins := promise{idx: idx, val: val}
	j, used := 0, false
	for i := range stored {
		var want promise
		if !used && (j >= len(base) || idx < base[j].idx) {
			want, used = ins, true
		} else {
			want = base[j]
			j++
		}
		if stored[i] != want {
			return false
		}
	}
	return used && j == len(base)
}

// promEqWithout reports stored == base−{idx}; len(stored) == len(base)−1.
func promEqWithout(stored, base []promise, idx int32) bool {
	i := 0
	for _, p := range base {
		if p.idx == idx {
			continue
		}
		if i >= len(stored) || stored[i] != p {
			return false
		}
		i++
	}
	return i == len(stored)
}

// idleScratch holds the scratch of finished advances. Unlike a
// sync.Pool it is not emptied by garbage collection, so the closure's
// tables grow once per concurrently running advance instead of again
// after every collection, whose bursts of regrowth raise the peak heap.
// A scratch grown past maxIdleCfgs seen configurations is left to the
// collector rather than kept.
var idleScratch struct {
	sync.Mutex
	list []*linScratch
}

// maxIdleCfgs bounds the seen-set capacity of a kept scratch.
const maxIdleCfgs = 1 << 16

func getScratch() *linScratch {
	idleScratch.Lock()
	defer idleScratch.Unlock()
	n := len(idleScratch.list)
	if n == 0 {
		return &linScratch{}
	}
	sc := idleScratch.list[n-1]
	idleScratch.list = idleScratch.list[:n-1]
	return sc
}

func putScratch(sc *linScratch) {
	if cap(sc.seenCfgs) > maxIdleCfgs {
		return
	}
	idleScratch.Lock()
	idleScratch.list = append(idleScratch.list, sc)
	idleScratch.Unlock()
}

// monOp is one observed operation, immutable once appended.
type monOp struct {
	proc      int
	name, obj string
	arg       history.Value
}

// promise is one speculative linearization: the pending operation's index
// and the response the chosen transition committed it to.
type promise struct {
	idx int32
	val history.Value
}

// linCfg is one immutable configuration. promises is sorted by idx and
// never mutated once attached, so configurations share promise slices.
type linCfg struct {
	mask     uint64
	st       State
	promises []promise
}

// searchCfg is a configuration inside the closure search, with its
// hashes cached: sh is valHash(st) and ph is promHash(promises).
// inArena marks promises living in the scratch arena.
type searchCfg struct {
	linCfg
	sh, ph  uint64
	inArena bool
}

// searchFrom starts the search at monitor configuration c.
func searchFrom(c *linCfg) searchCfg {
	return searchCfg{linCfg: *c, sh: valHash(c.st), ph: promHash(c.promises)}
}

// lookupPromise returns the promised response for idx, if any.
func lookupPromise(proms []promise, idx int32) (history.Value, bool) {
	for _, p := range proms {
		if p.idx == idx {
			return p.val, true
		}
	}
	return nil, false
}

// NewLinMonitor creates the incremental linearizability monitor for spec
// at the empty history.
func NewLinMonitor(spec SeqSpec) *LinMonitor {
	m := &LinMonitor{
		spec:    spec,
		configs: []linCfg{{mask: 0, st: spec.Init()}},
	}
	m.aspec, _ = spec.(AppendSpec)
	return m
}

// NewStrictLinMonitor creates the crash-aware (strict linearizability)
// monitor for spec: operations pending at their process's crash either
// linearize before the crash point or vanish. See the strict field.
func NewStrictLinMonitor(spec SeqSpec) *LinMonitor {
	m := NewLinMonitor(spec)
	m.strict = true
	return m
}

// Spawn implements the monitor side of the linearizability property.
func (m *LinMonitor) Spawn() Monitor {
	s := NewLinMonitor(m.spec)
	s.strict = m.strict
	return s
}

// Step implements Monitor.
func (m *LinMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	switch e.Kind {
	case history.KindInvoke:
		if len(m.ops) >= maxLinOps {
			// Match the batch checker's cap: histories beyond the mask
			// width are rejected.
			m.failed = true
			return false
		}
		if e.Proc >= 0 {
			for len(m.pending) <= e.Proc {
				m.pending = append(m.pending, 0)
			}
			m.pending[e.Proc] = len(m.ops) + 1
		}
		m.ops = append(m.ops, monOp{proc: e.Proc, name: e.Op, obj: e.Obj, arg: e.Arg})
	case history.KindResponse:
		if e.Proc < 0 || e.Proc >= len(m.pending) || m.pending[e.Proc] == 0 {
			return true // stray response; well-formed histories never produce one
		}
		idx := m.pending[e.Proc] - 1
		m.pending[e.Proc] = 0
		m.doneMask |= uint64(1) << uint(idx)
		m.advance(idx, e.Val)
		if len(m.configs) == 0 {
			m.failed = true
			return false
		}
	case history.KindCrash:
		// Non-strict: a crashed process's operation stays pending — it may
		// take effect or not, at any point, which is exactly how pending
		// operations are treated. Strict: the operation is closed at the
		// crash (linearize now-or-earlier with any response, or vanish).
		if m.strict && e.Proc >= 0 && e.Proc < len(m.pending) && m.pending[e.Proc] != 0 {
			idx := m.pending[e.Proc] - 1
			m.pending[e.Proc] = 0
			m.crashClose(idx)
		}
	case history.KindRecover:
		// Recovery introduces no operation: the recovered process's next
		// invocation is an ordinary fresh operation.
	}
	return true
}

// crashClose consumes the crash of a process with operation idx pending:
// every configuration branches into the operation vanishing (the
// configuration survives unchanged) and linearizing before the crash
// point — possibly after speculatively linearizing other pending
// operations, with any response, since no response event will ever
// check it. idx is then marked done, so no later advance can linearize
// it: that is the strict-linearizability cutoff. Unlike advance, the
// configuration set can only grow here, so the monitor never fails at a
// crash event.
//
// After a crashClose the completed-mask invariant weakens to "every
// responded operation is in every mask": a vanished operation is done
// but absent from the surviving configurations' masks. That is sound —
// a done operation is excluded from pendMask, so its mask bit never
// influences future transitions.
func (m *LinMonitor) crashClose(idx int) {
	bit := uint64(1) << uint(idx)
	sc := getScratch()
	sc.reset()
	pendMask := (uint64(1)<<uint(len(m.ops)) - 1) &^ m.doneMask
	for i := range m.configs {
		c := searchFrom(&m.configs[i])
		if c.mask&bit != 0 {
			// Speculatively linearized before the crash: keep, dropping the
			// promise — the response it committed to will never arrive and
			// nothing can observe it.
			sc.keepWithout(&c, int32(idx))
			continue
		}
		if sc.markOf(&c) {
			continue // already reached while closing an earlier source
		}
		sc.stack = append(sc.stack[:0], c)
		for len(sc.stack) > 0 {
			cur := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			// The operation may vanish: cur survives as-is. Every stacked
			// configuration was fresh when marked, so it is appended exactly
			// once — which also keeps cross-source deduplication lossless
			// (the first discoverer of a shared configuration emitted it).
			sc.next = append(sc.next, cur)
			// Or it linearizes here, with any response.
			for _, tr := range m.apply(sc, &cur, idx) {
				nc := searchCfg{linCfg: linCfg{mask: cur.mask | bit, st: tr.Next, promises: cur.promises}, sh: valHash(tr.Next), ph: cur.ph, inArena: cur.inArena}
				if !sc.markOf(&nc) {
					sc.next = append(sc.next, nc)
				}
			}
			// Or another pending operation speculatively linearizes first.
			m.speculate(sc, &cur, pendMask&^cur.mask&^bit)
		}
	}
	m.doneMask |= bit
	m.configs = sc.commit(m.configs)
	putScratch(sc)
}

// speculate pushes every fresh configuration reachable from cur by
// linearizing one operation of rest (a mask of pending operations)
// with its promised response.
func (m *LinMonitor) speculate(sc *linScratch, cur *searchCfg, rest uint64) {
	for ; rest != 0; rest &= rest - 1 {
		j := bits.TrailingZeros64(rest)
		jbit := uint64(1) << uint(j)
		for _, tr := range m.apply(sc, cur, j) {
			nc := searchCfg{linCfg: linCfg{mask: cur.mask | jbit, st: tr.Next}, sh: valHash(tr.Next)}
			if !sc.markWith(&nc, cur, int32(j), tr.Resp) {
				sc.stack = append(sc.stack, nc)
			}
		}
	}
}

// apply returns the spec's transitions for operation j at c's state,
// memoized for the advance. The returned slice is immutable: later
// applies only append past it.
func (m *LinMonitor) apply(sc *linScratch, c *searchCfg, j int) []Transition {
	h := mix64(c.sh ^ uint64(j+1)*0x9e3779b97f4a7c15)
	x := &sc.memo
	msk := len(x.slots) - 1
	i := int(h) & msk
	for ; x.slots[i].gen == x.gen; i = (i + 1) & msk {
		k := x.slots[i].idx
		if e := &sc.memoKeys[k]; x.hashes[k] == h && e.op == int32(j) && e.st == c.st {
			return sc.trs[e.start:e.end:e.end]
		}
	}
	start := len(sc.trs)
	op := &m.ops[j]
	if m.aspec != nil {
		sc.trs = m.aspec.ApplyAppend(sc.trs, c.st, op.proc, op.name, op.obj, op.arg)
	} else {
		sc.trs = append(sc.trs, m.spec.Apply(c.st, op.proc, op.name, op.obj, op.arg)...)
	}
	end := len(sc.trs)
	sc.memoKeys = append(sc.memoKeys, memoKey{op: int32(j), start: int32(start), end: int32(end), st: c.st})
	x.insert(i, h)
	return sc.trs[start:end:end]
}

// advance consumes the response of operation idx: configurations that
// already linearized it keep only if they promised this response;
// configurations that did not must linearize it now, possibly after
// speculatively linearizing other pending operations.
//
// One seen-set serves the whole response: intermediate configurations
// (mask without idx) and output configurations (mask with idx) occupy
// disjoint key spaces, and an intermediate configuration reached from
// two source configurations closes over identically, so cross-source
// deduplication is sound and saves repeated work.
func (m *LinMonitor) advance(idx int, val history.Value) {
	bit := uint64(1) << uint(idx)
	sc := getScratch()
	sc.reset()
	for i := range m.configs {
		c := &m.configs[i]
		if c.mask&bit != 0 {
			// Speculatively linearized earlier: the promise must match.
			if pv, ok := lookupPromise(c.promises, int32(idx)); ok && pv == val {
				src := searchFrom(c)
				sc.keepWithout(&src, int32(idx))
			}
			continue
		}
		src := searchFrom(c)
		m.closeOver(sc, &src, idx, val)
	}
	m.configs = sc.commit(m.configs)
	putScratch(sc)
}

// closeOver explores every way to reach a configuration containing idx
// from c by linearizing currently pending operations, with idx last.
// Orders placing further pending operations after idx are not explored:
// they remain reachable lazily from the produced configurations. Fresh
// output configurations are appended to sc.next.
func (m *LinMonitor) closeOver(sc *linScratch, c *searchCfg, idx int, val history.Value) {
	if sc.markOf(c) {
		return // an earlier source configuration already closed over c
	}
	bit := uint64(1) << uint(idx)
	pendMask := (uint64(1)<<uint(len(m.ops)) - 1) &^ m.doneMask
	sc.stack = append(sc.stack[:0], *c)
	for len(sc.stack) > 0 {
		cur := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		// Linearize idx now, closing this branch.
		for _, tr := range m.apply(sc, &cur, idx) {
			if tr.Resp != val {
				continue
			}
			nc := searchCfg{linCfg: linCfg{mask: cur.mask | bit, st: tr.Next, promises: cur.promises}, sh: valHash(tr.Next), ph: cur.ph, inArena: cur.inArena}
			if !sc.markOf(&nc) {
				sc.next = append(sc.next, nc)
			}
		}
		// Or speculatively linearize another pending operation first.
		m.speculate(sc, &cur, pendMask&^cur.mask&^bit)
	}
}

// OK implements Monitor.
func (m *LinMonitor) OK() bool { return !m.failed }

// linPool recycles released monitors back into Fork: exploration forks
// one monitor per branch and releases it when the branch's subtree is
// done, so steady-state forking reuses the pending and configs backings
// instead of allocating.
var linPool = sync.Pool{New: func() any { return new(LinMonitor) }}

// Fork implements Monitor.
func (m *LinMonitor) Fork() Monitor {
	// Clip ops so both sides copy-on-append instead of copying now:
	// entries are immutable, only the shared backing's spare capacity
	// must not be written through.
	m.ops = m.ops[:len(m.ops):len(m.ops)]
	f := linPool.Get().(*LinMonitor)
	f.spec, f.aspec, f.ops, f.doneMask, f.failed = m.spec, m.aspec, m.ops, m.doneMask, m.failed
	f.strict = m.strict
	if f.pending == nil {
		f.pending = f.pendInline[:0]
	}
	f.pending = append(f.pending[:0], m.pending...)
	f.configs = append(f.configs[:0], m.configs...)
	return f
}

// Release implements Releaser: the fork's branch is fully explored, so
// its backings can serve a later Fork.
func (m *LinMonitor) Release() { linPool.Put(m) }
