package safety

import (
	"encoding/binary"
	"sync"

	"repro/internal/history"
)

// TMInitial is the initial value of every transactional variable, matching
// Algorithm 1's initialization C = (1,(0,0,...)).
const TMInitial = 0

// role is how a transaction is placed in a candidate serialization.
type role int

const (
	roleCommitted role = iota + 1
	roleAborted
)

// txRecord is the data the serialization search and the Section 5.3
// rule need about one transaction. The batch checkers derive it from
// history.Transactions; TMMonitor keeps it incrementally.
type txRecord struct {
	// steps is the program-order sequence of successful reads and writes.
	steps []txStep
	// status is the completion status; tryC reports that the last
	// operation is a tryC invocation without a response.
	status history.TxStatus
	tryC   bool
	// precede is the set of transactions that must be serialized before
	// this one (real-time order).
	precede bitset
	// seq is the transaction's 1-based index among its process's
	// transactions; first and last are the history indices of its start
	// invocation and of its completing response (last is only meaningful
	// once the transaction completed); startRes and tryCInv are the
	// indices of its start response and last tryC invocation, -1 if none.
	seq, first, last  int
	startRes, tryCInv int
}

// Placement roles, derived from the completion rules of opacity
// (Section 4.1): committed transactions must commit, aborted must abort,
// live with a pending tryC may do either, live without a pending tryC
// abort.
var (
	rolesCommit      = []role{roleCommitted}
	rolesAbort       = []role{roleAborted}
	rolesCommitAbort = []role{roleCommitted, roleAborted}
)

// roles returns the transaction's allowed placement roles.
func (r *txRecord) roles() []role {
	switch {
	case r.status == history.TxCommitted:
		return rolesCommit
	case r.status == history.TxLive && r.tryC:
		return rolesCommitAbort
	}
	return rolesAbort
}

// completed reports whether the transaction committed or aborted.
func (r *txRecord) completed() bool { return r.status != history.TxLive }

// bitset is a dynamic bit mask over transaction indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) test(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

func (b bitset) setBit(i int) { b[i/64] |= 1 << uint(i%64) }

func (b bitset) clearBit(i int) { b[i/64] &^= 1 << uint(i%64) }

// containsAll reports whether every bit of other is set in b; other may
// be shorter than b.
func (b bitset) containsAll(other bitset) bool {
	for w := range other {
		if other[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

type txStep struct {
	isRead bool
	v      string
	val    history.Value // value read, or value written
}

// maxOpacityTxs is a sanity cap on the number of transactions the memoized
// search handles (the dynamic bitset supports arbitrary counts; the cap
// guards against accidental quadratic blowups on absurd inputs).
const maxOpacityTxs = 4096

// txRecords analyses a TM history into records, ordered by start
// invocation.
func txRecords(h history.History) []txRecord {
	txs := history.Transactions(h)
	recs := make([]txRecord, len(txs))
	for i, tx := range txs {
		r := &recs[i]
		r.status, r.seq, r.first, r.last = tx.Status, tx.Seq, tx.FirstIndex, tx.LastIndex
		r.startRes, r.tryCInv = -1, -1
		for _, op := range tx.Ops {
			switch {
			case op.Name == history.TMRead && op.Done && op.Val != history.Abort:
				r.steps = append(r.steps, txStep{isRead: true, v: op.Obj, val: op.Val})
			case op.Name == history.TMWrite && op.Done && op.Val != history.Abort:
				r.steps = append(r.steps, txStep{isRead: false, v: op.Obj, val: op.Arg})
			}
			switch op.Name {
			case history.TMStart:
				if op.Done {
					r.startRes = op.ResIndex
				}
			case history.TMTryC:
				r.tryCInv = op.InvIndex
			}
		}
		if n := len(tx.Ops); n > 0 {
			last := tx.Ops[n-1]
			r.tryC = last.Name == history.TMTryC && !last.Done
		}
		r.precede = newBitset(len(txs))
		for j, b := range txs {
			if i != j && history.TxPrecedes(b, tx) {
				r.precede.setBit(j)
			}
		}
	}
	return recs
}

// buildRecords is txRecords for the serialization search. ok=false when
// the history has too many transactions.
func buildRecords(h history.History) ([]txRecord, bool) {
	recs := txRecords(h)
	return recs, len(recs) <= maxOpacityTxs
}

// serScratch is the pooled working memory of one serializable call.
// Variables and values are interned to small integers, so a search
// node's committed store is a row of value ids and its memo key a fixed
// byte layout: no maps, sorting or formatting per node.
type serScratch struct {
	vars  map[string]int32
	vals  map[history.Value]int32
	steps []serStep // compiled steps; record r's are steps[off[r]:off[r+1]]
	off   []int
	// Per search depth: the placed-transaction mask (words uint64s), the
	// committed store (nvars value ids) and the memo key bytes.
	masks  []uint64
	stores []int32
	keys   []byte
	memo   map[string]bool
}

// serStep is a txStep with interned variable and value.
type serStep struct {
	isRead bool
	v, val int32
}

var serPool = sync.Pool{New: func() any {
	return &serScratch{vars: map[string]int32{}, vals: map[history.Value]int32{}, memo: map[string]bool{}}
}}

// release empties the scratch, so the pool does not keep the search's
// keys and values alive, and returns it to the pool.
func (s *serScratch) release() {
	clear(s.vars)
	clear(s.vals)
	clear(s.memo)
	serPool.Put(s)
}

// valID interns v; id 0 is TMInitial, which every variable holds until
// written.
func (s *serScratch) valID(v history.Value) int32 {
	id, ok := s.vals[v]
	if !ok {
		id = int32(len(s.vals))
		s.vals[v] = id
	}
	return id
}

// serializable runs the memoized DFS: is there an order of all transactions
// (with allowed roles) respecting real-time order in which every placed
// transaction's reads are legal? When strict is true, aborted transactions
// impose no read constraints (strict serializability); otherwise even
// aborted transactions must observe a consistent state (opacity).
func serializable(recs []txRecord, strict bool) bool {
	s := serPool.Get().(*serScratch)
	defer s.release()
	s.valID(TMInitial)
	s.steps, s.off = s.steps[:0], append(s.off[:0], 0)
	for i := range recs {
		for _, st := range recs[i].steps {
			v, ok := s.vars[st.v]
			if !ok {
				v = int32(len(s.vars))
				s.vars[st.v] = v
			}
			s.steps = append(s.steps, serStep{isRead: st.isRead, v: v, val: s.valID(st.val)})
		}
		s.off = append(s.off, len(s.steps))
	}
	n, words, nvars := len(recs), (len(recs)+63)/64, len(s.vars)
	keyLen := 8*words + 4*nvars
	s.masks = grow(s.masks, (n+1)*words)
	s.stores = grow(s.stores, (n+1)*nvars)
	s.keys = grow(s.keys, (n+1)*keyLen)
	clear(s.masks[:words])
	clear(s.stores[:nvars]) // every variable starts at TMInitial (id 0)

	var dfs func(placed int) bool
	dfs = func(placed int) bool {
		if placed == n {
			return true
		}
		mask := bitset(s.masks[placed*words : (placed+1)*words])
		store := s.stores[placed*nvars : (placed+1)*nvars]
		key := s.keys[placed*keyLen : (placed+1)*keyLen]
		for w, x := range mask {
			binary.LittleEndian.PutUint64(key[8*w:], x)
		}
		for v, x := range store {
			binary.LittleEndian.PutUint32(key[8*words+4*v:], uint32(x))
		}
		if v, ok := s.memo[string(key)]; ok {
			return v
		}
		nextMask := bitset(s.masks[(placed+1)*words : (placed+2)*words])
		nextStore := s.stores[(placed+1)*nvars : (placed+2)*nvars]
		res := false
	candidates:
		for i := range recs {
			r := &recs[i]
			if mask.test(i) || !mask.containsAll(r.precede) {
				continue
			}
			steps := s.steps[s.off[i]:s.off[i+1]]
			for _, ro := range r.roles() {
				if (ro == roleCommitted || !strict) && !legalSteps(steps, store) {
					continue
				}
				copy(nextMask, mask)
				nextMask.setBit(i)
				copy(nextStore, store)
				if ro == roleCommitted {
					for _, st := range steps {
						if !st.isRead {
							nextStore[st.v] = st.val
						}
					}
				}
				if dfs(placed + 1) {
					res = true
					break candidates
				}
			}
		}
		s.memo[string(key)] = res
		return res
	}
	return dfs(0)
}

// grow returns buf resized to n elements, reusing its capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// legalSteps reports whether a transaction's reads are consistent with
// the committed store at its serialization point: each read sees the
// transaction's own latest earlier write of the variable, else the
// store.
func legalSteps(steps []serStep, store []int32) bool {
	for k, st := range steps {
		if !st.isRead {
			continue
		}
		want := store[st.v]
		for j := k - 1; j >= 0; j-- {
			if !steps[j].isRead && steps[j].v == st.v {
				want = steps[j].val
				break
			}
		}
		if st.val != want {
			return false
		}
	}
	return true
}

// OpaquePrefix reports whether the single finite history h admits a
// completion and an equivalent legal sequential history preserving
// real-time order (the per-prefix condition of opacity).
func OpaquePrefix(h history.History) bool {
	recs, ok := buildRecords(h)
	if !ok {
		return false
	}
	return serializable(recs, false)
}

// Opaque reports whether h ensures opacity: every finite prefix satisfies
// OpaquePrefix. Prefixes are checked after every response event (adding
// invocations cannot invalidate opacity: a new or extended live
// transaction completes as aborted with no additional successful reads, and
// real-time constraints only shrink).
func Opaque(h history.History) bool {
	for i, e := range h {
		if e.Kind == history.KindResponse && !OpaquePrefix(h.Prefix(i+1)) {
			return false
		}
	}
	return OpaquePrefix(h)
}

// Opacity is the opacity safety property as a Property value.
type Opacity struct{}

// Name implements Property.
func (Opacity) Name() string { return "opacity" }

// Holds implements Property.
func (Opacity) Holds(h history.History) bool { return Opaque(h) }

// StrictSerializability requires the committed transactions (plus possibly
// some commit-pending ones) to form a legal sequential history preserving
// real-time order; aborted transactions are invisible and unconstrained.
type StrictSerializability struct{}

// Name implements Property.
func (StrictSerializability) Name() string { return "strict-serializability" }

// Holds implements Property.
func (StrictSerializability) Holds(h history.History) bool {
	for i, e := range h {
		if e.Kind == history.KindResponse && !strictPrefix(h.Prefix(i+1)) {
			return false
		}
	}
	return strictPrefix(h)
}

func strictPrefix(h history.History) bool {
	recs, ok := buildRecords(h)
	if !ok {
		return false
	}
	return serializable(recs, true)
}
