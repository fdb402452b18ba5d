package safety

import (
	"testing"

	"repro/internal/history"
)

// buildProms returns the sorted promise set of the given idx→val pairs,
// built one insertion at a time through the arena.
func buildProms(sc *linScratch, pairs map[int32]history.Value) []promise {
	var proms []promise
	for idx, val := range pairs {
		proms = sc.withPromise(proms, idx, val)
	}
	return proms
}

// TestPromiseHashWithWithout pins the seen set's hashing contract: the
// promise-set hash does not depend on insertion order, and the hash
// markWith and markWithout derive from the base set's hash equals the
// hash of the set they would build.
func TestPromiseHashWithWithout(t *testing.T) {
	sc := &linScratch{}
	pairs := map[int32]history.Value{0: "a", 2: 7, 4: nil, 6: true, 9: "ok"}
	base := buildProms(sc, pairs)
	for i := 0; i < 5; i++ {
		// Map iteration order differs between builds.
		if got := buildProms(sc, pairs); promHash(got) != promHash(base) || !promEq(got, base) {
			t.Fatalf("rebuilt promise set %v (hash %x) differs from %v (hash %x)", got, promHash(got), base, promHash(base))
		}
	}
	for _, add := range []promise{{idx: 1, val: "x"}, {idx: 5, val: 3}, {idx: 12, val: nil}} {
		built := sc.withPromise(base, add.idx, add.val)
		if want, got := promHash(built), promHash(base)+promContrib(add.idx, add.val); got != want {
			t.Errorf("with %v: derived hash %x, built set's hash %x", add, got, want)
		}
		if !promEqWith(built, base, add.idx, add.val) {
			t.Errorf("with %v: promEqWith rejects the built set %v", add, built)
		}
	}
	for _, p := range base {
		built := sc.withoutPromise(base, p.idx)
		if want, got := promHash(built), promHash(base)-promContrib(p.idx, p.val); got != want {
			t.Errorf("without %d: derived hash %x, built set's hash %x", p.idx, got, want)
		}
		if !promEqWithout(built, base, p.idx) {
			t.Errorf("without %d: promEqWithout rejects the built set %v", p.idx, built)
		}
	}
}

// TestSeenSetForcedCollisions records every configuration under one
// hash, so each lookup walks the whole collision chain: membership must
// still be exact for plain, extended and reduced promise sets, and the
// table must survive growth past its initial size.
func TestSeenSetForcedCollisions(t *testing.T) {
	const h = 42
	sc := &linScratch{}
	sc.reset()
	mark := func(q cfgQuery, c linCfg) bool {
		slot, found := sc.lookup(h, &q)
		if !found {
			sc.record(slot, h, &searchCfg{linCfg: c})
		}
		return found
	}
	var cfgs []linCfg
	for mask := uint64(0); mask < 20; mask++ {
		for _, st := range []State{"", "1:a", 0} {
			proms := sc.withPromise(nil, int32(mask%3), mask%2 == 0)
			cfgs = append(cfgs, linCfg{mask: mask, st: st, promises: proms})
		}
	}
	for i, c := range cfgs {
		if mark(cfgQuery{mask: c.mask, st: c.st, base: c.promises}, c) {
			t.Fatalf("fresh configuration %d reported as seen", i)
		}
	}
	if len(sc.seen.slots) <= seenMinSlots {
		t.Fatalf("%d entries did not grow the %d-slot table", len(cfgs), seenMinSlots)
	}
	for i, c := range cfgs {
		if !mark(cfgQuery{mask: c.mask, st: c.st, base: c.promises}, c) {
			t.Fatalf("configuration %d not found on a second lookup", i)
		}
		// The same configuration, asked for as an extension of its
		// promise-free base and as a reduction of a larger set.
		p := c.promises[0]
		if !mark(cfgQuery{mask: c.mask, st: c.st, delta: 1, idx: p.idx, val: p.val}, c) {
			t.Fatalf("configuration %d not found as base+{%d}", i, p.idx)
		}
		bigger := sc.withPromise(c.promises, 30, "z")
		if !mark(cfgQuery{mask: c.mask, st: c.st, base: bigger, delta: -1, idx: 30}, c) {
			t.Fatalf("configuration %d not found as bigger−{30}", i)
		}
		// A different promised value is a different configuration.
		if mark(cfgQuery{mask: c.mask, st: c.st, delta: 1, idx: p.idx, val: "other"}, c) {
			t.Fatalf("configuration %d matched a different promise value", i)
		}
	}
	sc.reset()
	if mark(cfgQuery{mask: cfgs[0].mask, st: cfgs[0].st, base: cfgs[0].promises}, cfgs[0]) {
		t.Fatal("reset left an entry behind")
	}
}

// TestLinMonitorForkSharesOps pins the copy-on-append fork discipline:
// a fork and its parent share the ops backing until either appends, and
// appends on one side never become visible on the other.
func TestLinMonitorForkSharesOps(t *testing.T) {
	m := NewLinMonitor(RegisterSpec{Initial: 0})
	step := func(mon Monitor, evs ...history.Event) {
		for _, e := range evs {
			if !mon.Step(e) {
				t.Fatalf("unexpected violation at %+v", e)
			}
		}
	}
	step(m,
		history.Invoke(1, "write", 1), history.Response(1, "write", history.OK),
		history.Invoke(2, "read", nil))
	f := m.Fork().(*LinMonitor)
	// Diverge: parent completes the read with 1, the fork with a write
	// by proc 3 first. Each side appends to ops independently.
	step(m, history.Response(2, "read", 1))
	step(f, history.Invoke(3, "write", 5), history.Response(3, "write", history.OK), history.Response(2, "read", 5))
	if !m.OK() || !f.OK() {
		t.Fatal("both linearizable branches must stay OK")
	}
	// The fork must not have seen the parent's appends or vice versa.
	if len(m.ops) != 2 || len(f.ops) != 3 {
		t.Fatalf("ops leaked across the fork: parent %d ops, fork %d ops", len(m.ops), len(f.ops))
	}
	// A non-linearizable continuation still fails on the fork.
	step(f, history.Invoke(1, "read", nil))
	if f.Step(history.Response(1, "read", 99)) {
		t.Fatal("fork accepted a read of a never-written value")
	}
}
