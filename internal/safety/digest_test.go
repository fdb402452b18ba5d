package safety

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/history"
)

// TestDigestValueSetDelimiterInjection: set elements are
// length-prefixed, so a single value that embeds the rendering of two
// elements cannot digest equal to the two-element set (joined
// undelimited, {"a","b"} and {"a,string=b"} used to render the same
// byte string — a collision between semantically different monitor
// states that the cache would have pruned on).
func TestDigestValueSetDelimiterInjection(t *testing.T) {
	two := &avMonitor{proposed: map[history.Value]bool{"a": true, "b": true}}
	one := &avMonitor{proposed: map[history.Value]bool{"a,string=b": true}}
	d2, ok2 := two.StateDigest()
	d1, ok1 := one.StateDigest()
	if !ok1 || !ok2 {
		t.Fatalf("string-valued monitors must digest: ok1=%v ok2=%v", ok1, ok2)
	}
	if d1 == d2 {
		t.Error("value set {a,b} digests equal to {\"a,string=b\"}: delimiter injection")
	}
}

// TestDigestEventDelimiterInjection: event fields are length-prefixed,
// so a "/" inside one string field cannot shift the boundary to the
// next field.
func TestDigestEventDelimiterInjection(t *testing.T) {
	a := history.History{{Kind: history.KindInvoke, Proc: 1, Op: "a/b", Obj: "c"}}
	b := history.History{{Kind: history.KindInvoke, Proc: 1, Op: "a", Obj: "b/c"}}
	da, oka := DigestHistory("t", a)
	db, okb := DigestHistory("t", b)
	if !oka || !okb {
		t.Fatalf("string-valued events must digest: oka=%v okb=%v", oka, okb)
	}
	if da == db {
		t.Error("Op=a/b,Obj=c digests equal to Op=a,Obj=b/c: delimiter injection")
	}
}

// TestDigestValueInjectiveInsideComposites: the canonical value
// encoding must separate values %v renders identically one level down
// — composite elements are individually delimited, so {"x y"} and
// {"x","y"} (both "[x y]" under %v) digest differently.
func TestDigestValueInjectiveInsideComposites(t *testing.T) {
	a := &avMonitor{proposed: map[history.Value]bool{[2]string{"x y", ""}: true}}
	b := &avMonitor{proposed: map[history.Value]bool{[2]string{"x", "y "}: true}}
	da, oka := a.StateDigest()
	db, okb := b.StateDigest()
	if !oka || !okb {
		t.Fatalf("array-valued monitors must digest: oka=%v okb=%v", oka, okb)
	}
	if da == db {
		t.Error("composite values with shifted element boundaries digest equal")
	}
}

// TestDigestPoisonsAddressValues: a monitor state holding a value whose
// %v rendering would embed a heap address (a nested non-nil pointer)
// must report itself undigestable — the prefix becomes uncacheable —
// rather than produce a digest that varies across runs and can collide
// across distinct states. Mirrors sim.Fingerprinter.Val's guard.
func TestDigestPoisonsAddressValues(t *testing.T) {
	type boxed struct{ p *int }
	bad := boxed{p: new(int)}

	m := &avMonitor{proposed: map[history.Value]bool{bad: true}}
	if _, ok := m.StateDigest(); ok {
		t.Error("avMonitor with nested-pointer proposed value still digests")
	}

	h := history.History{{Kind: history.KindInvoke, Proc: 1, Op: "w", Arg: bad}}
	if _, ok := DigestHistory("t", h); ok {
		t.Error("DigestHistory with nested-pointer argument still digests")
	}
}

// TestTMMonitorLazyDigest pins the lazy fold: whenever StateDigest is
// called — every event, now and then, or only at the end, on the
// monitor or on forks taken along the way — it equals the from-scratch
// digest of the consumed history.
func TestTMMonitorLazyDigest(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		h := randomTMHistory(r, 3, 4+r.Intn(24))
		every := 1 + r.Intn(5)
		m := NewOpacityMonitor()
		var forks []*TMMonitor
		var forkLen []int
		consumed := 0 // a failed monitor consumes no further events
		for k, e := range h {
			if m.OK() {
				consumed++
			}
			m.Step(e)
			if k%every == 0 {
				want, _ := DigestHistory("tm/false/false/"+strconv.FormatBool(!m.OK()), h[:consumed])
				if got, _ := m.StateDigest(); got != want {
					t.Fatalf("digest after %d events of %s: got %x, want %x", k+1, h, got, want)
				}
			}
			if r.Intn(4) == 0 {
				forks = append(forks, m.Fork().(*TMMonitor))
				forkLen = append(forkLen, consumed)
			}
		}
		for j, f := range forks {
			want, _ := DigestHistory("tm/false/false/"+strconv.FormatBool(!f.OK()), h[:forkLen[j]])
			if got, _ := f.StateDigest(); got != want {
				t.Fatalf("fork at %d of %s: got %x, want %x", forkLen[j], h, got, want)
			}
		}
	}
}
