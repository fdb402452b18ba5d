// Package simtest enumerates schedule trees for the simulator's golden
// tests. A Tree names an object, an environment and a bound (depth,
// crash and recovery budgets); Walk visits every schedule prefix of the
// tree by a from-root sim.Run per node, and WalkSession visits the same
// prefixes depth-first on one Session, rewinding with Mark/Restore.
// Both fold each node's observable outcome — schedule, history,
// footprint, process sets and state fingerprint — into one
// order-sensitive digest per tree. The golden files under testdata pin
// those digests, so any change to what a schedule produces shows up as
// a digest mismatch, and the two walks must agree with each other.
package simtest

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/sim"
)

// Tree is one schedule tree: every sequence of at most Depth decisions
// that steps a ready process, crashes a ready or blocked process (at
// most Crashes times along a path), or recovers a crashed process (at
// most Recoveries times along a path).
type Tree struct {
	Name       string
	Procs      int
	Depth      int
	Crashes    int
	Recoveries int
	NewObject  func() sim.Object
	NewEnv     func() sim.Environment
}

// Key is the tree's line prefix in a golden file.
func (t Tree) Key() string {
	return fmt.Sprintf("%s procs=%d depth=%d crashes=%d recoveries=%d",
		t.Name, t.Procs, t.Depth, t.Crashes, t.Recoveries)
}

// node is the observable outcome of one schedule prefix.
type node struct {
	schedule  []sim.Decision
	h         history.History
	steps     int
	tracked   bool
	accesses  []sim.Access
	ready     []int
	idle      []int
	blocked   []int
	crashed   []int
	fp        uint64
	fpOK      bool
	crashes   int
	recovered int
}

// folder accumulates the tree digest.
type folder struct {
	h     uint64
	buf   []byte
	nodes int
}

func (f *folder) word(v uint64) { f.h = history.DigestWord(f.h, v) }
func (f *folder) int(v int)     { f.word(uint64(v)) }

func (f *folder) bool(b bool) {
	if b {
		f.int(1)
	} else {
		f.int(0)
	}
}

func (f *folder) str(s string) {
	f.int(len(s))
	for i := 0; i < len(s); i++ {
		f.h = history.DigestByte(f.h, s[i])
	}
}

func (f *folder) val(v history.Value) {
	b, ok := history.AppendCanonical(f.buf[:0], v)
	f.buf = b
	f.bool(ok)
	if ok {
		f.str(string(b))
	}
}

func (f *folder) ints(xs []int) {
	f.int(len(xs))
	for _, x := range xs {
		f.int(x)
	}
}

// add folds one node.
func (f *folder) add(n *node) {
	f.nodes++
	f.int(len(n.schedule))
	for _, d := range n.schedule {
		f.int(d.Proc)
		f.bool(d.Crash)
		f.bool(d.Recover)
	}
	f.int(len(n.h))
	for i := range n.h {
		e := &n.h[i]
		f.int(int(e.Kind))
		f.int(e.Proc)
		f.str(e.Op)
		f.str(e.Obj)
		f.val(e.Arg)
		f.val(e.Val)
	}
	f.int(n.steps)
	f.bool(n.tracked)
	if n.tracked {
		f.int(len(n.accesses))
		for _, a := range n.accesses {
			f.str(a.Obj)
			for _, b := range [...]bool{a.Write, a.Known, a.Invoked, a.Responded, a.Crash, a.Recover} {
				f.bool(b)
			}
		}
	}
	f.ints(n.ready)
	f.ints(n.idle)
	f.ints(n.blocked)
	f.ints(n.crashed)
	f.bool(n.fpOK)
	if n.fpOK {
		f.word(n.fp)
	}
}

// children returns the decisions that extend n within t's budgets, in
// the fixed order steps, crashes, recoveries (each by ascending id).
func (t Tree) children(n *node) []sim.Decision {
	if len(n.schedule) >= t.Depth {
		return nil
	}
	var out []sim.Decision
	for _, p := range n.ready {
		out = append(out, sim.Decision{Proc: p})
	}
	if n.crashes < t.Crashes {
		live := append(append([]int(nil), n.ready...), n.blocked...)
		sort.Ints(live)
		for _, p := range live {
			out = append(out, sim.Decision{Proc: p, Crash: true})
		}
	}
	if n.recovered < t.Recoveries {
		for _, p := range n.crashed {
			out = append(out, sim.Decision{Proc: p, Recover: true})
		}
	}
	return out
}

func tracks(o sim.Object) bool {
	f, ok := o.(sim.Footprinted)
	return ok && f.Footprints()
}

// Walk enumerates t by running every prefix from the initial
// configuration with a fresh object and environment, and returns the
// node count and the tree digest.
func Walk(t Tree) (nodes int, digest uint64) {
	f := &folder{h: history.DigestSeed()}
	var visit func(prefix []sim.Decision, crashes, recovered int)
	visit = func(prefix []sim.Decision, crashes, recovered int) {
		obj := t.NewObject()
		res := sim.Run(sim.Config{
			Procs:            t.Procs,
			Object:           obj,
			Env:              t.NewEnv(),
			Scheduler:        sim.Fixed(prefix),
			Fingerprint:      true,
			RecoverQuiescent: t.Recoveries > 0,
		})
		if res.Err != nil {
			panic(fmt.Sprintf("simtest: %s: prefix %v: %v", t.Name, prefix, res.Err))
		}
		n := &node{
			schedule: res.Schedule, h: res.H, steps: res.Steps,
			tracked: tracks(obj), accesses: res.Accesses,
			idle: res.Idle, blocked: res.Blocked, crashed: res.Crashed,
			fp: res.Fingerprint, fpOK: res.Fingerprinted,
			crashes: crashes, recovered: recovered,
		}
		for p := 1; p <= t.Procs; p++ {
			if !in(p, res.Idle) && !in(p, res.Blocked) && !in(p, res.Crashed) {
				n.ready = append(n.ready, p)
			}
		}
		f.add(n)
		for _, d := range t.children(n) {
			c, r := crashes, recovered
			if d.Crash {
				c++
			}
			if d.Recover {
				r++
			}
			visit(append(prefix[:len(prefix):len(prefix)], d), c, r)
		}
	}
	visit(nil, 0, 0)
	return f.nodes, f.h
}

// WalkSession enumerates t depth-first on one session, extending one
// decision per edge and restoring the parent's mark after each child,
// and returns the node count and the tree digest. The object must be
// sim.Snapshottable.
func WalkSession(t Tree) (nodes int, digest uint64, err error) {
	obj := t.NewObject()
	s, err := sim.NewSession(sim.SessionConfig{
		Procs: t.Procs, Object: obj, NewEnv: t.NewEnv, Fingerprint: true,
	})
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	f := &folder{h: history.DigestSeed()}
	var schedule []sim.Decision
	var accesses []sim.Access
	var visit func(crashes, recovered int) error
	visit = func(crashes, recovered int) error {
		v := s.View()
		n := &node{
			schedule: schedule, h: s.History(), steps: s.Steps(),
			tracked: tracks(obj), accesses: accesses,
			ready:   append([]int(nil), v.Ready...),
			idle:    append([]int(nil), v.Idle...),
			blocked: append([]int(nil), v.Blocked...),
			crashed: append([]int(nil), v.Crashed...),
			crashes: crashes, recovered: recovered,
		}
		n.fp, n.fpOK = s.Fingerprint()
		f.add(n)
		children := t.children(n)
		if len(children) == 0 {
			return nil
		}
		m := s.Mark()
		defer s.Release(m)
		for _, d := range children {
			info, err := s.Extend(d)
			if err != nil {
				return fmt.Errorf("prefix %v: %w", append(schedule, d), err)
			}
			schedule = append(schedule, d)
			accesses = append(accesses, info.Access)
			c, r := crashes, recovered
			if d.Crash {
				c++
			}
			if d.Recover {
				r++
			}
			if err := visit(c, r); err != nil {
				return err
			}
			schedule = schedule[:len(schedule)-1]
			accesses = accesses[:len(accesses)-1]
			if _, err := s.Restore(m); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(0, 0); err != nil {
		return 0, 0, err
	}
	return f.nodes, f.h, nil
}

func in(p int, xs []int) bool {
	for _, x := range xs {
		if x == p {
			return true
		}
	}
	return false
}

// Line renders one golden-file line.
func Line(t Tree, nodes int, digest uint64) string {
	return fmt.Sprintf("%s nodes=%d digest=%016x", t.Key(), nodes, digest)
}

// ReadGolden loads a golden file into a map from tree key to line.
func ReadGolden(tb testing.TB, path string) map[string]string {
	tb.Helper()
	file, err := os.Open(path)
	if err != nil {
		tb.Fatalf("golden trees: %v", err)
	}
	defer file.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.Index(line, " nodes=")
		if i < 0 {
			tb.Fatalf("golden trees: malformed line %q", line)
		}
		out[line[:i]] = line
	}
	if err := sc.Err(); err != nil {
		tb.Fatalf("golden trees: %v", err)
	}
	return out
}

// CheckGolden walks every tree and compares its line with the golden
// file at path; trees over snapshottable objects are walked a second
// time on a session and must match the same line. Every tree must have
// a line and every line a tree.
func CheckGolden(t *testing.T, path string, trees []Tree) {
	t.Helper()
	want := ReadGolden(t, path)
	seen := map[string]bool{}
	for _, tr := range trees {
		tr := tr
		seen[tr.Key()] = true
		t.Run(tr.Name, func(t *testing.T) {
			nodes, digest := Walk(tr)
			got := Line(tr, nodes, digest)
			w, ok := want[tr.Key()]
			if !ok {
				t.Errorf("no golden line for %q; computed:\n%s", tr.Key(), got)
				return
			}
			if got != w {
				t.Errorf("tree mismatch (sim.Run):\n got %s\nwant %s", got, w)
			}
			if !sim.CanSnapshot(tr.NewObject()) {
				return
			}
			nodes, digest, err := WalkSession(tr)
			if err != nil {
				t.Fatalf("session walk: %v", err)
			}
			if got := Line(tr, nodes, digest); got != w {
				t.Errorf("tree mismatch (session Mark/Restore):\n got %s\nwant %s", got, w)
			}
		})
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("golden line %q has no tree", k)
		}
	}
}
