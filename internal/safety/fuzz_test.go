package safety

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/history"
)

// Differential fuzz targets: the incremental monitors against their
// batch checkers on decoded histories, at every prefix and across a fork
// taken mid-history (crossCheck). The seed corpora under testdata/fuzz
// run with every `go test`; `go test -fuzz FuzzLinMonitorQueue` (or
// FuzzTMMonitor) explores further.

// fuzzMaxEvents bounds decoded histories, keeping the operation count
// below the checkers' 63-operation cap and the batch oracles fast.
const fuzzMaxEvents = 40

// queuePayloads are the fuzzed queue payloads: the old separator, the
// empty string, multi-byte text and a string shaped like the state
// encoding.
var queuePayloads = []string{"a", "b,c", "", "é", "1:x", "d"}

// queueHistory decodes data into a well-formed 8-process queue history
// with crashes and recoveries. Each byte drives one process, named by
// its low three bits, with the rest c as the choice: a crashed process
// recovers; c == 31 crashes the process; a process with an operation
// pending responds (enq with OK, deq with payload c%8, EmptyResp past
// the payloads); an idle process invokes enq of payload c (c < 16) or
// deq.
func queueHistory(data []byte) history.History {
	var op [9]string // per process: pending operation, "" when idle
	var crashed [9]bool
	var h history.History
	for _, b := range data {
		if len(h) == fuzzMaxEvents {
			break
		}
		p, c := 1+int(b&7), int(b>>3)
		switch {
		case crashed[p]:
			h = append(h, history.Recover(p))
			crashed[p] = false
		case c == 31:
			h = append(h, history.Crash(p))
			op[p], crashed[p] = "", true
		case op[p] == "enq":
			h = append(h, history.Response(p, "enq", history.OK))
			op[p] = ""
		case op[p] == "deq":
			var v history.Value = EmptyResp
			if c%8 < len(queuePayloads) {
				v = queuePayloads[c%8]
			}
			h = append(h, history.Response(p, "deq", v))
			op[p] = ""
		case c < 16:
			h = append(h, history.Invoke(p, "enq", queuePayloads[c%len(queuePayloads)]))
			op[p] = "enq"
		default:
			h = append(h, history.Invoke(p, "deq", nil))
			op[p] = "deq"
		}
	}
	return h
}

// FuzzLinMonitorQueue checks the plain and strict linearizability
// monitors over QueueSpec against Linearizable and StrictLinearizable.
func FuzzLinMonitorQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := queueHistory(data)
		if len(h) == 0 {
			return
		}
		spec := QueueSpec{}
		forkAt := int(data[0]) % len(h)
		crossCheck(t, "linearizability(queue)",
			func() Monitor { return NewLinMonitor(spec) },
			func(h history.History) bool { return Linearizable(spec, h) }, h, forkAt)
		crossCheck(t, "strict-linearizability(queue)",
			func() Monitor { return NewStrictLinMonitor(spec) },
			func(h history.History) bool { return StrictLinearizable(spec, h) }, h, forkAt)
	})
}

// tmHistory decodes data into a well-formed TM history over procs
// processes with crashes and recoveries. Each byte drives process
// 1+b%procs, with c = b/procs as the choice: a crashed process recovers
// and starts afresh; c%16 == 15 crashes the process; a pending
// operation responds (start ok, or abort when c%7 == 0; read abort when
// c%6 == 0, else value c%3; write ok, or abort when c%9 == 0; tryC
// commit or abort by c's parity); an idle process outside a transaction
// starts one, and inside reads, writes c%3 or invokes tryC, on variable
// x or y.
func tmHistory(data []byte, procs int) history.History {
	type pstate struct {
		pending, obj  string
		inTx, crashed bool
	}
	st := make([]pstate, procs+1)
	vars := []string{"x", "y"}
	var h history.History
	for _, b := range data {
		if len(h) == fuzzMaxEvents {
			break
		}
		p, c := 1+int(b)%procs, int(b)/procs
		s := &st[p]
		switch {
		case s.crashed:
			h = append(h, history.Recover(p))
			*s = pstate{}
		case c%16 == 15:
			h = append(h, history.Crash(p))
			s.crashed = true
		case s.pending != "":
			var v history.Value
			switch s.pending {
			case history.TMStart:
				v = history.OK
				if c%7 == 0 {
					v = history.Abort
				}
			case history.TMRead:
				v = c % 3
				if c%6 == 0 {
					v = history.Abort
				}
			case history.TMWrite:
				v = history.OK
				if c%9 == 0 {
					v = history.Abort
				}
			default:
				v = history.Commit
				if c%2 == 0 {
					v = history.Abort
				}
			}
			h = append(h, history.ResponseObj(p, s.pending, s.obj, v))
			if v == history.Abort || s.pending == history.TMTryC {
				s.inTx = false
			}
			s.pending, s.obj = "", ""
		case !s.inTx:
			h = append(h, history.Invoke(p, history.TMStart, nil))
			s.pending, s.inTx = history.TMStart, true
		default:
			v := vars[c&1]
			switch (c >> 1) % 3 {
			case 0:
				h = append(h, history.InvokeObj(p, history.TMRead, v, nil))
				s.pending, s.obj = history.TMRead, v
			case 1:
				h = append(h, history.InvokeObj(p, history.TMWrite, v, c%3))
				s.pending, s.obj = history.TMWrite, v
			default:
				h = append(h, history.Invoke(p, history.TMTryC, nil))
				s.pending = history.TMTryC
			}
		}
	}
	return h
}

// FuzzTMMonitor checks the incremental opacity, strict serializability
// and property S monitors against Opaque, StrictSerializability and
// PropertyS on 3-process TM histories (three processes let the Section
// 5.3 rule's groups form).
func FuzzTMMonitor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := tmHistory(data, 3)
		if len(h) == 0 {
			return
		}
		forkAt := int(data[0]) % len(h)
		crossCheck(t, "opacity", Opacity{}.Spawn, Opaque, h, forkAt)
		crossCheck(t, "strict-serializability", StrictSerializability{}.Spawn, StrictSerializability{}.Holds, h, forkAt)
		crossCheck(t, "property S", PropertyS{}.Spawn, PropertyS{}.Holds, h, forkAt)
	})
}

// readCorpus returns the inputs of a native fuzz seed corpus (files in
// the "go test fuzz v1" format holding one []byte).
func readCorpus(t *testing.T, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus for %s: %v", target, err)
	}
	var out [][]byte
	for _, name := range files {
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestFuzzQueueCorpusPassesSpillThreshold pins what the queue corpus
// covers: some seed drives both monitors past 32 live configurations
// (the size at which the retired seen set spilled from its inline array
// into a map), with crashes in the history.
func TestFuzzQueueCorpusPassesSpillThreshold(t *testing.T) {
	for _, strict := range []bool{false, true} {
		most, crashes := 0, false
		for _, data := range readCorpus(t, "FuzzLinMonitorQueue") {
			h := queueHistory(data)
			m := NewLinMonitor(QueueSpec{})
			m.strict = strict
			for _, e := range h {
				m.Step(e)
				most = max(most, len(m.configs))
				crashes = crashes || e.Kind == history.KindCrash
			}
		}
		if most <= 32 || !crashes {
			t.Errorf("strict=%v: corpus peaks at %d live configurations (crashes: %v), want > 32 with crashes", strict, most, crashes)
		}
	}
}

// TestFuzzTMCorpusCoversOutcomes pins that the TM corpus holds both
// opaque histories and violations of each property, with crashes.
func TestFuzzTMCorpusCoversOutcomes(t *testing.T) {
	seen := map[string]bool{}
	for _, data := range readCorpus(t, "FuzzTMMonitor") {
		h := tmHistory(data, 3)
		seen["opaque"] = seen["opaque"] || Opaque(h)
		seen["not opaque"] = seen["not opaque"] || !Opaque(h)
		seen["not strict"] = seen["not strict"] || !(StrictSerializability{}).Holds(h)
		seen["rule broken"] = seen["rule broken"] || (Opaque(h) && !(PropertyS{}).RuleOnly(h))
		for _, e := range h {
			seen["crash"] = seen["crash"] || e.Kind == history.KindCrash
		}
	}
	for _, k := range []string{"opaque", "not opaque", "not strict", "rule broken", "crash"} {
		if !seen[k] {
			t.Errorf("TM corpus has no %q history", k)
		}
	}
}
