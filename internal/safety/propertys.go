package safety

import "repro/internal/history"

// PropertyS is the Section 5.3 safety property: opacity plus the rule that
// for any three or more pairwise-concurrent transactions T1,T2,T3,...
// executed by distinct processes, all being the t-th transaction of their
// process for a common t, if each Ti invokes tryC after at least two other
// transactions of the group received a response for start, then none of
// them may commit ("such transactions should be aborted").
//
// The commit of any member of such a group is the irrevocable bad event,
// which makes the rule prefix-closed; together with opacity the property
// satisfies Definition 3.1.
type PropertyS struct{}

// Name implements Property.
func (PropertyS) Name() string { return "S(opacity+timestamp-abort)" }

// Holds implements Property.
func (PropertyS) Holds(h history.History) bool {
	if !Opaque(h) {
		return false
	}
	return timestampRuleHolds(h)
}

// RuleOnly checks just the timestamp-abort rule (used by tests to isolate
// it from opacity).
func (PropertyS) RuleOnly(h history.History) bool { return timestampRuleHolds(h) }

type sInfo struct {
	tx       *history.Tx
	startRes int // history index of the start response, -1 if none
	tryCInv  int // history index of the tryC invocation, -1 if none
}

func timestampRuleHolds(h history.History) bool { return ruleHolds(txRecords(h)) }

// ruleHolds checks the timestamp-abort rule over transaction records.
// Transactions are grouped by per-process sequence number t; within a
// group there is at most one transaction per process.
func ruleHolds(recs []txRecord) bool {
	var members []int
	for i := range recs {
		seq := recs[i].seq
		dup := false
		for j := 0; j < i; j++ {
			if recs[j].seq == seq {
				dup = true // group already checked at its first member
				break
			}
		}
		if dup {
			continue
		}
		members = members[:0]
		for j := i; j < len(recs); j++ {
			if recs[j].seq == seq {
				members = append(members, j)
			}
		}
		if len(members) >= 3 && !sGroupsOK(recs, members) {
			return false
		}
	}
	return true
}

// sGroupsOK enumerates subsets of size >= 3 of one same-t group and checks
// the abort rule on each qualifying subset.
func sGroupsOK(recs []txRecord, members []int) bool {
	n := len(members)
	for mask := uint(0); mask < 1<<uint(n); mask++ {
		var sel []*txRecord
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sel = append(sel, &recs[members[i]])
			}
		}
		if len(sel) < 3 {
			continue
		}
		if !subsetQualifies(sel) {
			continue
		}
		for _, in := range sel {
			if in.status == history.TxCommitted {
				return false
			}
		}
	}
	return true
}

// concurrent reports whether two transactions overlap in real time:
// neither completes before the other starts (history.Concurrent).
func concurrent(a, b *txRecord) bool {
	if a.completed() && a.last < b.first {
		return false
	}
	return !(b.completed() && b.last < a.first)
}

// subsetQualifies reports whether the Section 5.3 conditions hold for the
// subset: pairwise concurrent, and each member invokes tryC after at least
// two other members received their start response.
func subsetQualifies(sel []*txRecord) bool {
	for i := range sel {
		for j := i + 1; j < len(sel); j++ {
			if !concurrent(sel[i], sel[j]) {
				return false
			}
		}
	}
	for i, in := range sel {
		if in.tryCInv < 0 {
			return false
		}
		others := 0
		for j, other := range sel {
			if j == i || other.startRes < 0 {
				continue
			}
			if other.startRes < in.tryCInv {
				others++
			}
		}
		if others < 2 {
			return false
		}
	}
	return true
}
