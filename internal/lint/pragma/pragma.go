// Package pragma parses the //slx: exemption comments through which
// code opts out of one of slxvet's soundness contracts. The grammar is
// deliberately pragma-shaped (no space after //, like //go: directives)
// so an exemption is always a conscious annotation, never prose that
// happens to contain a keyword:
//
//	//slx:<directive>[ <reason>]
//
// The directives, each honored by exactly one analyzer:
//
//	//slx:nofootprint    hookparity: the object deliberately opts out
//	                     of footprint tracking (POR treats every step
//	                     as conflicting).
//	//slx:nofingerprint  hookparity: the object's behavior depends on
//	                     pointer identity, which content fingerprints
//	                     cannot express.
//	//slx:nosnapshot     hookparity: the object cannot capture/restore
//	                     its shared state; exploration replays from the
//	                     root instead.
//	//slx:norecover      hookparity: the object holds no volatile state,
//	                     so crash–recovery exploration treats a recovery
//	                     as a bare process re-spawn (nothing to wipe, no
//	                     recovery routine to run).
//	//slx:rawdigest      canonenc: this declaration is the canonical
//	                     home of the raw FNV-1a primitives.
//	//slx:nondet         detorder: this line (or the next) reads
//	                     wall-clock time or iterates a map in an order
//	                     that provably cannot reach engine results.
//	//slx:nostepwindow   replaypure: this Begin-shaped method is not a
//	                     sim object's (or knowingly bends the window
//	                     contract) and is exempt from the invocation
//	                     window's no-access check.
//
// A reason is not enforced but every annotation in the tree carries
// one: the exemption is an assertion, and the reason is its proof
// sketch.
package pragma

import (
	"go/ast"
	"go/token"
	"strings"
)

// prefix is the comment marker shared by every directive.
const prefix = "//slx:"

// directive extracts the directive name from one comment line, or ""
// if the line is not a pragma.
func directive(comment string) string {
	if !strings.HasPrefix(comment, prefix) {
		return ""
	}
	rest := comment[len(prefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// Has reports whether the comment group (typically a declaration's doc
// comment) contains the named directive.
func Has(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directive(c.Text) == name {
			return true
		}
	}
	return false
}

// ExemptLines returns the set of source lines of file exempted by the
// named directive: the line of each pragma comment and the line after
// it, so both trailing (same-line) and preceding-line annotations work:
//
//	start := time.Now() //slx:nondet wall-clock metric
//
//	//slx:nondet wall-clock metric
//	start := time.Now()
func ExemptLines(fset *token.FileSet, file *ast.File, name string) map[int]bool {
	lines := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if directive(c.Text) != name {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}
