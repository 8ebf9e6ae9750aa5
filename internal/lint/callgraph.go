package lint

// Call-graph reachability over the facts layer. Edges are the
// statically resolved calls in each summary; dynamic calls (interface
// methods, func values) do not extend reachability — the analyzers
// that walk the graph surface those sites as "cannot prove"
// diagnostics instead, which keeps the propagation sound without a
// whole-program points-to analysis (see DESIGN.md §15).

import (
	"go/token"
	"path/filepath"
	"strings"
)

// ChainLink is one hop of a call chain, pre-rendered for diagnostics
// and JSON output.
type ChainLink struct {
	Func string // e.g. "(*pcie.Fabric).DMA" or "func literal"
	File string // repo-relative when possible
	Line int
}

func (l ChainLink) String() string {
	if l.File == "" {
		return l.Func
	}
	return l.Func
}

// reach is a breadth-first reachability set rooted at one or more
// summaries, with parent edges for shortest-chain reconstruction.
type reach struct {
	facts  *Facts
	order  []*FuncFacts // BFS visit order (roots first)
	parent map[*FuncFacts]*FuncFacts
	site   map[*FuncFacts]token.Pos // call site in parent that first reached it
	seen   map[*FuncFacts]bool
}

// newReach starts an empty reachability set.
func (f *Facts) newReach() *reach {
	return &reach{
		facts:  f,
		parent: map[*FuncFacts]*FuncFacts{},
		site:   map[*FuncFacts]token.Pos{},
		seen:   map[*FuncFacts]bool{},
	}
}

// addRoot seeds the BFS with a root summary.
func (r *reach) addRoot(root *FuncFacts) {
	if root == nil || r.seen[root] {
		return
	}
	r.seen[root] = true
	r.order = append(r.order, root)
}

// grow runs the BFS to a fixed point over static call edges. visit,
// if non-nil, is invoked on every newly reached summary and may seed
// further roots (e.g. callback registrations) via addRoot.
func (r *reach) grow(visit func(*FuncFacts)) {
	for i := 0; i < len(r.order); i++ {
		ff := r.order[i]
		if visit != nil {
			visit(ff)
		}
		for _, cs := range ff.Calls {
			callee := r.facts.Lookup(cs.Callee)
			if callee == nil || r.seen[callee] {
				continue
			}
			r.seen[callee] = true
			r.parent[callee] = ff
			r.site[callee] = cs.Pos
			r.order = append(r.order, callee)
		}
	}
}

// chain reconstructs the root → … → ff call chain.
func (r *reach) chain(ff *FuncFacts) []ChainLink {
	var rev []*FuncFacts
	for cur := ff; cur != nil; cur = r.parent[cur] {
		rev = append(rev, cur)
	}
	links := make([]ChainLink, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		cur := rev[i]
		link := ChainLink{Func: cur.Name()}
		var pos token.Pos
		if cur.Decl != nil {
			pos = cur.Decl.Pos()
		} else if cur.Lit != nil {
			pos = cur.Lit.Pos()
		}
		if pos.IsValid() && r.facts.Fset != nil {
			p := r.facts.Fset.Position(pos)
			link.File = relFile(p.Filename)
			link.Line = p.Line
		}
		links = append(links, link)
	}
	return links
}

// chainString renders a chain as "A → B → C" for one-line messages.
func chainString(links []ChainLink) string {
	parts := make([]string, len(links))
	for i, l := range links {
		parts[i] = l.Func
	}
	return strings.Join(parts, " → ")
}

// relFile trims an absolute filename down to something stable for
// diagnostics: the path below the deepest "internal", "cmd", or
// "testdata" segment when present, else the base name.
func relFile(name string) string {
	clean := filepath.ToSlash(name)
	for _, marker := range []string{"/internal/", "/cmd/", "/examples/", "/testdata/"} {
		if i := strings.LastIndex(clean, marker); i >= 0 {
			return clean[i+1:]
		}
	}
	return filepath.Base(clean)
}
