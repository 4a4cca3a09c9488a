package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// ROAM009 lockorder: the module-wide mutex acquisition graph must be
// acyclic. Two code paths that take the same pair of locks in opposite
// orders deadlock the first time they interleave — and in this repo
// that interleaving is exactly what the chaos/reshard suites provoke
// (gateway Pause vs upload-path compaction, WAL reader fences vs
// writer state). The race detector cannot see a lock-order inversion
// that did not happen in a given run; this analyzer proves the
// absence class instead.
//
// The graph is built module-wide, one node per mutex IDENTITY — a
// named struct's mutex field (walsink.Sink.mu), or a package-level
// mutex variable — not per instance. Edges come from three sources:
//
//   - direct flow: within one function, acquiring B at a point where
//     the CFG's may-held analysis says A is held adds A → B. Unlock
//     kills held-ness; a deferred Unlock does not (the lock is held to
//     function exit).
//   - call summaries: holding A while calling a module-local function
//     whose summary says it may acquire B adds A → B. Summaries are
//     transitive fixed points over the module call graph; go
//     statements are excluded (a spawned goroutine's locks are not
//     taken while the caller blocks).
//   - guarded-by annotations: a *Locked function (ROAM005's convention
//     for "caller holds the lock") is analyzed with the guards of
//     every annotated field it touches pre-seeded as held, so the
//     order "caller's lock, then whatever *Locked acquires" is edges
//     too.
//
// Cycles are reported once per strongly connected component, with the
// full witness chain (each edge's function and position). Self-edges
// are skipped by design: two INSTANCES of the same type locking each
// other (hand-over-hand traversal, shard A forwarding to shard B) is
// an instance-ordering discipline this type-level graph cannot judge.
var lockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Code: "ROAM009",
	// RunModule is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { lockorderAnalyzer.RunModule = runLockorder }

const factHeldPrefix = "held:"

// lockWitness records where one acquisition edge was observed.
type lockWitness struct {
	pkg *Package
	fn  string
	pos token.Pos
}

type lockGraph struct {
	// edges[from][to] = first witness observed (deterministic: package,
	// file, declaration order).
	edges map[string]map[string]lockWitness
}

func (g *lockGraph) add(from, to string, w lockWitness) {
	if from == to {
		return // instance ordering, not type ordering — see doc comment
	}
	if g.edges[from] == nil {
		g.edges[from] = map[string]lockWitness{}
	}
	if _, ok := g.edges[from][to]; !ok {
		g.edges[from][to] = w
	}
}

func runLockorder(pkgs []*Package) []Diagnostic {
	return reportLockCycles(buildLockGraph(pkgs))
}

// buildLockGraph collects the acquisition edges of every function in
// pkgs, in package, file and declaration order.
func buildLockGraph(pkgs []*Package) *lockGraph {
	summaries := summarize(funcDecls(pkgs...), func(d funcDecl) (ids []string) {
		walkNoGo(d.fd.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, _, kind := mutexCall(d.p, call); kind == lockAcquire {
					ids = append(ids, id)
				}
			}
		})
		return ids
	})
	graph := &lockGraph{edges: map[string]map[string]lockWitness{}}
	for _, p := range pkgs {
		guarded := collectGuardedFields(p)
		for _, d := range funcDecls(p) {
			collectLockEdges(p, d.fd, guarded, summaries, graph)
		}
	}
	return graph
}

// collectLockEdges runs the may-held analysis over fd and feeds every
// observed acquisition-while-holding into the graph.
func collectLockEdges(p *Package, fd *ast.FuncDecl, guarded map[*types.Var]string,
	summaries summary, graph *lockGraph) {

	seed := lockedSeed(p, fd, guarded)
	hasLocks := len(seed) > 0
	inspectShallow(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, kind := mutexCall(p, call); kind != lockNone {
				hasLocks = true
			}
			if len(summaries.of(p, call)) > 0 {
				hasLocks = true
			}
		}
		return true
	})
	if !hasLocks {
		return
	}

	g := buildCFG(fd.Body)
	held := g.solve(true, false, func(n ast.Node, in facts) facts {
		for f := range seed {
			in[f] = true
		}
		lockTransfer(p, n, in, nil, nil)
		return in
	})

	// Final pass: emit edges with the pre-node held set (plus the
	// annotation seed), replaying the within-node acquisition order.
	// Nodes are visited in source order so the first witness recorded
	// for an edge is deterministic.
	emit := func(from, to string, pos token.Pos) {
		graph.add(from, to, lockWitness{pkg: p, fn: fd.Name.Name, pos: pos})
	}
	nodes := make([]ast.Node, 0, len(held))
	for n := range held {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
	for _, n := range nodes {
		hf := held[n].clone()
		for s := range seed {
			hf[s] = true
		}
		lockTransfer(p, n, hf, summaries, emit)
	}
}

// lockTransfer simulates one flow node's effect on the held set. With
// emit non-nil it also reports acquisition edges: held → acquired for
// direct Lock/RLock, held → callee summary for module-local calls.
func lockTransfer(p *Package, n ast.Node, held facts,
	summaries summary, emit func(from, to string, pos token.Pos)) {

	if _, ok := n.(*ast.DeferStmt); ok {
		// A deferred Unlock keeps the lock held through the function
		// body; a deferred Lock (weird) is ignored rather than modeled.
		return
	}
	if _, ok := n.(*ast.GoStmt); ok {
		// The spawned call runs concurrently, not while the caller
		// blocks holding its locks.
		return
	}
	inspectShallow(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.DeferStmt); ok {
			return false
		}
		if _, ok := m.(*ast.GoStmt); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, pos, kind := mutexCall(p, call)
		switch kind {
		case lockAcquire:
			if emit != nil {
				for f := range held {
					if from, ok := strings.CutPrefix(f, factHeldPrefix); ok {
						emit(from, id, pos)
					}
				}
			}
			held[factHeldPrefix+id] = true
			return true
		case lockRelease:
			delete(held, factHeldPrefix+id)
			return true
		}
		if emit != nil {
			for to := range summaries.of(p, call) {
				for f := range held {
					if from, ok := strings.CutPrefix(f, factHeldPrefix); ok {
						emit(from, to, call.Pos())
					}
				}
			}
		}
		return true
	})
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// mutexCall classifies call as a sync.Mutex/RWMutex Lock/RLock (or
// Unlock/RUnlock) on a nameable mutex identity. Locks on local
// variables have no cross-function identity and return lockNone.
func mutexCall(p *Package, call *ast.CallExpr) (id string, pos token.Pos, kind lockKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, lockNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", 0, lockNone
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, lockNone
	}
	id = mutexIdent(p, sel.X)
	if id == "" {
		return "", 0, lockNone
	}
	return id, sel.Pos(), kind
}

// mutexIdent names the mutex expression e with a module-wide identity:
// "pkg.Type.field" for a struct's mutex field, "pkg.var" for a
// package-level mutex variable, "" for anything without a stable
// identity (locals, complex expressions).
func mutexIdent(p *Package, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		selInfo := p.Info.Selections[e]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return ""
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok {
			return ""
		}
		return fieldMutexID(selInfo.Recv(), field)
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		// Only package-level variables have a module-wide identity.
		if v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return v.Pkg().Name() + "." + v.Name()
	}
	return ""
}

// fieldMutexID names a mutex field by its owning named type.
func fieldMutexID(recv types.Type, field *types.Var) string {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name() + "." + field.Name()
}

// lockedSeed pre-seeds the held set of a *Locked function with the
// guards of the annotated fields it touches: the documented contract
// is that the caller already holds them.
func lockedSeed(p *Package, fd *ast.FuncDecl, guarded map[*types.Var]string) facts {
	seed := facts{}
	if !strings.HasSuffix(fd.Name.Name, "Locked") || len(guarded) == 0 {
		return seed
	}
	inspectShallow(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selInfo := p.Info.Selections[sel]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return true
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok {
			return true
		}
		guardPath, isGuarded := guarded[field]
		if !isGuarded {
			return true
		}
		if id := resolveGuardPath(selInfo.Recv(), guardPath); id != "" {
			seed[factHeldPrefix+id] = true
		}
		return true
	})
	return seed
}

// resolveGuardPath walks a "mu" or "v.mu" guard annotation from the
// guarded field's owner type to the mutex field it names.
func resolveGuardPath(recv types.Type, path string) string {
	parts := strings.Split(path, ".")
	cur := recv
	for i, part := range parts {
		if ptr, ok := cur.Underlying().(*types.Pointer); ok {
			cur = ptr.Elem()
		}
		if ptr, ok := cur.(*types.Pointer); ok {
			cur = ptr.Elem()
		}
		st, ok := cur.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		var field *types.Var
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == part {
				field = st.Field(j)
				break
			}
		}
		if field == nil {
			return ""
		}
		if i == len(parts)-1 {
			return fieldMutexID(cur, field)
		}
		cur = field.Type()
	}
	return ""
}

// reportLockCycles reports one diagnostic per cyclic strongly connected
// component of the acquisition graph, carrying the full witness chain
// of its shortest cycle through the component's first node. One BFS per
// node (successors in sorted order) gives both that node's reachable
// set — u and v share a component exactly when each reaches the other —
// and its shortest way back to itself.
func reportLockCycles(g *lockGraph) []Diagnostic {
	all := map[string]bool{}
	for from, tos := range g.edges {
		all[from] = true
		for to := range tos {
			all[to] = true
		}
	}
	nodes := sortedKeys(all)
	reach := map[string]map[string]bool{}
	cycle := map[string][]string{}
	for _, n := range nodes {
		reach[n], cycle[n] = bfsCycle(g, n)
	}

	var out []Diagnostic
	reported := map[string]bool{}
	for _, v := range nodes {
		if reported[v] || cycle[v] == nil {
			continue
		}
		for u := range reach[v] {
			if reach[u][v] {
				reported[u] = true
			}
		}
		out = append(out, lockCycleDiag(g, cycle[v]))
	}
	return out
}

// bfsCycle walks the graph breadth-first from start, successors in
// sorted order, and returns every node it reaches and the shortest
// cycle back to start (start first, closing edge implied; nil if none).
func bfsCycle(g *lockGraph, start string) (map[string]bool, []string) {
	reach := map[string]bool{}
	parent := map[string]string{}
	var cycle []string
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for _, to := range sortedKeys(g.edges[cur]) {
			if to == start && cycle == nil {
				for n := cur; n != start; n = parent[n] {
					cycle = append(cycle, n)
				}
				cycle = append(cycle, start)
				slices.Reverse(cycle)
			}
			if !reach[to] {
				reach[to] = true
				parent[to] = cur
				queue = append(queue, to)
			}
		}
	}
	return reach, cycle
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockCycleDiag renders one cycle, positioned at its first edge.
func lockCycleDiag(g *lockGraph, cycle []string) Diagnostic {
	var chain []string
	for i, from := range cycle {
		to := cycle[(i+1)%len(cycle)]
		w := g.edges[from][to]
		pos := w.pkg.Fset.Position(w.pos)
		chain = append(chain, fmt.Sprintf("%s → %s (%s at %s:%d)",
			from, to, w.fn, shortPath(pos.Filename), pos.Line))
	}
	first := g.edges[cycle[0]][cycle[1]]
	pos := first.pkg.Fset.Position(first.pos)
	return Diagnostic{
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Code:     lockorderAnalyzer.Code,
		Analyzer: lockorderAnalyzer.Name,
		Message:  "lock-order cycle (potential deadlock): " + strings.Join(chain, ", "),
	}
}

func shortPath(filename string) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		if j := strings.LastIndexByte(filename[:i], '/'); j >= 0 {
			return filename[j+1:]
		}
	}
	return filename
}
