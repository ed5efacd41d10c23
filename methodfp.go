package dexlego

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// Method fingerprints are the identity half of the incremental reveal: a
// method whose fingerprint is unchanged between two versions of an app is
// guaranteed to collect the same trees, so its cached collection tree can be
// spliced instead of re-executed. The fingerprint is built from two parts:
//
//   - the method's canonical code-item bytes: access flags, register shape,
//     try/handler table, and every decoded instruction with its constant-pool
//     operands resolved to symbolic form (string value, type descriptor,
//     field key, method key) so that pool-index shifts between versions do
//     not invalidate untouched methods;
//   - the fingerprints of its resolved callees, folded in bottom-up over the
//     call graph. Direct, static and super invokes contribute their exact
//     target; virtual and interface invokes over-approximate to every app
//     method with the same name and signature (any override could be the
//     runtime target); a const-string naming an app method adds edges to all
//     methods of that name (the reflection heuristic, matching the paper's
//     Method.invoke rewriting).
//
// Call-graph cycles are handled by Tarjan SCC condensation: every member of
// a strongly connected component folds in one shared component digest (built
// from the sorted member body-hashes and the sorted fingerprints of
// successor components), so a change anywhere in a cycle invalidates the
// whole cycle and the computation stays well-founded.

// methodFPVersion versions the fingerprint encoding; bumping it invalidates
// every method-cache entry, which is the correct failure mode for any change
// to the scheme below.
const methodFPVersion = "methodfp/v1"

// MethodFingerprints computes the fingerprint of every bytecode method in f,
// keyed by the collector's canonical method key (Lcls;->name(sig)). Methods
// without code (native, abstract) carry no collection trees and are omitted.
func MethodFingerprints(f *dex.File) map[string]string {
	g := buildMethodGraph(f)
	g.condense()
	fps := make(map[string]string, len(g.nodes))
	for _, comp := range g.sccs {
		digest := g.componentDigest(comp)
		for _, ni := range comp {
			n := g.nodes[ni]
			h := sha256.New()
			fmt.Fprintf(h, "%s|method|%s|%s", methodFPVersion, n.local, digest)
			fps[n.key] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return fps
}

// fpNode is one bytecode method in the call graph.
type fpNode struct {
	key   string
	local string // hex body hash (code-item bytes, no callee influence)
	succs []int  // edges to possibly-called app methods

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	scc            int
}

type fpGraph struct {
	nodes  []*fpNode
	byKey  map[string]int
	sccs   [][]int  // condensation, emitted callees-first (reverse topological)
	sccFPs []string // digest per SCC, parallel to sccs
}

// buildMethodGraph hashes every method body and resolves the call edges.
func buildMethodGraph(f *dex.File) *fpGraph {
	g := &fpGraph{byKey: make(map[string]int)}
	// byNameSig and byName power the virtual/interface and reflection
	// over-approximations; they must only be built over app methods.
	byNameSig := make(map[string][]int)
	byName := make(map[string][]int)
	type pending struct {
		node  int
		em    *dex.EncodedMethod
		insts []bytecode.DecodedInst // nil for an undecodable body
	}
	var work []pending
	for ci := range f.Classes {
		cls := &f.Classes[ci]
		for mi := range cls.NumMethods() {
			em := cls.Method(mi)
			if em.Code == nil {
				continue
			}
			ref := f.MethodAt(em.Method)
			n := &fpNode{key: ref.Key()}
			prog := bytecode.Read(em.Code.Insns)
			n.local = localBodyHash(f, em, prog)
			var insts []bytecode.DecodedInst
			if prog.Err() == nil {
				insts = prog.Insts()
			}
			g.byKey[n.key] = len(g.nodes)
			byNameSig[ref.Name+ref.Signature] = append(byNameSig[ref.Name+ref.Signature], len(g.nodes))
			byName[ref.Name] = append(byName[ref.Name], len(g.nodes))
			g.nodes = append(g.nodes, n)
			work = append(work, pending{node: len(g.nodes) - 1, em: em, insts: insts})
		}
	}
	for _, p := range work {
		n := g.nodes[p.node]
		seen := make(map[int]bool)
		addEdge := func(to int) {
			if !seen[to] {
				seen[to] = true
				n.succs = append(n.succs, to)
			}
		}
		for i := range p.insts {
			in := &p.insts[i]
			switch {
			case in.Op.IsInvoke():
				ref := f.MethodAt(in.Index)
				switch in.Op {
				case bytecode.OpInvokeVirtual, bytecode.OpInvokeInterface,
					bytecode.OpInvokeVirtualR, bytecode.OpInvokeInterR:
					for _, to := range byNameSig[ref.Name+ref.Signature] {
						addEdge(to)
					}
				default: // direct, static, super: the target is exact
					if to, ok := g.byKey[ref.Key()]; ok {
						addEdge(to)
					}
				}
			case in.Op.Index() == bytecode.IndexString:
				// Reflection heuristic: a string equal to an app method name
				// may reach it through Method.invoke.
				for _, to := range byName[f.String(in.Index)] {
					addEdge(to)
				}
			}
		}
		sort.Ints(n.succs)
	}
	return g
}

// localBodyHash hashes one method's canonical code-item bytes: everything
// about the body except constant-pool index values, which are replaced by
// the symbols they resolve to.
func localBodyHash(f *dex.File, em *dex.EncodedMethod, prog *bytecode.Program) string {
	ref := f.MethodAt(em.Method)
	h := sha256.New()
	fmt.Fprintf(h, "%s|body|%s|%#x|%d,%d,%d", methodFPVersion, ref.Key(),
		em.AccessFlags, em.Code.RegistersSize, em.Code.InsSize, em.Code.OutsSize)
	for _, try := range em.Code.Tries {
		fmt.Fprintf(h, "|try:%d+%d", try.Start, try.Count)
		for _, ta := range try.Handlers {
			fmt.Fprintf(h, ";%s@%d", f.TypeName(ta.Type), ta.Addr)
		}
		fmt.Fprintf(h, ";all@%d", try.CatchAll)
	}
	if decodeErr := prog.Err(); decodeErr != nil {
		// An undecodable body (junk units awaiting runtime rewriting) falls
		// back to the raw code units: still deterministic, never spliced
		// wrongly, merely without index canonicalization.
		fmt.Fprintf(h, "|raw:%v|", decodeErr)
		for _, u := range em.Code.Insns {
			fmt.Fprintf(h, "%04x", u)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	insts := prog.Insts()
	for i := range insts {
		in := &insts[i]
		fmt.Fprintf(h, "|%d:%s:%d,%d,%d:%d:%d", in.PC, in.Op.String(), in.A, in.B, in.C, in.Lit, in.Off)
		if len(in.Args) > 0 {
			fmt.Fprintf(h, ":a%v", in.Args)
		}
		if len(in.Keys) > 0 || len(in.Targets) > 0 {
			fmt.Fprintf(h, ":k%v:t%v", in.Keys, in.Targets)
		}
		switch in.Op.Index() {
		case bytecode.IndexString:
			fmt.Fprintf(h, ":s%q", f.String(in.Index))
		case bytecode.IndexType:
			fmt.Fprintf(h, ":y%s", f.TypeName(in.Index))
		case bytecode.IndexField:
			fr := f.FieldAt(in.Index)
			fmt.Fprintf(h, ":f%s->%s:%s", fr.Class, fr.Name, fr.Type)
		case bytecode.IndexMethod:
			fmt.Fprintf(h, ":m%s", f.MethodAt(in.Index).Key())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// condense runs Tarjan's algorithm. SCCs land in g.sccs in the order Tarjan
// completes them, which is reverse topological: every successor component of
// an SCC is emitted before it, so componentDigest can look successor digests
// up as it goes.
func (g *fpGraph) condense() {
	next := 1
	var stack []int
	var strongconnect func(v int)
	strongconnect = func(v int) {
		n := g.nodes[v]
		n.index, n.lowlink = next, next
		next++
		stack = append(stack, v)
		n.onStack = true
		for _, w := range n.succs {
			m := g.nodes[w]
			if m.index == 0 {
				strongconnect(w)
				n.lowlink = min(n.lowlink, m.lowlink)
			} else if m.onStack {
				n.lowlink = min(n.lowlink, m.index)
			}
		}
		if n.lowlink == n.index {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				g.nodes[w].onStack = false
				g.nodes[w].scc = len(g.sccs)
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			g.sccs = append(g.sccs, comp)
		}
	}
	for v := range g.nodes {
		if g.nodes[v].index == 0 {
			strongconnect(v)
		}
	}
	g.sccFPs = make([]string, len(g.sccs))
}

// componentDigest folds one SCC: sorted member body hashes plus the sorted
// digests of all successor components. Must be called in g.sccs order.
func (g *fpGraph) componentDigest(comp []int) string {
	self := g.nodes[comp[0]].scc
	members := make([]string, 0, len(comp))
	succSet := make(map[string]bool)
	for _, ni := range comp {
		members = append(members, g.nodes[ni].local)
		for _, w := range g.nodes[ni].succs {
			if s := g.nodes[w].scc; s != self {
				succSet[g.sccFPs[s]] = true
			}
		}
	}
	sort.Strings(members)
	succs := make([]string, 0, len(succSet))
	for s := range succSet {
		succs = append(succs, s)
	}
	sort.Strings(succs)
	h := sha256.New()
	fmt.Fprintf(h, "%s|scc|%s|%s", methodFPVersion,
		strings.Join(members, ","), strings.Join(succs, ","))
	d := hex.EncodeToString(h.Sum(nil))
	g.sccFPs[self] = d
	return d
}
