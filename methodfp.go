package dexlego

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

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
			b := append(g.buf[:0], methodFPVersion+"|method|"...)
			b = append(b, n.local...)
			b = append(b, '|')
			g.buf = append(b, digest...)
			fps[n.key] = hexDigest(g.buf)
		}
	}
	return fps
}

// hexDigest returns the hex SHA-256 of b.
func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
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

	// buf is the one scratch buffer every digest's text is appended into.
	// The text is byte for byte what the methodfp/v1 encoding formats
	// (%#x, %d, %q, %v of a slice, %04x per code unit), built with strconv
	// instead of fmt.
	buf []byte
}

// nameSig is a method's name and signature: the virtual/interface
// over-approximation's key.
type nameSig struct{ name, sig string }

// buildMethodGraph hashes every method body and resolves the call edges.
func buildMethodGraph(f *dex.File) *fpGraph {
	g := &fpGraph{byKey: make(map[string]int)}
	// byNameSig and byName power the virtual/interface and reflection
	// over-approximations; they must only be built over app methods.
	byNameSig := make(map[nameSig][]int)
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
			n.local = g.localBodyHash(f, em, prog)
			var insts []bytecode.DecodedInst
			if prog.Err() == nil {
				insts = prog.Insts()
			}
			g.byKey[n.key] = len(g.nodes)
			ns := nameSig{ref.Name, ref.Signature}
			byNameSig[ns] = append(byNameSig[ns], len(g.nodes))
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
					for _, to := range byNameSig[nameSig{ref.Name, ref.Signature}] {
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
func (g *fpGraph) localBodyHash(f *dex.File, em *dex.EncodedMethod, prog *bytecode.Program) string {
	ref := f.MethodAt(em.Method)
	b := append(g.buf[:0], methodFPVersion+"|body|"...)
	b = appendMethodKey(b, ref)
	b = append(b, "|0x"...)
	b = strconv.AppendUint(b, uint64(em.AccessFlags), 16)
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(em.Code.RegistersSize), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(em.Code.InsSize), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(em.Code.OutsSize), 10)
	for _, try := range em.Code.Tries {
		b = append(b, "|try:"...)
		b = strconv.AppendUint(b, uint64(try.Start), 10)
		b = append(b, '+')
		b = strconv.AppendUint(b, uint64(try.Count), 10)
		for _, ta := range try.Handlers {
			b = append(b, ';')
			b = append(b, f.TypeName(ta.Type)...)
			b = append(b, '@')
			b = strconv.AppendUint(b, uint64(ta.Addr), 10)
		}
		b = append(b, ";all@"...)
		b = strconv.AppendInt(b, int64(try.CatchAll), 10)
	}
	if decodeErr := prog.Err(); decodeErr != nil {
		// An undecodable body (junk units awaiting runtime rewriting) falls
		// back to the raw code units: still deterministic, never spliced
		// wrongly, merely without index canonicalization.
		b = append(b, "|raw:"...)
		b = append(b, decodeErr.Error()...)
		b = append(b, '|')
		for _, u := range em.Code.Insns {
			b = append(b, hexDigits[u>>12], hexDigits[u>>8&0xf], hexDigits[u>>4&0xf], hexDigits[u&0xf])
		}
		g.buf = b
		return hexDigest(b)
	}
	insts := prog.Insts()
	for i := range insts {
		in := &insts[i]
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(in.PC), 10)
		b = append(b, ':')
		b = append(b, in.Op.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(in.A), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(in.B), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(in.C), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, in.Lit, 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(in.Off), 10)
		if len(in.Args) > 0 {
			b = appendInts(append(b, ":a"...), in.Args)
		}
		if len(in.Keys) > 0 || len(in.Targets) > 0 {
			b = appendInts(append(b, ":k"...), in.Keys)
			b = appendInts(append(b, ":t"...), in.Targets)
		}
		switch in.Op.Index() {
		case bytecode.IndexString:
			b = strconv.AppendQuote(append(b, ":s"...), f.String(in.Index))
		case bytecode.IndexType:
			b = append(append(b, ":y"...), f.TypeName(in.Index)...)
		case bytecode.IndexField:
			fr := f.FieldAt(in.Index)
			b = append(append(b, ":f"...), fr.Class...)
			b = append(append(b, "->"...), fr.Name...)
			b = append(append(b, ':'), fr.Type...)
		case bytecode.IndexMethod:
			b = appendMethodKey(append(b, ":m"...), f.MethodAt(in.Index))
		}
	}
	g.buf = b
	return hexDigest(b)
}

const hexDigits = "0123456789abcdef"

// appendMethodKey appends ref.Key() without building it.
func appendMethodKey(b []byte, ref dex.MethodRef) []byte {
	b = append(append(b, ref.Class...), "->"...)
	return append(append(b, ref.Name...), ref.Signature...)
}

// appendInts appends xs as %v formats it: [1 -2 3].
func appendInts[T int | int32](b []byte, xs []T) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
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
	b := append(g.buf[:0], methodFPVersion+"|scc|"...)
	b = appendJoined(b, members)
	b = append(b, '|')
	g.buf = appendJoined(b, succs)
	d := hexDigest(g.buf)
	g.sccFPs[self] = d
	return d
}

// appendJoined appends strings.Join(xs, ",").
func appendJoined(b []byte, xs []string) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, x...)
	}
	return b
}
