package reassembler

import (
	"sort"

	"dexlego/internal/collector"
)

// mergeCompatibleTrees unions collection trees that are consistent with one
// another: executions that merely covered different branches of the same
// underlying code (every shared dex_pc holds the identical instruction, and
// self-modification layers fork at the same points with identical content)
// collapse into a single tree. Only genuinely conflicting trees — different
// bytecode at the same dex_pc, i.e. cross-execution self-modification —
// remain separate and become method variants.
//
// The pass is single-pass over the input. A record's trees are already
// unique by fingerprint (the collector and Result.Merge dedup on it), so
// no exact-duplicate check is made here. Merge candidates are bucketed by
// root SmStart — the first thing compatible() checks — so each tree
// compares only against the few survivors it could possibly union with.
// Survivors are copy-on-write: a tree is cloned only when another tree
// actually merges into it, so the dominant single-tree method pays nothing
// and callers must treat the returned trees as read-only.
func mergeCompatibleTrees(trees []*collector.TreeNode) []*collector.TreeNode {
	if len(trees) <= 1 {
		return trees
	}
	out := make([]*collector.TreeNode, 0, len(trees))
	owned := make([]bool, len(trees))
	byStart := make(map[int][]int, len(trees))
	for _, t := range trees {
		merged := false
		for _, oi := range byStart[t.SmStart] {
			if compatible(out[oi], t) {
				if !owned[oi] {
					out[oi] = cloneTree(out[oi], nil)
					owned[oi] = true
				}
				union(out[oi], t)
				merged = true
				break
			}
		}
		if !merged {
			byStart[t.SmStart] = append(byStart[t.SmStart], len(out))
			out = append(out, t)
		}
	}
	return out
}

// compatible reports whether b can be unioned into a without conflicts.
func compatible(a, b *collector.TreeNode) bool {
	if a.SmStart != b.SmStart {
		return false
	}
	for i := range b.IL {
		if ai, ok := a.Index(b.IL[i].DexPC); ok && !a.IL[ai].Inst.Equal(b.IL[i].Inst) {
			return false
		}
	}
	// Children pair by SmStart; a child present in both must be compatible.
	for _, bc := range b.Children {
		for _, ac := range a.Children {
			if ac.SmStart == bc.SmStart && !compatible(ac, bc) {
				return false
			}
		}
	}
	return true
}

// union merges b's entries and children into a (which must be compatible
// and owned by the caller; b is never mutated).
func union(a, b *collector.TreeNode) {
	for _, e := range b.IL {
		if _, ok := a.Index(e.DexPC); !ok {
			a.Push(e)
		}
	}
	if a.SmEnd < 0 {
		a.SmEnd = b.SmEnd
	}
	for _, bc := range b.Children {
		var match *collector.TreeNode
		for _, ac := range a.Children {
			if ac.SmStart == bc.SmStart && compatible(ac, bc) {
				match = ac
				break
			}
		}
		if match != nil {
			union(match, bc)
			continue
		}
		a.Children = append(a.Children, cloneTree(bc, a))
	}
	sort.Slice(a.Children, func(i, j int) bool {
		return a.Children[i].SmStart < a.Children[j].SmStart
	})
}

func cloneTree(n *collector.TreeNode, parent *collector.TreeNode) *collector.TreeNode {
	out := &collector.TreeNode{
		IL:      make([]collector.Entry, 0, len(n.IL)),
		SmStart: n.SmStart,
		SmEnd:   n.SmEnd,
		Parent:  parent,
	}
	for _, e := range n.IL {
		out.Push(e)
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, cloneTree(c, out))
	}
	return out
}
