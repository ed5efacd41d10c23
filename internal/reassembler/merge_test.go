package reassembler

import (
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
)

func entry(pc int, op bytecode.Opcode, lit int64) collector.Entry {
	return collector.Entry{DexPC: pc, Inst: &bytecode.Inst{Op: op, Lit: lit}}
}

func tree(entries ...collector.Entry) *collector.TreeNode {
	n := &collector.TreeNode{SmStart: -1, SmEnd: -1}
	for _, e := range entries {
		n.Push(e)
	}
	return n
}

func TestMergeCompatibleTreesUnion(t *testing.T) {
	// Two executions covering different halves of the same code.
	a := tree(entry(0, bytecode.OpConst16, 1), entry(2, bytecode.OpConst16, 2))
	b := tree(entry(0, bytecode.OpConst16, 1), entry(4, bytecode.OpConst16, 3))
	merged := mergeCompatibleTrees([]*collector.TreeNode{a, b})
	if len(merged) != 1 {
		t.Fatalf("merged into %d trees, want 1", len(merged))
	}
	if got := merged[0].Size(); got != 3 {
		t.Errorf("union size = %d, want 3", got)
	}
	for _, pc := range []int{0, 2, 4} {
		if _, ok := merged[0].Index(pc); !ok {
			t.Errorf("pc %d missing from union", pc)
		}
	}
}

func TestMergeConflictingTreesStaySeparate(t *testing.T) {
	a := tree(entry(0, bytecode.OpConst16, 1))
	b := tree(entry(0, bytecode.OpConst16, 99)) // different bytecode at pc 0
	merged := mergeCompatibleTrees([]*collector.TreeNode{a, b})
	if len(merged) != 2 {
		t.Fatalf("conflicting trees merged: %d", len(merged))
	}
}

func TestMergeChildrenBySmStart(t *testing.T) {
	mkChild := func(parent *collector.TreeNode, smStart int, lit int64) *collector.TreeNode {
		c := &collector.TreeNode{SmStart: smStart, SmEnd: smStart + 2, Parent: parent}
		c.Push(entry(smStart, bytecode.OpConst16, lit))
		parent.Children = append(parent.Children, c)
		return c
	}
	a := tree(entry(0, bytecode.OpConst16, 1), entry(2, bytecode.OpConst16, 2))
	mkChild(a, 2, 50)
	b := tree(entry(0, bytecode.OpConst16, 1), entry(2, bytecode.OpConst16, 2))
	mkChild(b, 2, 50) // identical child: must merge
	mkChild(b, 0, 70) // new divergence point: must be added
	merged := mergeCompatibleTrees([]*collector.TreeNode{a, b})
	if len(merged) != 1 {
		t.Fatalf("merged into %d trees", len(merged))
	}
	if got := len(merged[0].Children); got != 2 {
		t.Fatalf("children = %d, want 2", got)
	}
	// Children must come out sorted by divergence point.
	if merged[0].Children[0].SmStart != 0 || merged[0].Children[1].SmStart != 2 {
		t.Errorf("children unsorted: %d, %d",
			merged[0].Children[0].SmStart, merged[0].Children[1].SmStart)
	}
	// And the original trees must not have been mutated (deep copies).
	if len(a.Children) != 1 {
		t.Errorf("input tree mutated: %d children", len(a.Children))
	}
}

func TestMergeConflictingChildrenKeepTreesApart(t *testing.T) {
	mk := func(childLit int64) *collector.TreeNode {
		root := tree(entry(0, bytecode.OpConst16, 1))
		c := &collector.TreeNode{SmStart: 0, SmEnd: 2, Parent: root}
		c.Push(entry(0, bytecode.OpConst16, childLit))
		root.Children = append(root.Children, c)
		return root
	}
	merged := mergeCompatibleTrees([]*collector.TreeNode{mk(5), mk(6)})
	if len(merged) != 2 {
		t.Fatalf("trees with conflicting children merged: %d", len(merged))
	}
}

func TestReassembleRejectsMissingSymbol(t *testing.T) {
	res := &collector.Result{
		Classes: []collector.ClassRecord{{
			Descriptor: "Lbad/C;",
			Superclass: "Ljava/lang/Object;",
			Methods: []collector.MethodShell{{
				Name: "f", Signature: "()V",
			}},
		}},
		Methods: map[string]*collector.MethodRecord{
			"Lbad/C;->f()V": {
				Class: "Lbad/C;", Name: "f", Signature: "()V",
				RegistersSize: 2, InsSize: 0,
				Trees: []*collector.TreeNode{tree(
					// const-string without its resolved Symbol.
					collector.Entry{DexPC: 0, Inst: &bytecode.Inst{Op: bytecode.OpConstString, A: 0, Index: 3}},
					entry(2, bytecode.OpReturnVoid, 0),
				)},
			},
		},
	}
	if _, _, err := Reassemble(res); err == nil {
		t.Error("missing symbol must fail reassembly")
	}
}

func TestReassembleRejectsBadShape(t *testing.T) {
	res := &collector.Result{
		Classes: []collector.ClassRecord{{
			Descriptor: "Lbad/D;",
			Superclass: "Ljava/lang/Object;",
			Methods: []collector.MethodShell{{
				Name: "g", Signature: "()V",
			}},
		}},
		Methods: map[string]*collector.MethodRecord{
			"Lbad/D;->g()V": {
				Class: "Lbad/D;", Name: "g", Signature: "()V",
				RegistersSize: 1, InsSize: 5, // ins exceed registers
				Trees: []*collector.TreeNode{tree(entry(0, bytecode.OpReturnVoid, 0))},
			},
		},
	}
	if _, _, err := Reassemble(res); err == nil {
		t.Error("ins > registers must fail reassembly")
	}
}

func TestReassembleRejectsBadSignatureShell(t *testing.T) {
	res := &collector.Result{
		Classes: []collector.ClassRecord{{
			Descriptor: "Lbad/E;",
			Superclass: "Ljava/lang/Object;",
			Methods: []collector.MethodShell{{
				Name: "h", Signature: "not-a-signature",
			}},
		}},
		Methods: map[string]*collector.MethodRecord{},
	}
	if _, _, err := Reassemble(res); err == nil {
		t.Error("unparsable shell signature must fail reassembly")
	}
}
