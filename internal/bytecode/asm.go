package bytecode

import (
	"fmt"
	"slices"
	"sort"
)

// LabelID identifies one label in a single Assembler's namespace. Hot
// callers (the reassembler's flattener) allocate anonymous IDs directly and
// never pay for label-name strings; the string Label API interns names into
// the same namespace lazily.
type LabelID int32

// Assembler builds a method body from instructions and symbolic labels and
// resolves branch offsets and switch payloads into a final code-unit array.
//
// The zero value is ready to use. All mutating methods record the first
// error and subsequent calls become no-ops; Assemble returns that error.
type Assembler struct {
	items   []asmItem
	binds   []labelBind
	nLabels int32
	byName  map[string]LabelID // lazily allocated: only named labels pay
	outs    int                // argument words of the widest invoke emitted
	err     error
}

type asmItem struct {
	inst    Inst
	branch  LabelID   // label for Off-based formats; -1 = none
	targets []LabelID // labels for switch targets
}

// labelBind records that a label precedes the item-index'th instruction
// (item == len(items) at assemble time binds past the last instruction).
// Binds are appended in emission order, so the list is sorted by item.
type labelBind struct {
	item int32
	id   LabelID
}

func (a *Assembler) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("bytecode: asm: "+format, args...)
	}
}

// NewLabel allocates a fresh anonymous label. It carries no name and costs
// no map entry; bind it with BindLabel and reference it from the *ID
// emitters.
func (a *Assembler) NewLabel() LabelID {
	id := LabelID(a.nLabels)
	a.nLabels++
	return id
}

// NewLabelBlock allocates n consecutive anonymous labels and returns the
// first; the block spans [id, id+n). The reassembler's flattener reserves
// one block per collection-tree node so a (node, instruction) pair maps to a
// label by arithmetic instead of a map lookup or a formatted name.
func (a *Assembler) NewLabelBlock(n int) LabelID {
	id := LabelID(a.nLabels)
	a.nLabels += int32(n)
	return id
}

// Intern returns the LabelID for name, allocating it on first sight.
func (a *Assembler) Intern(name string) LabelID {
	if id, ok := a.byName[name]; ok {
		return id
	}
	if a.byName == nil {
		a.byName = make(map[string]LabelID, 8)
	}
	id := a.NewLabel()
	a.byName[name] = id
	return id
}

// nameOf recovers a label's name for diagnostics ("#N" for anonymous ones).
func (a *Assembler) nameOf(id LabelID) string {
	for n, i := range a.byName {
		if i == id {
			return n
		}
	}
	return "#" + fmt.Sprint(int32(id))
}

// BindLabel binds id to the next emitted instruction.
func (a *Assembler) BindLabel(id LabelID) *Assembler {
	if a.err != nil {
		return a
	}
	a.binds = append(a.binds, labelBind{item: int32(len(a.items)), id: id})
	return a
}

// Label binds name to the next emitted instruction.
func (a *Assembler) Label(name string) *Assembler {
	if a.err != nil {
		return a
	}
	return a.BindLabel(a.Intern(name))
}

func (a *Assembler) push(it asmItem) *Assembler {
	if a.err != nil {
		return a
	}
	if it.inst.Op.IsInvoke() {
		a.outs = max(a.outs, len(it.inst.Args))
	}
	a.items = append(a.items, it)
	return a
}

// Outs returns the argument words of the widest invoke emitted so far: the
// outs_size of the method body.
func (a *Assembler) Outs() int { return a.outs }

// Grow reserves room for n more instructions, so an emitter that knows its
// instruction count does not regrow the item list as it goes.
func (a *Assembler) Grow(n int) {
	a.items = slices.Grow(a.items, n)
}

// Reset empties the assembler for a new body, keeping the capacity of its
// item and bind lists. Nothing AssembleFull returned aliases what Reset
// reuses: the result's code units, label positions and fixups are fresh,
// and the label-name map it shares is dropped here, not cleared.
func (a *Assembler) Reset() {
	clear(a.items) // drop the old instructions' operand slices
	*a = Assembler{items: a.items[:0], binds: a.binds[:0]}
}

// Raw emits a fully formed instruction with no label operands.
func (a *Assembler) Raw(in Inst) *Assembler {
	return a.push(asmItem{inst: in, branch: -1})
}

// RawBranchID emits an instruction whose Off operand resolves from id.
func (a *Assembler) RawBranchID(in Inst, id LabelID) *Assembler {
	return a.push(asmItem{inst: in, branch: id})
}

// RawBranch emits an instruction whose Off operand is resolved from label.
func (a *Assembler) RawBranch(in Inst, label string) *Assembler {
	if a.err != nil {
		return a
	}
	return a.RawBranchID(in, a.Intern(label))
}

// RawSwitchID emits a switch instruction whose case targets resolve from
// ids (copied; the caller may reuse the slice). in.Keys must already hold
// the case keys.
func (a *Assembler) RawSwitchID(in Inst, ids []LabelID) *Assembler {
	if len(in.Keys) != len(ids) {
		a.fail("%s: %d keys but %d labels", in.Op, len(in.Keys), len(ids))
		return a
	}
	return a.push(asmItem{inst: in, branch: -1, targets: append([]LabelID(nil), ids...)})
}

// RawSwitch emits a switch instruction whose case targets are resolved from
// labels; in.Keys must already hold the case keys.
func (a *Assembler) RawSwitch(in Inst, labels []string) *Assembler {
	if a.err != nil {
		return a
	}
	ids := make([]LabelID, len(labels))
	for i, l := range labels {
		ids[i] = a.Intern(l)
	}
	return a.RawSwitchID(in, ids)
}

// Nop emits a nop.
func (a *Assembler) Nop() *Assembler { return a.Raw(Inst{Op: OpNop}) }

// Move emits move vA, vB.
func (a *Assembler) Move(dst, src int32) *Assembler {
	if dst <= 0xf && src <= 0xf {
		return a.Raw(Inst{Op: OpMove, A: dst, B: src})
	}
	return a.Raw(Inst{Op: OpMoveFrom16, A: dst, B: src})
}

// MoveObject emits move-object vA, vB.
func (a *Assembler) MoveObject(dst, src int32) *Assembler {
	if dst <= 0xf && src <= 0xf {
		return a.Raw(Inst{Op: OpMoveObject, A: dst, B: src})
	}
	return a.Raw(Inst{Op: OpMoveObject16, A: dst, B: src})
}

// MoveResult emits move-result vAA.
func (a *Assembler) MoveResult(dst int32) *Assembler {
	return a.Raw(Inst{Op: OpMoveResult, A: dst})
}

// MoveResultObject emits move-result-object vAA.
func (a *Assembler) MoveResultObject(dst int32) *Assembler {
	return a.Raw(Inst{Op: OpMoveResultObj, A: dst})
}

// MoveException emits move-exception vAA.
func (a *Assembler) MoveException(dst int32) *Assembler {
	return a.Raw(Inst{Op: OpMoveException, A: dst})
}

// ReturnVoid emits return-void.
func (a *Assembler) ReturnVoid() *Assembler { return a.Raw(Inst{Op: OpReturnVoid}) }

// Return emits return vAA.
func (a *Assembler) Return(v int32) *Assembler { return a.Raw(Inst{Op: OpReturn, A: v}) }

// ReturnObject emits return-object vAA.
func (a *Assembler) ReturnObject(v int32) *Assembler {
	return a.Raw(Inst{Op: OpReturnObject, A: v})
}

// Const emits the narrowest const variant that holds lit.
func (a *Assembler) Const(dst int32, lit int64) *Assembler {
	switch {
	case dst <= 0xf && fitsS(lit, 4):
		return a.Raw(Inst{Op: OpConst4, A: dst, Lit: lit})
	case fitsS(lit, 16):
		return a.Raw(Inst{Op: OpConst16, A: dst, Lit: lit})
	case lit&0xffff == 0 && fitsS(lit>>16, 16):
		return a.Raw(Inst{Op: OpConstHigh16, A: dst, Lit: lit})
	default:
		return a.Raw(Inst{Op: OpConst, A: dst, Lit: lit})
	}
}

// ConstString emits const-string vAA, string@idx.
func (a *Assembler) ConstString(dst int32, idx uint32) *Assembler {
	return a.Raw(Inst{Op: OpConstString, A: dst, Index: idx})
}

// CheckCast emits check-cast vAA, type@idx.
func (a *Assembler) CheckCast(v int32, idx uint32) *Assembler {
	return a.Raw(Inst{Op: OpCheckCast, A: v, Index: idx})
}

// InstanceOf emits instance-of vA, vB, type@idx.
func (a *Assembler) InstanceOf(dst, src int32, idx uint32) *Assembler {
	return a.Raw(Inst{Op: OpInstanceOf, A: dst, B: src, Index: idx})
}

// ArrayLength emits array-length vA, vB.
func (a *Assembler) ArrayLength(dst, arr int32) *Assembler {
	return a.Raw(Inst{Op: OpArrayLength, A: dst, B: arr})
}

// NewInstance emits new-instance vAA, type@idx.
func (a *Assembler) NewInstance(dst int32, idx uint32) *Assembler {
	return a.Raw(Inst{Op: OpNewInstance, A: dst, Index: idx})
}

// NewArray emits new-array vA, vB, type@idx.
func (a *Assembler) NewArray(dst, size int32, idx uint32) *Assembler {
	return a.Raw(Inst{Op: OpNewArray, A: dst, B: size, Index: idx})
}

// Throw emits throw vAA.
func (a *Assembler) Throw(v int32) *Assembler { return a.Raw(Inst{Op: OpThrow, A: v}) }

// Goto emits an unconditional jump to label (16-bit reach).
func (a *Assembler) Goto(label string) *Assembler {
	return a.RawBranch(Inst{Op: OpGoto16}, label)
}

// GotoID emits an unconditional jump to a label ID (16-bit reach).
func (a *Assembler) GotoID(id LabelID) *Assembler {
	return a.RawBranchID(Inst{Op: OpGoto16}, id)
}

// If emits a two-register conditional branch (if-eq .. if-le) to label.
func (a *Assembler) If(op Opcode, va, vb int32, label string) *Assembler {
	if op < OpIfEq || op > OpIfLe {
		a.fail("If: %s is not an if-test opcode", op)
		return a
	}
	return a.RawBranch(Inst{Op: op, A: va, B: vb}, label)
}

// IfZ emits a single-register zero-test branch (if-eqz .. if-lez) to label.
func (a *Assembler) IfZ(op Opcode, v int32, label string) *Assembler {
	if op < OpIfEqz || op > OpIfLez {
		a.fail("IfZ: %s is not an if-testz opcode", op)
		return a
	}
	return a.RawBranch(Inst{Op: op, A: v}, label)
}

// Binop emits a three-register arithmetic instruction.
func (a *Assembler) Binop(op Opcode, dst, va, vb int32) *Assembler {
	return a.Raw(Inst{Op: op, A: dst, B: va, C: vb})
}

// BinopLit8 emits an arithmetic instruction with an 8-bit literal.
func (a *Assembler) BinopLit8(op Opcode, dst, src int32, lit int64) *Assembler {
	return a.Raw(Inst{Op: op, A: dst, B: src, Lit: lit})
}

// Unop emits a one-operand arithmetic instruction (neg-int, not-int).
func (a *Assembler) Unop(op Opcode, dst, src int32) *Assembler {
	return a.Raw(Inst{Op: op, A: dst, B: src})
}

// Invoke emits a 35c invoke with up to five argument registers.
func (a *Assembler) Invoke(op Opcode, method uint32, regs ...int) *Assembler {
	return a.Raw(Inst{Op: op, Index: method, Args: append([]int(nil), regs...), A: int32(len(regs))})
}

// InvokeRange emits a 3rc invoke covering count registers from start.
func (a *Assembler) InvokeRange(op Opcode, method uint32, start, count int) *Assembler {
	args := make([]int, count)
	for i := range args {
		args[i] = start + i
	}
	return a.Raw(Inst{Op: op, Index: method, Args: args, A: int32(count)})
}

// IGet emits an instance field read; op selects the iget variant.
func (a *Assembler) IGet(op Opcode, dst, obj int32, field uint32) *Assembler {
	return a.Raw(Inst{Op: op, A: dst, B: obj, Index: field})
}

// IPut emits an instance field write; op selects the iput variant.
func (a *Assembler) IPut(op Opcode, src, obj int32, field uint32) *Assembler {
	return a.Raw(Inst{Op: op, A: src, B: obj, Index: field})
}

// SGet emits a static field read; op selects the sget variant.
func (a *Assembler) SGet(op Opcode, dst int32, field uint32) *Assembler {
	return a.Raw(Inst{Op: op, A: dst, Index: field})
}

// SPut emits a static field write; op selects the sput variant.
func (a *Assembler) SPut(op Opcode, src int32, field uint32) *Assembler {
	return a.Raw(Inst{Op: op, A: src, Index: field})
}

// AGet emits an array element read; op selects the aget variant.
func (a *Assembler) AGet(op Opcode, dst, arr, idx int32) *Assembler {
	return a.Raw(Inst{Op: op, A: dst, B: arr, C: idx})
}

// APut emits an array element write; op selects the aput variant.
func (a *Assembler) APut(op Opcode, src, arr, idx int32) *Assembler {
	return a.Raw(Inst{Op: op, A: src, B: arr, C: idx})
}

// PackedSwitch emits packed-switch vAA with consecutive keys starting at
// firstKey; one label per case.
func (a *Assembler) PackedSwitch(v int32, firstKey int32, labels []string) *Assembler {
	keys := make([]int32, len(labels))
	for i := range keys {
		keys[i] = firstKey + int32(i)
	}
	return a.RawSwitch(Inst{Op: OpPackedSwitch, A: v, Keys: keys}, labels)
}

// SparseSwitch emits sparse-switch vAA with explicit keys (sorted
// internally); one label per case.
func (a *Assembler) SparseSwitch(v int32, keys []int32, labels []string) *Assembler {
	if len(keys) != len(labels) {
		a.fail("SparseSwitch: %d keys but %d labels", len(keys), len(labels))
		return a
	}
	type kv struct {
		k int32
		l string
	}
	pairs := make([]kv, len(keys))
	for i := range keys {
		pairs[i] = kv{keys[i], labels[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	sk := make([]int32, len(pairs))
	sl := make([]string, len(pairs))
	for i, p := range pairs {
		sk[i] = p.k
		sl[i] = p.l
	}
	return a.RawSwitch(Inst{Op: OpSparseSwitch, A: v, Keys: sk}, sl)
}

// IndexFixup records that the instruction at PC carries a constant-pool
// index of the given kind. The 16-bit index operand of every index-bearing
// format this assembler emits (21c, 22c, 35c, 3rc) sits in the code unit at
// PC+1, so a later table permutation can patch operands in place without
// decoding the instruction stream (see dex.Builder.Finish).
type IndexFixup struct {
	PC   int32
	Kind IndexKind
}

// Labels holds the resolved dex_pc of every label after assembly.
type Labels struct {
	pcs    []int32 // by LabelID; -1 = never bound
	byName map[string]LabelID
}

// PC returns the resolved position of a label ID.
func (l *Labels) PC(id LabelID) (int, bool) {
	if l == nil || int(id) >= len(l.pcs) || id < 0 || l.pcs[id] < 0 {
		return 0, false
	}
	return int(l.pcs[id]), true
}

// Name returns the resolved position of a named label.
func (l *Labels) Name(name string) (int, bool) {
	if l == nil {
		return 0, false
	}
	id, ok := l.byName[name]
	if !ok {
		return 0, false
	}
	return l.PC(id)
}

// AsmResult is the output of AssembleFull.
type AsmResult struct {
	Insns  []uint16
	Labels Labels
	Fixups []IndexFixup // non-nil; one entry per index-bearing instruction
}

// Assemble lays out the program, resolves labels and switch payloads, and
// returns the final code-unit array.
func (a *Assembler) Assemble() ([]uint16, error) {
	res, err := a.AssembleFull()
	return res.Insns, err
}

// AssembleFull is Assemble plus the resolved dex_pc of every label (used to
// anchor try/catch ranges) and the index-operand fixup list.
func (a *Assembler) AssembleFull() (AsmResult, error) {
	if a.err != nil {
		return AsmResult{}, a.err
	}
	// First pass: assign dex_pc to every instruction and label.
	pcs := make([]int32, a.nLabels)
	for i := range pcs {
		pcs[i] = -1
	}
	itemPC := make([]int32, len(a.items)+1)
	pc := 0
	fixups := make([]IndexFixup, 0, len(a.items)/4+1)
	for i := range a.items {
		itemPC[i] = int32(pc)
		in := &a.items[i].inst
		if in.Op.Index() != IndexNone {
			fixups = append(fixups, IndexFixup{PC: int32(pc), Kind: in.Op.Index()})
		}
		pc += in.Width()
	}
	itemPC[len(a.items)] = int32(pc)
	for _, bind := range a.binds {
		if pcs[bind.id] >= 0 {
			return AsmResult{}, fmt.Errorf("bytecode: asm: duplicate label %q", a.nameOf(bind.id))
		}
		pcs[bind.id] = itemPC[bind.item]
	}
	bodyLen := pc

	// Second pass: place switch payloads after the body, 4-byte aligned.
	var payloadPC []int
	for i := range a.items {
		if !a.items[i].inst.Op.IsSwitch() {
			continue
		}
		if payloadPC == nil {
			payloadPC = make([]int, len(a.items))
		}
		if pc%2 != 0 {
			pc++ // nop pad
		}
		payloadPC[i] = pc
		pc += a.items[i].inst.PayloadWidth()
	}

	out := make([]uint16, 0, pc)
	emitTo := func(want int) {
		for len(out) < want {
			out = append(out, uint16(OpNop))
		}
	}
	resolve := func(id LabelID, at int) (int32, error) {
		if int(id) >= len(pcs) || pcs[id] < 0 {
			return 0, fmt.Errorf("bytecode: asm: undefined label %q", a.nameOf(id))
		}
		return pcs[id] - int32(at), nil
	}
	for i := range a.items {
		it := &a.items[i]
		in := &it.inst
		at := int(itemPC[i])
		if it.branch >= 0 || len(it.targets) > 0 {
			// Only branch and switch items are patched, and into a copy, so
			// the item keeps its unresolved form.
			patched := it.inst
			in = &patched
		}
		if it.branch >= 0 {
			off, err := resolve(it.branch, at)
			if err != nil {
				return AsmResult{}, err
			}
			in.Off = off
		}
		if len(it.targets) > 0 {
			in.Targets = make([]int32, len(it.targets))
			for j, l := range it.targets {
				off, err := resolve(l, at)
				if err != nil {
					return AsmResult{}, err
				}
				in.Targets[j] = off
			}
			in.Off = int32(payloadPC[i] - at)
		}
		units, err := Encode(in)
		if err != nil {
			return AsmResult{}, err
		}
		emitTo(at)
		out = append(out, units...)
	}
	emitTo(bodyLen)
	for i := range a.items {
		it := &a.items[i]
		if !it.inst.Op.IsSwitch() {
			continue
		}
		in := it.inst
		at := int(itemPC[i])
		in.Targets = make([]int32, len(it.targets))
		for j, l := range it.targets {
			off, err := resolve(l, at)
			if err != nil {
				return AsmResult{}, err
			}
			in.Targets[j] = off
		}
		payload, err := EncodePayload(&in)
		if err != nil {
			return AsmResult{}, err
		}
		emitTo(payloadPC[i])
		out = append(out, payload...)
	}
	return AsmResult{Insns: out, Labels: Labels{pcs: pcs, byName: a.byName}, Fixups: fixups}, nil
}
