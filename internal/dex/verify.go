package dex

import (
	"fmt"

	"dexlego/internal/bytecode"
)

// VerifyError reports a structural defect found by Verify.
type VerifyError struct {
	Where  string
	Reason string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("dex: verify %s: %s", e.Where, e.Reason)
}

// Verify performs the structural checks a loader relies on, beyond what
// Write validates: canonical table ordering, class-definition topology,
// and per-method bytecode sanity (decodability, register bounds, branch
// and switch targets landing on instruction starts, sparse-switch keys in
// strictly ascending order, try ranges and handler addresses within the
// body), that each method sits in the table its access flags name
// (IsDirect), and that each code item's ins_size is what its prototype
// takes (InsSize) and its outs_size covers its widest invoke. It returns
// every defect found.
func Verify(f *File) []error {
	var errs []error
	report := func(where, format string, args ...any) {
		errs = append(errs, &VerifyError{Where: where, Reason: fmt.Sprintf(format, args...)})
	}

	if err := f.validate(); err != nil {
		report("tables", "%v", err)
	}
	for i := 1; i < len(f.Strings); i++ {
		if f.Strings[i-1] >= f.Strings[i] {
			report("string_ids", "not sorted/unique at %d", i)
			break
		}
	}
	for i := 1; i < len(f.Types); i++ {
		if f.Types[i-1] >= f.Types[i] {
			report("type_ids", "not sorted/unique at %d", i)
			break
		}
	}

	// Superclasses defined in this file must precede their subclasses.
	pos := make(map[uint32]int, len(f.Classes))
	for i := range f.Classes {
		if prev, dup := pos[f.Classes[i].Class]; dup {
			report("class_defs", "class %s defined at %d and %d",
				f.TypeName(f.Classes[i].Class), prev, i)
		}
		pos[f.Classes[i].Class] = i
	}
	for i := range f.Classes {
		cd := &f.Classes[i]
		if cd.Superclass == NoIndex {
			continue
		}
		if j, ok := pos[cd.Superclass]; ok && j > i {
			report("class_defs", "class %s precedes its superclass %s",
				f.TypeName(cd.Class), f.TypeName(cd.Superclass))
		}
	}

	for ci := range f.Classes {
		cd := &f.Classes[ci]
		for mi := range cd.NumMethods() {
			em := cd.Method(mi)
			ref := f.MethodAt(em.Method)
			where := ref.Key()
			if direct := mi < len(cd.DirectMeths); IsDirect(em.AccessFlags) != direct {
				report(where, "access flags %#x place it in %s, not %s",
					em.AccessFlags, MethodTable[!direct], MethodTable[direct])
			}
			if em.Code == nil {
				continue
			}
			if sig, err := ParseSignature(ref.Signature); err != nil {
				report(where, "%v", err)
			} else if ins := InsSize(sig.Words, em.AccessFlags); int(em.Code.InsSize) != ins {
				report(where, "ins %d, but its prototype takes %d", em.Code.InsSize, ins)
			}
			verifyCode(f, where, em.Code, report)
		}
	}
	return errs
}

func verifyCode(f *File, where string, code *Code, report func(where, format string, args ...any)) {
	p := bytecode.Read(code.Insns)
	if err := p.Err(); err != nil {
		report(where, "undecodable body: %v", err)
		return
	}
	insts := p.Insts()
	if len(insts) == 0 {
		report(where, "empty instruction array")
		return
	}
	isStart := func(pc int) bool { return p.Lookup(pc) != nil }
	if int(code.InsSize) > int(code.RegistersSize) {
		report(where, "ins %d exceed registers %d", code.InsSize, code.RegistersSize)
	}
	// The last reachable instruction must not fall off the end. Trailing
	// alignment nops before switch payloads are unreachable padding and are
	// exempt.
	lastIdx := len(insts) - 1
	for lastIdx > 0 && insts[lastIdx].Op == bytecode.OpNop {
		lastIdx--
	}
	if last := insts[lastIdx].Op; !last.IsTerminator() && !last.IsSwitch() && !last.IsBranch() {
		report(where, "control can fall off the end (last op %s)", last)
	}
	limits := [...]int{
		bytecode.IndexString: len(f.Strings),
		bytecode.IndexType:   len(f.Types),
		bytecode.IndexField:  len(f.Fields),
		bytecode.IndexMethod: len(f.Methods),
	}
	outs := 0 // argument words of the widest invoke
	for i := range insts {
		d := &insts[i]
		if d.MaxReg >= int32(code.RegistersSize) {
			report(where, "pc %#x: register v%d exceeds registers_size %d",
				d.PC, d.MaxReg, code.RegistersSize)
		}
		for j := 0; j < d.Jumps(); j++ {
			if target := d.Jump(j); !isStart(target) {
				report(where, "pc %#x: %s targets %#x, not an instruction start",
					d.PC, d.Op, target)
			}
		}
		if d.Op.IsInvoke() {
			outs = max(outs, len(d.Args))
		}
		if kind := d.Op.Index(); kind != bytecode.IndexNone && int(d.Index) >= limits[kind] {
			report(where, "pc %#x: %s index %d out of range", d.PC, d.Op, d.Index)
		}
		if d.Op == bytecode.OpSparseSwitch {
			for k := 1; k < len(d.Keys); k++ {
				if d.Keys[k] <= d.Keys[k-1] {
					report(where, "pc %#x: sparse-switch key %d at case %d not above %d",
						d.PC, d.Keys[k], k, d.Keys[k-1])
					break
				}
			}
		}
	}
	if outs > int(code.OutsSize) {
		report(where, "outs %d, but its widest invoke passes %d words", code.OutsSize, outs)
	}
	for ti, tr := range code.Tries {
		if int(tr.Start)+int(tr.Count) > len(code.Insns) {
			report(where, "try %d: range [%d,%d) exceeds body %d",
				ti, tr.Start, tr.Start+tr.Count, len(code.Insns))
		}
		for _, h := range tr.Handlers {
			if !isStart(int(h.Addr)) {
				report(where, "try %d: handler %#x not an instruction start", ti, h.Addr)
			}
			if int(h.Type) >= len(f.Types) {
				report(where, "try %d: handler type %d out of range", ti, h.Type)
			}
		}
		if tr.CatchAll >= 0 && !isStart(int(tr.CatchAll)) {
			report(where, "try %d: catch-all %#x not an instruction start", ti, tr.CatchAll)
		}
	}
}
