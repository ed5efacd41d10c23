package taint

import (
	"sort"
	"strings"

	"dexlego/internal/apimodel"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// Flow is one detected source-to-sink taint flow.
type Flow struct {
	Source     apimodel.TaintKind
	Sink       apimodel.SinkKind
	SinkMethod string // sink API method key
	Where      string // method containing the sink call site
	PC         int    // dex_pc of the call site
}

// Result is the outcome of analyzing one application.
type Result struct {
	Tool  string
	Flows []Flow
}

// Leaky reports whether any flow was found.
func (r *Result) Leaky() bool { return len(r.Flows) > 0 }

// Count returns the number of distinct flows (the unit of Table V).
func (r *Result) Count() int { return len(r.Flows) }

// Analyze runs the profile's static taint analysis over the DEX files
// (typically one classes.dex; dump-based unpackers provide several).
func Analyze(files []*dex.File, p Profile) (*Result, error) {
	md, err := buildModel(files)
	if err != nil {
		return nil, err
	}
	an := &analysis{
		md:          md,
		p:           p,
		fieldTaint:  make(map[fieldKey]uint32),
		fieldStr:    make(map[fieldKey]string),
		staticTaint: make(map[string]uint32),
		staticStr:   make(map[string]string),
		flows:       make(map[Flow]bool),
	}
	entries := md.entryPoints(p)
	// Global fixpoint over field/static stores: a handful of rounds
	// suffices because the lattice is small.
	for round := 0; round < 4; round++ {
		an.changed = false
		for _, e := range entries {
			an.analyzeMethod(e, fact{}, make([]fact, len(e.params)), 0,
				map[string]int{}, 0)
		}
		if !an.changed {
			break
		}
	}
	res := &Result{Tool: p.Name}
	for f := range an.flows {
		res.Flows = append(res.Flows, f)
	}
	sort.Slice(res.Flows, func(i, j int) bool {
		a, b := res.Flows[i], res.Flows[j]
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Source < b.Source
	})
	return res, nil
}

const maxInlineDepth = 24

type fieldKey struct {
	class  string
	field  string
	hasObj bool
	obj    objID
}

type analysis struct {
	md *model
	p  Profile

	fieldTaint  map[fieldKey]uint32
	fieldStr    map[fieldKey]string
	staticTaint map[string]uint32
	staticStr   map[string]string
	flows       map[Flow]bool
	changed     bool
}

func unionTaint(recv fact, params []fact) uint32 {
	t := recv.Taint
	for _, p := range params {
		t |= p.Taint
	}
	return t
}

// analyzeMethod abstractly executes m with the given receiver/parameter
// facts and returns the return-value fact. ambient carries the caller's
// implicit-flow taint on the second pass.
func (an *analysis) analyzeMethod(m *mMethod, recv fact, params []fact, depth int, stack map[string]int, ambient uint32) fact {
	if m == nil || len(m.code) == 0 {
		return fact{}
	}
	if depth > maxInlineDepth || stack[m.key()] > 0 {
		// Recursion / depth cutoff: over-approximate by joining inputs.
		return fact{Taint: unionTaint(recv, params)}
	}
	stack[m.key()]++
	defer func() { stack[m.key()]-- }()

	ret, implicit := an.pass(m, recv, params, depth, stack, ambient)
	if an.p.ImplicitFlows && implicit&^ambient != 0 {
		// Re-run with the control-dependence taint ambient so that sink
		// calls and stores observe it.
		ret2, _ := an.pass(m, recv, params, depth, stack, ambient|implicit)
		ret = join(ret, ret2)
		ret.Taint |= implicit
	}
	return ret
}

// pass is one instruction-level dataflow pass over the method.
func (an *analysis) pass(m *mMethod, recv fact, params []fact, depth int, stack map[string]int, ambient uint32) (fact, uint32) {
	// Size the abstract register file to cover even out-of-range operands
	// in malformed bodies (the analyzer must never crash on hostile input),
	// plus an extra slot for the invoke result.
	size, ins := int(m.body.RegistersSize), int(m.body.InsSize)
	maxReg := size
	for i := range m.code {
		if r := int(m.code[i].MaxReg); r >= maxReg {
			maxReg = r + 1
		}
	}
	nRegs := maxReg + 1
	resultSlot := maxReg
	entry := make([]fact, nRegs)
	base := size - ins
	if base < 0 {
		base = 0
	}
	idx := base
	if !m.static {
		if idx < size {
			entry[idx] = recv
		}
		idx++
	}
	for _, pf := range params {
		if idx >= size {
			break
		}
		entry[idx] = pf
		idx++
	}

	inFacts := make([][]fact, len(m.code))
	inFacts[0] = entry
	work := []int{0}
	var retFact fact
	var implicit uint32

	push := func(ci int, facts []fact) {
		if ci < 0 || ci >= len(m.code) {
			return
		}
		if inFacts[ci] == nil {
			inFacts[ci] = facts
			work = append(work, ci)
			return
		}
		merged := joinAll(inFacts[ci], facts)
		if !equalFacts(merged, inFacts[ci]) {
			inFacts[ci] = merged
			work = append(work, ci)
		}
	}

	for len(work) > 0 {
		ci := work[len(work)-1]
		work = work[:len(work)-1]
		regs := append([]fact(nil), inFacts[ci]...)
		pl := &m.code[ci]
		pc, in := int(pl.PC), pl.Inst

		// Exceptional edges: any covered instruction may transfer to its
		// handlers with the facts before it (move-exception zeroes the
		// exception register itself). They get inFacts[ci], not regs,
		// which the transfer below overwrites. push ignores the -1 Index
		// returns for a pc that starts no decoded instruction.
		m.body.Handlers(pc, func(h int) { push(m.prog.Index(h), inFacts[ci]) })

		switch op := in.Op; {
		case op == bytecode.OpMove || op == bytecode.OpMoveFrom16 ||
			op == bytecode.OpMoveObject || op == bytecode.OpMoveObject16:
			regs[in.A] = regs[in.B]
		case op == bytecode.OpMoveResult || op == bytecode.OpMoveResultObj:
			regs[in.A] = regs[resultSlot]
		case op == bytecode.OpMoveException:
			regs[in.A] = fact{}
		case op.IsReturn():
			if op != bytecode.OpReturnVoid {
				retFact = join(retFact, regs[in.A])
			}
		case op == bytecode.OpConst4 || op == bytecode.OpConst16 ||
			op == bytecode.OpConst || op == bytecode.OpConstHigh16:
			regs[in.A] = fact{}
		case op == bytecode.OpConstString:
			regs[in.A] = fact{HasStr: true, Str: m.file.String(in.Index)}
		case op == bytecode.OpConstClass:
			regs[in.A] = fact{HasCls: true, Cls: m.file.TypeName(in.Index)}
		case op == bytecode.OpInstanceOf || op == bytecode.OpArrayLength:
			regs[in.A] = fact{Taint: regs[in.B].Taint}
		case op == bytecode.OpNewInstance:
			regs[in.A] = fact{HasObj: true, Obj: objID{Method: m.key(), PC: pc}}
		case op == bytecode.OpNewArray:
			regs[in.A] = fact{HasObj: true, Obj: objID{Method: m.key(), PC: pc}}
		case op.IsBranch():
			condTaint := regs[in.A].Taint
			if op >= bytecode.OpIfEq && op <= bytecode.OpIfLe {
				condTaint |= regs[in.B].Taint
			}
			implicit |= condTaint
		case op == bytecode.OpAGet || op == bytecode.OpAGetObject:
			arr := regs[in.B]
			regs[in.A] = fact{Taint: arr.Taint | an.readField(arr, "[", "$elem", ambient)}
		case op == bytecode.OpAPut || op == bytecode.OpAPutObject:
			an.writeField(regs[in.B], "[", "$elem", regs[in.A], ambient)
		case op == bytecode.OpIGet || op == bytecode.OpIGetObject || op == bytecode.OpIGetBoolean:
			ref := m.file.FieldAt(in.Index)
			obj := regs[in.B]
			f := fact{Taint: obj.Taint | an.readField(obj, ref.Class, ref.Name, ambient)}
			if an.p.StringThroughFields {
				if s, ok := an.readFieldStr(obj, ref.Class, ref.Name); ok {
					f.HasStr, f.Str = true, s
				}
			}
			regs[in.A] = f
		case op == bytecode.OpIPut || op == bytecode.OpIPutObject || op == bytecode.OpIPutBoolean:
			ref := m.file.FieldAt(in.Index)
			an.writeField(regs[in.B], ref.Class, ref.Name, regs[in.A], ambient)
		case op == bytecode.OpSGet || op == bytecode.OpSGetObject || op == bytecode.OpSGetBoolean:
			ref := m.file.FieldAt(in.Index)
			key := ref.Class + "->" + ref.Name
			f := fact{Taint: an.staticTaint[key]}
			if an.p.StringThroughFields {
				if s, ok := an.staticStr[key]; ok {
					f.HasStr, f.Str = true, s
				}
			} else if s, ok := an.constStaticString(ref); ok {
				// Every tool reads declared constant initializers.
				f.HasStr, f.Str = true, s
			}
			regs[in.A] = f
		case op == bytecode.OpSPut || op == bytecode.OpSPutObject || op == bytecode.OpSPutBoolean:
			ref := m.file.FieldAt(in.Index)
			key := ref.Class + "->" + ref.Name
			v := regs[in.A]
			if old := an.staticTaint[key]; old|v.Taint|ambient != old {
				an.staticTaint[key] = old | v.Taint | ambient
				an.changed = true
			}
			if an.p.StringThroughFields && v.HasStr {
				if old, ok := an.staticStr[key]; !ok || old != v.Str {
					an.staticStr[key] = v.Str
					an.changed = true
				}
			}
		case op.IsInvoke():
			regs[resultSlot] = an.invoke(m, pc, in, regs, depth, stack, ambient)
		case op == bytecode.OpNegInt || op == bytecode.OpNotInt:
			regs[in.A] = fact{Taint: regs[in.B].Taint}
		case op >= bytecode.OpAddInt && op <= bytecode.OpUshrInt:
			regs[in.A] = fact{Taint: regs[in.B].Taint | regs[in.C].Taint}
		case op == bytecode.OpAddIntLit16 ||
			(op >= bytecode.OpAddIntLit8 && op <= bytecode.OpShrIntLit8):
			regs[in.A] = fact{Taint: regs[in.B].Taint}
		}
		// Normal edges carry the facts after the transfer.
		for j := 0; j < pl.Jumps(); j++ {
			push(m.prog.Index(pl.Jump(j)), regs)
		}
		if next := pl.Next(); next >= 0 {
			push(m.prog.Index(next), regs)
		}
	}
	return retFact, implicit
}

// constStaticString reads a declared constant string initializer of a final
// static field from the defining DEX file.
func (an *analysis) constStaticString(ref dex.FieldRef) (string, bool) {
	c, ok := an.md.classes[ref.Class]
	if !ok {
		return "", false
	}
	cd := c.file.FindClass(ref.Class)
	if cd == nil {
		return "", false
	}
	for i, ef := range cd.StaticFields {
		fr := c.file.FieldAt(ef.Field)
		if fr.Name != ref.Name || i >= len(cd.StaticValues) {
			continue
		}
		if ef.AccessFlags&dex.AccFinal == 0 {
			return "", false
		}
		v := cd.StaticValues[i]
		if v.Kind == dex.ValueString {
			return c.file.String(v.Index), true
		}
	}
	return "", false
}

func (an *analysis) fieldKeyFor(obj fact, class, field string) fieldKey {
	if an.p.AllocSiteSensitive && obj.HasObj {
		return fieldKey{class: class, field: field, hasObj: true, obj: obj.Obj}
	}
	return fieldKey{class: class, field: field}
}

func (an *analysis) readField(obj fact, class, field string, ambient uint32) uint32 {
	t := an.fieldTaint[an.fieldKeyFor(obj, class, field)]
	if an.p.AllocSiteSensitive && !obj.HasObj {
		// Unknown receiver: merge every known allocation of this class.
		for k, v := range an.fieldTaint {
			if k.class == class && k.field == field {
				t |= v
			}
		}
	}
	_ = ambient
	return t
}

func (an *analysis) readFieldStr(obj fact, class, field string) (string, bool) {
	s, ok := an.fieldStr[an.fieldKeyFor(obj, class, field)]
	return s, ok
}

func (an *analysis) writeField(obj fact, class, field string, v fact, ambient uint32) {
	key := an.fieldKeyFor(obj, class, field)
	if old := an.fieldTaint[key]; old|v.Taint|ambient != old {
		an.fieldTaint[key] = old | v.Taint | ambient
		an.changed = true
	}
	if an.p.StringThroughFields && v.HasStr {
		if old, ok := an.fieldStr[key]; !ok || old != v.Str {
			an.fieldStr[key] = v.Str
			an.changed = true
		}
	}
}

func (an *analysis) recordFlows(m *mMethod, pc int, sinkKey string, kind apimodel.SinkKind, dataTaint uint32) {
	for _, src := range []apimodel.TaintKind{
		apimodel.TaintIMEI, apimodel.TaintSIM, apimodel.TaintLocation,
		apimodel.TaintSSID, apimodel.TaintContacts, apimodel.TaintFileContent,
		apimodel.TaintGeneric,
	} {
		if dataTaint&uint32(src) == 0 {
			continue
		}
		fl := Flow{Source: src, Sink: kind, SinkMethod: sinkKey, Where: m.key(), PC: pc}
		if !an.flows[fl] {
			an.flows[fl] = true
			an.changed = true
		}
	}
}

// invoke handles every invoke variant: reflection intrinsics, model-internal
// calls (inlined), and framework summaries.
func (an *analysis) invoke(m *mMethod, pc int, in bytecode.Inst, regs []fact, depth int, stack map[string]int, ambient uint32) fact {
	ref := m.file.MethodAt(in.Index)
	static := in.Op == bytecode.OpInvokeStatic || in.Op == bytecode.OpInvokeStaticR

	var recvF fact
	argRegs := in.Args
	if !static && len(argRegs) > 0 {
		recvF = regs[argRegs[0]]
		argRegs = argRegs[1:]
	}
	args := make([]fact, len(argRegs))
	for i, r := range argRegs {
		if int(r) < len(regs) {
			args[i] = regs[r]
		}
	}

	// --- reflection intrinsics -----------------------------------------
	switch {
	case ref.Class == "Ljava/lang/Class;" && ref.Name == "forName":
		if len(args) == 1 && args[0].HasStr {
			return fact{HasCls: true, Cls: "L" + strings.ReplaceAll(args[0].Str, ".", "/") + ";"}
		}
		return fact{}
	case ref.Class == "Ljava/lang/Class;" &&
		(ref.Name == "getMethod" || ref.Name == "getDeclaredMethod"):
		if recvF.HasCls && len(args) == 1 && args[0].HasStr {
			return fact{HasMeth: true, MethCls: recvF.Cls, MethName: args[0].Str}
		}
		return fact{}
	case ref.Class == "Ljava/lang/Class;" && ref.Name == "newInstance":
		return fact{}
	case ref.Class == "Ljava/lang/reflect/Method;" && ref.Name == "invoke":
		if !recvF.HasMeth || len(args) != 2 {
			return fact{} // unresolvable reflective call
		}
		target := an.md.findMethod(recvF.MethCls, recvF.MethName, "")
		if target == nil {
			return fact{}
		}
		elemTaint := args[1].Taint | an.readField(args[1], "[", "$elem", ambient)
		tParams := make([]fact, len(target.params))
		for i := range tParams {
			tParams[i] = fact{Taint: elemTaint}
		}
		return an.analyzeMethod(target, args[0], tParams, depth+1, stack, ambient)
	}

	// --- model-internal call --------------------------------------------
	targetCls := ref.Class
	if !static && recvF.HasObj {
		// Devirtualize through the known allocation class when possible.
		if oc := an.allocClass(recvF.Obj); oc != "" {
			if t := an.md.findMethod(oc, ref.Name, ref.Signature); t != nil {
				targetCls = oc
			}
		}
	}
	if target := an.md.findMethod(targetCls, ref.Name, ref.Signature); target != nil {
		callRecv, callArgs := recvF, args
		if !an.p.StringThroughCalls {
			callRecv = stripConstants(callRecv)
			stripped := make([]fact, len(callArgs))
			for i, a := range callArgs {
				stripped[i] = stripConstants(a)
			}
			callArgs = stripped
		}
		return an.analyzeMethod(target, callRecv, callArgs, depth+1, stack, ambient)
	}

	// --- framework summary ------------------------------------------------
	key := ref.Key()
	eff, ok := frameworkEffect(key, an.p.DeepFramework)
	if !ok {
		return fact{} // unmodeled framework call: taint is dropped
	}
	switch {
	case eff.source != 0:
		return taintedFact(eff.source)
	case eff.sink != 0:
		start := apimodel.SinkArgStart(key)
		var data uint32
		for i := start; i < len(args); i++ {
			data |= args[i].Taint
		}
		if an.p.ImplicitFlows {
			data |= ambient
		}
		an.recordFlows(m, pc, key, eff.sink, data)
		return fact{}
	case eff.severTaint:
		return fact{}
	}
	var out fact
	if eff.recvToRet {
		out.Taint |= recvF.Taint
		if eff.strIdentity && recvF.HasStr {
			out.HasStr, out.Str = true, recvF.Str
		}
		if eff.recvFieldToRet != "" {
			out.Taint |= an.readField(recvF, ref.Class, eff.recvFieldToRet, ambient)
		}
		if eff.recvToRet && recvF.HasObj && in.Op != bytecode.OpInvokeStatic {
			// Builder-style APIs return the receiver.
			out.HasObj, out.Obj = recvF.HasObj, recvF.Obj
		}
	}
	for _, ai := range eff.argsToRet {
		if ai < len(args) {
			out.Taint |= args[ai].Taint
		}
	}
	if eff.strConcat && recvF.HasStr && len(args) > 0 && args[0].HasStr {
		out.HasStr, out.Str = true, recvF.Str+args[0].Str
	}
	if eff.argToRecvField != "" && len(args) > 0 {
		an.writeField(recvF, ref.Class, eff.argToRecvField, args[0], ambient)
	}
	if eff.recvFieldToRet != "" && !eff.recvToRet {
		out.Taint |= an.readField(recvF, ref.Class, eff.recvFieldToRet, ambient)
	}
	return out
}

func stripConstants(f fact) fact {
	f.HasStr, f.Str = false, ""
	f.HasCls, f.Cls = false, ""
	f.HasMeth, f.MethCls, f.MethName = false, "", ""
	return f
}

// allocClass maps an allocation site back to the class it allocates.
func (an *analysis) allocClass(o objID) string {
	parts := strings.SplitN(o.Method, "->", 2)
	if len(parts) != 2 {
		return ""
	}
	c, ok := an.md.classes[parts[0]]
	if !ok {
		return ""
	}
	arrow := strings.Index(o.Method, "->")
	nameSig := o.Method[arrow+2:]
	for _, mm := range c.meths {
		if mm.name+mm.sig != nameSig || mm.prog == nil {
			continue
		}
		if in := mm.prog.Lookup(o.PC); in != nil {
			if in.Op == bytecode.OpNewInstance || in.Op == bytecode.OpNewArray {
				return mm.file.TypeName(in.Index)
			}
		}
	}
	return ""
}
