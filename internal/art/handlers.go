package art

import (
	"dexlego/internal/bytecode"
)

// handler executes one decoded instruction. in points into the predecoded
// program (shared, immutable — never written through) or a loop-local
// fallback decode. Handlers advance f.pc themselves and return done=true
// with the method result for returns.
type handler func(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error)

// handlers is the dispatch table of the interpreter: one entry per opcode
// byte, replacing the monolithic switch. A nil entry is an opcode the
// decoder can never produce or the interpreter does not implement; dispatch
// fails those with the historical "unimplemented opcode" error text.
var handlers [256]handler

func init() {
	set := func(h handler, ops ...bytecode.Opcode) {
		for _, op := range ops {
			handlers[op] = h
		}
	}
	set(hNop, bytecode.OpNop)
	set(hMove, bytecode.OpMove, bytecode.OpMoveFrom16,
		bytecode.OpMoveObject, bytecode.OpMoveObject16)
	set(hMoveResult, bytecode.OpMoveResult, bytecode.OpMoveResultObj)
	set(hMoveException, bytecode.OpMoveException)
	set(hReturnVoid, bytecode.OpReturnVoid)
	set(hReturn, bytecode.OpReturn, bytecode.OpReturnObject)
	set(hConst, bytecode.OpConst4, bytecode.OpConst16, bytecode.OpConst,
		bytecode.OpConstHigh16)
	set(hConstString, bytecode.OpConstString)
	set(hConstClass, bytecode.OpConstClass)
	set(hCheckCast, bytecode.OpCheckCast)
	set(hInstanceOf, bytecode.OpInstanceOf)
	set(hArrayLength, bytecode.OpArrayLength)
	set(hNewInstance, bytecode.OpNewInstance)
	set(hNewArray, bytecode.OpNewArray)
	set(hThrow, bytecode.OpThrow)
	set(hGoto, bytecode.OpGoto, bytecode.OpGoto16, bytecode.OpGoto32)
	set(hSwitch, bytecode.OpPackedSwitch, bytecode.OpSparseSwitch)
	set(hIf, bytecode.OpIfEq, bytecode.OpIfNe, bytecode.OpIfLt,
		bytecode.OpIfGe, bytecode.OpIfGt, bytecode.OpIfLe)
	set(hIfZ, bytecode.OpIfEqz, bytecode.OpIfNez, bytecode.OpIfLtz,
		bytecode.OpIfGez, bytecode.OpIfGtz, bytecode.OpIfLez)
	set(hAGet, bytecode.OpAGet, bytecode.OpAGetObject)
	set(hAPut, bytecode.OpAPut, bytecode.OpAPutObject)
	set(hIGet, bytecode.OpIGet, bytecode.OpIGetObject, bytecode.OpIGetBoolean)
	set(hIPut, bytecode.OpIPut, bytecode.OpIPutObject, bytecode.OpIPutBoolean)
	set(hSGet, bytecode.OpSGet, bytecode.OpSGetObject, bytecode.OpSGetBoolean)
	set(hSPut, bytecode.OpSPut, bytecode.OpSPutObject, bytecode.OpSPutBoolean)
	set(hInvoke, bytecode.OpInvokeVirtual, bytecode.OpInvokeSuper,
		bytecode.OpInvokeDirect, bytecode.OpInvokeStatic, bytecode.OpInvokeInterface,
		bytecode.OpInvokeVirtualR, bytecode.OpInvokeSuperR, bytecode.OpInvokeDirectR,
		bytecode.OpInvokeStaticR, bytecode.OpInvokeInterR)
	set(hNegInt, bytecode.OpNegInt)
	set(hNotInt, bytecode.OpNotInt)
	set(hBinop, bytecode.OpAddInt, bytecode.OpSubInt, bytecode.OpMulInt,
		bytecode.OpDivInt, bytecode.OpRemInt, bytecode.OpAndInt,
		bytecode.OpOrInt, bytecode.OpXorInt, bytecode.OpShlInt,
		bytecode.OpShrInt, bytecode.OpUshrInt)
	set(hAddLit16, bytecode.OpAddIntLit16)
	set(hLit8, bytecode.OpAddIntLit8, bytecode.OpMulIntLit8, bytecode.OpDivIntLit8,
		bytecode.OpRemIntLit8, bytecode.OpAndIntLit8, bytecode.OpOrIntLit8,
		bytecode.OpXorIntLit8, bytecode.OpShlIntLit8, bytecode.OpShrIntLit8)
	set(hRsubLit8, bytecode.OpRsubIntLit8)
}

func hNop(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.pc += width
	return Value{}, false, nil
}

func hMove(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = f.regs[in.B]
	f.pc += width
	return Value{}, false, nil
}

func hMoveResult(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = f.result
	f.hasRes = false
	f.pc += width
	return Value{}, false, nil
}

func hMoveException(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	if f.pending == nil {
		f.regs[in.A] = NullVal()
	} else {
		f.regs[in.A] = RefVal(f.pending)
	}
	f.pending = nil
	f.pc += width
	return Value{}, false, nil
}

func hReturnVoid(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	return Value{Kind: KindInt}, true, nil
}

func hReturn(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	return f.regs[in.A], true, nil
}

func hConst(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = IntVal(in.Lit)
	f.pc += width
	return Value{}, false, nil
}

func hConstString(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = RefVal(rt.NewString(f.method.Class.File.String(in.Index)))
	f.pc += width
	return Value{}, false, nil
}

func hConstClass(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	desc := f.method.Class.File.TypeName(in.Index)
	cls, err := rt.FindClass(desc)
	if err != nil {
		return Value{}, false, rt.Throw("Ljava/lang/ClassNotFoundException;", desc)
	}
	f.regs[in.A] = RefVal(rt.classObject(cls))
	f.pc += width
	return Value{}, false, nil
}

func hCheckCast(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	if err := rt.checkCast(f.regs[in.A], f.method.Class.File.TypeName(in.Index)); err != nil {
		return Value{}, false, err
	}
	f.pc += width
	return Value{}, false, nil
}

func hInstanceOf(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = BoolVal(rt.instanceOf(f.regs[in.B], f.method.Class.File.TypeName(in.Index)))
	f.pc += width
	return Value{}, false, nil
}

func hArrayLength(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	arr := f.regs[in.B]
	if arr.IsNull() {
		return Value{}, false, rt.Throw("Ljava/lang/NullPointerException;", "array-length on null")
	}
	if arr.Ref == nil {
		return Value{}, false, rt.verifyError("array-length on a primitive")
	}
	f.regs[in.A] = IntVal(int64(len(arr.Ref.Elems))).WithTaint(arr.Taint)
	f.pc += width
	return Value{}, false, nil
}

func hNewInstance(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	desc := f.method.Class.File.TypeName(in.Index)
	cls, err := rt.FindClass(desc)
	if err != nil {
		return Value{}, false, rt.Throw("Ljava/lang/ClassNotFoundException;", desc)
	}
	if err := rt.ensureInitialized(st, cls); err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = RefVal(rt.NewInstance(cls))
	f.pc += width
	return Value{}, false, nil
}

func hNewArray(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	arr, err := rt.NewArray(f.method.Class.File.TypeName(in.Index), int(f.regs[in.B].Int))
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = RefVal(arr)
	f.pc += width
	return Value{}, false, nil
}

func hThrow(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	if f.regs[in.A].IsNull() {
		return Value{}, false, rt.Throw("Ljava/lang/NullPointerException;", "throw null")
	}
	return Value{}, false, &ThrownError{Obj: f.regs[in.A].Ref}
}

func hGoto(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.pc += int(in.Off)
	return Value{}, false, nil
}

func hSwitch(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	key := int32(f.regs[in.A].Int)
	target := width // fall through past the 31t instruction
	for i, k := range in.Keys {
		if k == key {
			target = int(in.Targets[i])
			break
		}
	}
	f.pc += target
	return Value{}, false, nil
}

func hIf(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	taken := evalBranch(in.Op, f.regs[in.A], f.regs[in.B])
	taken = rt.branchHook(f.method, f.pc, taken)
	if taken {
		f.pc += int(in.Off)
	} else {
		f.pc += width
	}
	return Value{}, false, nil
}

func hIfZ(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	// The z-form opcodes mirror the two-register forms shifted by 6.
	taken := evalBranch(in.Op-6, f.regs[in.A], IntVal(0))
	taken = rt.branchHook(f.method, f.pc, taken)
	if taken {
		f.pc += int(in.Off)
	} else {
		f.pc += width
	}
	return Value{}, false, nil
}

func hAGet(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	v, err := rt.arrayGet(f.regs[in.B], f.regs[in.C])
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = v
	f.pc += width
	return Value{}, false, nil
}

func hAPut(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	if err := rt.arrayPut(f.regs[in.B], f.regs[in.C], f.regs[in.A]); err != nil {
		return Value{}, false, err
	}
	f.pc += width
	return Value{}, false, nil
}

func hIGet(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	obj := f.regs[in.B]
	if obj.IsNull() {
		return Value{}, false, rt.Throw("Ljava/lang/NullPointerException;",
			"iget on null in "+f.method.Key())
	}
	if obj.Ref == nil {
		return Value{}, false, rt.verifyError("iget on a primitive in %s", f.method.Key())
	}
	f.regs[in.A] = obj.Ref.Field(f.method.Class.File.FieldAt(in.Index).Name)
	f.pc += width
	return Value{}, false, nil
}

func hIPut(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	obj := f.regs[in.B]
	if obj.IsNull() {
		return Value{}, false, rt.Throw("Ljava/lang/NullPointerException;",
			"iput on null in "+f.method.Key())
	}
	if obj.Ref == nil {
		return Value{}, false, rt.verifyError("iput on a primitive in %s", f.method.Key())
	}
	obj.Ref.SetField(f.method.Class.File.FieldAt(in.Index).Name, f.regs[in.A])
	f.pc += width
	return Value{}, false, nil
}

func hSGet(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	v, err := rt.staticGet(st, f.method, in)
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = v
	f.pc += width
	return Value{}, false, nil
}

func hSPut(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	if err := rt.staticPut(st, f.method, in, f.regs[in.A]); err != nil {
		return Value{}, false, err
	}
	f.pc += width
	return Value{}, false, nil
}

func hInvoke(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	if err := rt.doInvoke(st, f, in); err != nil {
		return Value{}, false, err
	}
	f.pc += width
	return Value{}, false, nil
}

func hNegInt(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = IntVal(int64(-int32(f.regs[in.B].Int))).WithTaint(f.regs[in.B].Taint)
	f.pc += width
	return Value{}, false, nil
}

func hNotInt(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	f.regs[in.A] = IntVal(int64(^int32(f.regs[in.B].Int))).WithTaint(f.regs[in.B].Taint)
	f.pc += width
	return Value{}, false, nil
}

func hBinop(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	r, err := rt.binop(in.Op, f.regs[in.B], f.regs[in.C])
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = r
	f.pc += width
	return Value{}, false, nil
}

func hAddLit16(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	r, err := rt.binop(bytecode.OpAddInt, f.regs[in.B], IntVal(in.Lit))
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = r
	f.pc += width
	return Value{}, false, nil
}

func hLit8(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	r, err := rt.binop(lit8Base(in.Op), f.regs[in.B], IntVal(in.Lit))
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = r
	f.pc += width
	return Value{}, false, nil
}

func hRsubLit8(rt *Runtime, st *execState, f *frame, in *bytecode.Inst, width int) (Value, bool, error) {
	r, err := rt.binop(bytecode.OpSubInt, IntVal(in.Lit), f.regs[in.B])
	if err != nil {
		return Value{}, false, err
	}
	f.regs[in.A] = r
	f.pc += width
	return Value{}, false, nil
}
