// Package dexgen is a high-level code generator over dex.Builder and
// bytecode.Assembler. The DroidBench sample suite, the synthetic AOSP,
// F-Droid and market applications, and the packer shells are all emitted
// through it. It handles parameter register conventions (smali-style pN
// registers above the declared locals), outs-size computation and
// label-anchored try/catch ranges.
package dexgen

import (
	"fmt"

	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// Program accumulates classes and produces a dex.File or an APK.
type Program struct {
	b   *dex.Builder
	err error

	codeArena []dex.Code // chunked allocator: pointers stay stable
	free      []*Asm     // assemblers whose body is built, ready for reuse
}

// newCode returns a zeroed dex.Code from the chunk allocator. Codes are
// handed to the Builder and retained, so they come from fixed-size chunks
// whose element addresses never move.
func (p *Program) newCode() *dex.Code {
	if len(p.codeArena) == 0 {
		p.codeArena = make([]dex.Code, 64)
	}
	c := &p.codeArena[0]
	p.codeArena = p.codeArena[1:]
	return c
}

// newAsm takes an Asm from the free list, or a new one if every Asm is in
// use: a body that declares another method while it is built (the
// reassembler's reflection bridges) holds its own.
func (p *Program) newAsm() *Asm {
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	return &Asm{p: p}
}

// assemble assembles a's body into code, builds its try table from the
// resolved labels when tries is set, and returns a to the free list. The try
// table is built before the reset: a label it allocates (the reassembler's
// never-executed handler) must stay unbound, not alias one the body bound.
func (p *Program) assemble(a *Asm, code *dex.Code, desc, name string, tries func(*bytecode.Labels) ([]dex.Try, error)) {
	res, err := a.asm.AssembleFull()
	if err != nil {
		p.fail("%s->%s: %v", desc, name, err)
	} else {
		code.Insns = res.Insns
		code.IndexFixups = res.Fixups
		if tries != nil {
			labels := res.Labels // only a body with a try table pays its escape
			if code.Tries, err = tries(&labels); err != nil {
				p.fail("%s->%s: tries: %v", desc, name, err)
			}
		}
	}
	a.asm.Reset()
	*a = Asm{p: p, asm: a.asm, tries: a.tries[:0]}
	p.free = append(p.free, a)
}

// New returns an empty program.
func New() *Program {
	return &Program{b: dex.NewBuilder()}
}

func (p *Program) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("dexgen: "+format, args...)
	}
}

// Builder exposes the underlying dex.Builder for advanced callers.
func (p *Program) Builder() *dex.Builder { return p.b }

// Class starts a class definition. Super defaults to java/lang/Object when
// empty.
func (p *Program) Class(descriptor, super string, interfaces ...string) *Class {
	if super == "" {
		super = "Ljava/lang/Object;"
	}
	cb := p.b.Class(descriptor, dex.AccPublic, super, interfaces...)
	return &Class{p: p, cb: cb, desc: descriptor}
}

// Finish canonicalizes and returns the DEX file model. Every method body
// was assembled when it was declared, so only the first error or the
// Builder's canonical sort is left.
func (p *Program) Finish() (*dex.File, error) {
	if p.err != nil {
		return nil, p.err
	}
	return p.b.Finish()
}

// Bytes finishes the program and serializes it to DEX binary form.
func (p *Program) Bytes() ([]byte, error) {
	f, err := p.Finish()
	if err != nil {
		return nil, err
	}
	return f.Write()
}

// BuildAPK finishes the program and wraps it into an APK.
func (p *Program) BuildAPK(pkg, version, mainActivity string) (*apk.APK, error) {
	data, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	a := apk.New(pkg, version, mainActivity)
	a.SetDex(data)
	return a, nil
}

// Class is a class under construction.
type Class struct {
	p    *Program
	cb   *dex.ClassBuilder
	desc string
}

// Source sets the source file name.
func (c *Class) Source(name string) *Class {
	c.cb.SourceFile(name)
	return c
}

// StaticString declares a static final string field with an initial value.
func (c *Class) StaticString(name, value string) *Class {
	v := dex.StringValue(c.p.b.String(value))
	c.cb.StaticField(name, "Ljava/lang/String;", dex.AccPublic|dex.AccFinal, &v)
	return c
}

// StaticBool declares a static boolean field.
func (c *Class) StaticBool(name string, value bool) *Class {
	v := dex.BoolValue(value)
	c.cb.StaticField(name, "Z", dex.AccPublic, &v)
	return c
}

// StaticInt declares a static int field.
func (c *Class) StaticInt(name string, value int64) *Class {
	v := dex.IntValue(value)
	c.cb.StaticField(name, "I", dex.AccPublic, &v)
	return c
}

// StaticField declares a static field of an arbitrary type with no initial
// value.
func (c *Class) StaticField(name, typ string) *Class {
	c.cb.StaticField(name, typ, dex.AccPublic, nil)
	return c
}

// Field declares an instance field.
func (c *Class) Field(name, typ string) *Class {
	c.cb.InstanceField(name, typ, dex.AccPrivate)
	return c
}

// Native declares a public static native method, the kind invoke-static
// calls. Declare an instance native with Bodyless.
func (c *Class) Native(name, ret string, params ...string) *Class {
	return c.Bodyless(name, ret, params, dex.AccPublic|dex.AccStatic|dex.AccNative)
}

// Bodyless declares a method without a code item: a native or an abstract
// method, as flags say. Flags also place it (dex.IsDirect).
func (c *Class) Bodyless(name, ret string, params []string, flags uint32) *Class {
	c.cb.Method(name, ret, params, flags, nil)
	return c
}

// MethodSpec describes a method to generate.
type MethodSpec struct {
	Name   string
	Ret    string
	Params []string
	Static bool
	Locals int // local registers below the parameter window (default 8)
}

// Method generates a method; gen emits its body into the Asm.
func (c *Class) Method(spec MethodSpec, gen func(a *Asm)) *Class {
	locals := spec.Locals
	if locals == 0 {
		locals = 8
	}
	flags := uint32(dex.AccPublic)
	if spec.Static {
		flags |= dex.AccStatic
	}
	if spec.Name == "<init>" {
		flags |= dex.AccConstructor
	}
	ins := dex.InsSize(dex.ParamWords(spec.Params), flags)
	return c.RawMethod(spec.Name, spec.Ret, spec.Params, flags, RawCode{Registers: locals + ins, Build: gen})
}

// Virtual is shorthand for a virtual method with default locals.
func (c *Class) Virtual(name, ret string, params []string, gen func(a *Asm)) *Class {
	return c.Method(MethodSpec{Name: name, Ret: ret, Params: params}, gen)
}

// Static is shorthand for a static method with default locals.
func (c *Class) Static(name, ret string, params []string, gen func(a *Asm)) *Class {
	return c.Method(MethodSpec{Name: name, Ret: ret, Params: params, Static: true}, gen)
}

// Ctor generates a constructor that calls the superclass default
// constructor and then runs gen (which may be nil).
func (c *Class) Ctor(super string, gen func(a *Asm)) *Class {
	return c.Method(MethodSpec{Name: "<init>", Ret: "V"}, func(a *Asm) {
		a.InvokeDirect(super, "<init>", "()V", a.This())
		if gen != nil {
			gen(a)
		}
		a.ReturnVoid()
	})
}

type tryCatch struct {
	start, end, handler, catchType string
}

// Asm extends the bytecode assembler with constant-pool resolution and
// parameter-register conventions.
type Asm struct {
	p      *Program
	asm    bytecode.Assembler
	locals int32
	static bool
	params []string // declared parameter types, which lay out P's registers
	tries  []tryCatch
}

// This returns the receiver register (instance methods only).
func (a *Asm) This() int32 { return a.locals }

// P returns the i-th declared parameter's register. A wide (J or D)
// parameter takes two registers, and P names the low one.
func (a *Asm) P(i int) int32 {
	base := a.locals
	if !a.static {
		base++
	}
	return base + int32(dex.ParamWords(a.params[:i]))
}

// Raw gives access to the underlying assembler.
func (a *Asm) Raw() *bytecode.Assembler { return &a.asm }

// Label binds a label.
func (a *Asm) Label(name string) *Asm {
	a.asm.Label(name)
	return a
}

// Catch registers a try range [start,end) with a typed handler; empty
// catchType means catch-all.
func (a *Asm) Catch(start, end, catchType, handler string) *Asm {
	a.tries = append(a.tries, tryCatch{start: start, end: end, handler: handler, catchType: catchType})
	return a
}

// tryTable anchors the Catch ranges at their resolved labels.
func (a *Asm) tryTable(labels *bytecode.Labels) ([]dex.Try, error) {
	var out []dex.Try
	for _, tc := range a.tries {
		start, ok1 := labels.Name(tc.start)
		end, ok2 := labels.Name(tc.end)
		handler, ok3 := labels.Name(tc.handler)
		if !ok1 || !ok2 || !ok3 || end < start {
			return nil, fmt.Errorf("bad try/catch labels %+v", tc)
		}
		try := dex.Try{Start: uint32(start), Count: uint32(end - start), CatchAll: -1}
		if tc.catchType == "" {
			try.CatchAll = int32(handler)
		} else {
			try.Handlers = []dex.TypeAddr{{Type: a.p.b.Type(tc.catchType), Addr: uint32(handler)}}
		}
		out = append(out, try)
	}
	return out, nil
}

// --- constant-pool aware emitters ------------------------------------------

// ConstString loads a string literal.
func (a *Asm) ConstString(reg int32, s string) *Asm {
	a.asm.ConstString(reg, a.p.b.String(s))
	return a
}

// Const loads an integer literal.
func (a *Asm) Const(reg int32, v int64) *Asm {
	a.asm.Const(reg, v)
	return a
}

// NewInstance allocates an instance.
func (a *Asm) NewInstance(reg int32, desc string) *Asm {
	a.asm.NewInstance(reg, a.p.b.Type(desc))
	return a
}

// NewArray allocates an array.
func (a *Asm) NewArray(dst, size int32, desc string) *Asm {
	a.asm.NewArray(dst, size, a.p.b.Type(desc))
	return a
}

// CheckCast emits check-cast.
func (a *Asm) CheckCast(reg int32, desc string) *Asm {
	a.asm.CheckCast(reg, a.p.b.Type(desc))
	return a
}

// InstanceOf emits instance-of.
func (a *Asm) InstanceOf(dst, src int32, desc string) *Asm {
	a.asm.InstanceOf(dst, src, a.p.b.Type(desc))
	return a
}

func (a *Asm) invoke(op bytecode.Opcode, cls, name, sig string, regs ...int32) *Asm {
	idx, err := a.p.b.MethodSig(cls, name, sig)
	if err != nil {
		a.p.fail("invoke %s->%s%s: %v", cls, name, sig, err)
		return a
	}
	ints := make([]int, len(regs))
	fits := true
	for i, r := range regs {
		ints[i] = int(r)
		if r > 0xf {
			fits = false
		}
	}
	if fits && len(regs) <= 5 {
		a.asm.Invoke(op, idx, ints...)
		return a
	}
	// Fall back to the range form; registers must be consecutive.
	rop := map[bytecode.Opcode]bytecode.Opcode{
		bytecode.OpInvokeVirtual:   bytecode.OpInvokeVirtualR,
		bytecode.OpInvokeSuper:     bytecode.OpInvokeSuperR,
		bytecode.OpInvokeDirect:    bytecode.OpInvokeDirectR,
		bytecode.OpInvokeStatic:    bytecode.OpInvokeStaticR,
		bytecode.OpInvokeInterface: bytecode.OpInvokeInterR,
	}[op]
	for i := 1; i < len(ints); i++ {
		if ints[i] != ints[0]+i {
			a.p.fail("invoke/range %s->%s: registers %v not consecutive", cls, name, ints)
			return a
		}
	}
	start := 0
	if len(ints) > 0 {
		start = ints[0]
	}
	a.asm.InvokeRange(rop, idx, start, len(ints))
	return a
}

// InvokeVirtual emits invoke-virtual (or its range form when needed).
func (a *Asm) InvokeVirtual(cls, name, sig string, regs ...int32) *Asm {
	return a.invoke(bytecode.OpInvokeVirtual, cls, name, sig, regs...)
}

// InvokeInterface emits invoke-interface.
func (a *Asm) InvokeInterface(cls, name, sig string, regs ...int32) *Asm {
	return a.invoke(bytecode.OpInvokeInterface, cls, name, sig, regs...)
}

// InvokeStatic emits invoke-static.
func (a *Asm) InvokeStatic(cls, name, sig string, regs ...int32) *Asm {
	return a.invoke(bytecode.OpInvokeStatic, cls, name, sig, regs...)
}

// InvokeDirect emits invoke-direct.
func (a *Asm) InvokeDirect(cls, name, sig string, regs ...int32) *Asm {
	return a.invoke(bytecode.OpInvokeDirect, cls, name, sig, regs...)
}

// InvokeSuper emits invoke-super.
func (a *Asm) InvokeSuper(cls, name, sig string, regs ...int32) *Asm {
	return a.invoke(bytecode.OpInvokeSuper, cls, name, sig, regs...)
}

// MoveResult / MoveResultObject / MoveObject / Move re-export assembler ops.
func (a *Asm) MoveResult(reg int32) *Asm       { a.asm.MoveResult(reg); return a }
func (a *Asm) MoveResultObject(reg int32) *Asm { a.asm.MoveResultObject(reg); return a }
func (a *Asm) MoveException(reg int32) *Asm    { a.asm.MoveException(reg); return a }
func (a *Asm) Move(dst, src int32) *Asm        { a.asm.Move(dst, src); return a }
func (a *Asm) MoveObject(dst, src int32) *Asm  { a.asm.MoveObject(dst, src); return a }

// Control flow.
func (a *Asm) Goto(label string) *Asm { a.asm.Goto(label); return a }
func (a *Asm) If(op bytecode.Opcode, va, vb int32, label string) *Asm {
	a.asm.If(op, va, vb, label)
	return a
}
func (a *Asm) IfZ(op bytecode.Opcode, v int32, label string) *Asm {
	a.asm.IfZ(op, v, label)
	return a
}
func (a *Asm) PackedSwitch(v int32, firstKey int32, labels []string) *Asm {
	a.asm.PackedSwitch(v, firstKey, labels)
	return a
}
func (a *Asm) SparseSwitch(v int32, keys []int32, labels []string) *Asm {
	a.asm.SparseSwitch(v, keys, labels)
	return a
}

// Returns.
func (a *Asm) ReturnVoid() *Asm            { a.asm.ReturnVoid(); return a }
func (a *Asm) Return(reg int32) *Asm       { a.asm.Return(reg); return a }
func (a *Asm) ReturnObj(reg int32) *Asm    { a.asm.ReturnObject(reg); return a }
func (a *Asm) Throw(reg int32) *Asm        { a.asm.Throw(reg); return a }
func (a *Asm) Nop() *Asm                   { a.asm.Nop(); return a }
func (a *Asm) ArrayLength(d, s int32) *Asm { a.asm.ArrayLength(d, s); return a }

// Arithmetic.
func (a *Asm) Binop(op bytecode.Opcode, dst, x, y int32) *Asm {
	a.asm.Binop(op, dst, x, y)
	return a
}
func (a *Asm) BinopLit8(op bytecode.Opcode, dst, src int32, lit int64) *Asm {
	a.asm.BinopLit8(op, dst, src, lit)
	return a
}
func (a *Asm) AddLit(dst, src int32, lit int64) *Asm {
	a.asm.BinopLit8(bytecode.OpAddIntLit8, dst, src, lit)
	return a
}

// Array element access.
func (a *Asm) AGet(op bytecode.Opcode, dst, arr, idx int32) *Asm {
	a.asm.AGet(op, dst, arr, idx)
	return a
}
func (a *Asm) APut(op bytecode.Opcode, src, arr, idx int32) *Asm {
	a.asm.APut(op, src, arr, idx)
	return a
}

// Fields.
func (a *Asm) fieldIdx(cls, name, typ string) uint32 { return a.p.b.Field(cls, name, typ) }

func (a *Asm) SGetObject(reg int32, cls, name, typ string) *Asm {
	a.asm.SGet(bytecode.OpSGetObject, reg, a.fieldIdx(cls, name, typ))
	return a
}
func (a *Asm) SPutObject(reg int32, cls, name, typ string) *Asm {
	a.asm.SPut(bytecode.OpSPutObject, reg, a.fieldIdx(cls, name, typ))
	return a
}
func (a *Asm) SGetInt(reg int32, cls, name string) *Asm {
	a.asm.SGet(bytecode.OpSGet, reg, a.fieldIdx(cls, name, "I"))
	return a
}
func (a *Asm) SPutInt(reg int32, cls, name string) *Asm {
	a.asm.SPut(bytecode.OpSPut, reg, a.fieldIdx(cls, name, "I"))
	return a
}
func (a *Asm) SGetBool(reg int32, cls, name string) *Asm {
	a.asm.SGet(bytecode.OpSGetBoolean, reg, a.fieldIdx(cls, name, "Z"))
	return a
}
func (a *Asm) IGetObject(dst, obj int32, cls, name, typ string) *Asm {
	a.asm.IGet(bytecode.OpIGetObject, dst, obj, a.fieldIdx(cls, name, typ))
	return a
}
func (a *Asm) IPutObject(src, obj int32, cls, name, typ string) *Asm {
	a.asm.IPut(bytecode.OpIPutObject, src, obj, a.fieldIdx(cls, name, typ))
	return a
}
func (a *Asm) IGetInt(dst, obj int32, cls, name string) *Asm {
	a.asm.IGet(bytecode.OpIGet, dst, obj, a.fieldIdx(cls, name, "I"))
	return a
}

// --- framework idioms -------------------------------------------------------

// GetIMEI emits the canonical IMEI source sequence into dst, clobbering
// scratch (dst and scratch must differ).
func (a *Asm) GetIMEI(dst, scratch int32) *Asm {
	a.ConstString(scratch, "phone")
	a.InvokeVirtual("Landroid/app/Activity;", "getSystemService",
		"(Ljava/lang/String;)Ljava/lang/Object;", a.This(), scratch)
	a.MoveResultObject(scratch)
	a.CheckCast(scratch, "Landroid/telephony/TelephonyManager;")
	a.InvokeVirtual("Landroid/telephony/TelephonyManager;", "getDeviceId",
		"()Ljava/lang/String;", scratch)
	a.MoveResultObject(dst)
	return a
}

// LogLeak emits Log.i(tag, vMsg) — the standard DroidBench sink.
func (a *Asm) LogLeak(tag string, msg, scratch int32) *Asm {
	a.ConstString(scratch, tag)
	a.InvokeStatic("Landroid/util/Log;", "i",
		"(Ljava/lang/String;Ljava/lang/String;)I", scratch, msg)
	return a
}

// SendSMS emits SmsManager.getDefault().sendTextMessage(dest, null, vMsg,
// null, null) using six consecutive registers starting at base. The message
// is moved into place first so the subsequent register fills cannot clobber
// it wherever it lives.
func (a *Asm) SendSMS(dest string, msg, base int32) *Asm {
	a.MoveObject(base+3, msg)
	a.InvokeStatic("Landroid/telephony/SmsManager;", "getDefault",
		"()Landroid/telephony/SmsManager;")
	a.MoveResultObject(base)
	a.ConstString(base+1, dest)
	a.Const(base+2, 0) // null scAddress
	a.Const(base+4, 0)
	a.Const(base+5, 0)
	a.InvokeVirtual("Landroid/telephony/SmsManager;", "sendTextMessage",
		"(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/Object;Ljava/lang/Object;)V",
		base, base+1, base+2, base+3, base+4, base+5)
	return a
}

// StaticInit declares a static field with explicit flags and an optional
// encoded initial value.
func (c *Class) StaticInit(name, typ string, flags uint32, v *dex.Value) *Class {
	c.cb.StaticField(name, typ, flags, v)
	return c
}

// FieldWithFlags declares an instance field with explicit access flags.
func (c *Class) FieldWithFlags(name, typ string, flags uint32) *Class {
	c.cb.InstanceField(name, typ, flags)
	return c
}

// RawCode is a method body for callers that bypass the locals/params
// convention (the reassembler): they choose the register count and the
// flags, and emit against raw registers. The prototype still sizes ins and
// the body's widest invoke sizes outs, as for Method.
type RawCode struct {
	Registers int
	Build     func(a *Asm)
	// TriesFn computes the try table from the resolved label positions,
	// right after the body is assembled and before its Asm is reused. Nil
	// anchors the ranges Build declared with Asm.Catch.
	TriesFn func(labels *bytecode.Labels) ([]dex.Try, error)
}

// RawMethod emits a method of rc.Registers registers whose top ins (sized
// from params and flags) hold the parameters. The Asm handed to rc.Build
// must not be retained past the Build call.
func (c *Class) RawMethod(name, ret string, params []string, flags uint32, rc RawCode) *Class {
	if c.p.err != nil {
		return c
	}
	ins := dex.InsSize(dex.ParamWords(params), flags)
	a := c.p.newAsm()
	a.locals = int32(rc.Registers - ins)
	a.static = flags&dex.AccStatic != 0
	a.params = params
	rc.Build(a)
	code := c.p.newCode()
	code.RegistersSize = uint16(rc.Registers)
	code.InsSize = uint16(ins)
	code.OutsSize = uint16(a.asm.Outs())
	tries := rc.TriesFn
	if tries == nil && len(a.tries) > 0 {
		tries = a.tryTable
	}
	c.p.assemble(a, code, c.desc, name, tries)
	c.cb.Method(name, ret, params, flags, code)
	return c
}

// ClassWithFlags starts a class definition with explicit access flags.
func (p *Program) ClassWithFlags(descriptor string, flags uint32, super string, interfaces ...string) *Class {
	if super == "" {
		super = "Ljava/lang/Object;"
	}
	cb := p.b.Class(descriptor, flags, super, interfaces...)
	return &Class{p: p, cb: cb, desc: descriptor}
}

// Unop emits a one-operand arithmetic instruction (neg-int, not-int).
func (a *Asm) Unop(op bytecode.Opcode, dst, src int32) *Asm {
	a.asm.Unop(op, dst, src)
	return a
}
