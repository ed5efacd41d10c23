package art

import (
	"fmt"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// execState carries the per-top-level-call interpreter state: the frame
// stack (for caller introspection by natives), the step budget, and depth
// accounting.
type execState struct {
	rt     *Runtime
	steps  int
	budget int
	frames []*frame
}

type frame struct {
	method  *Method
	regs    []Value
	pc      int
	result  Value
	hasRes  bool
	pending *Object // caught exception awaiting move-exception

	// Live-code binding (see predecode.go): the predecoded program this
	// frame executes from (nil with predecode off), plus the live-code
	// identity it was bound against. Any mismatch between these and the
	// method's current state means the code was modified and the frame must
	// rebind before the next step.
	prog    *bytecode.Program
	bindGen uint64
	bindLen int
	bindPtr *uint16
}

func (rt *Runtime) newExecState() *execState {
	return &execState{rt: rt, budget: rt.MaxSteps}
}

// callerFrame returns the innermost bytecode frame, which for a native
// method is its caller.
func (st *execState) callerFrame() *frame {
	if len(st.frames) == 0 {
		return nil
	}
	return st.frames[len(st.frames)-1]
}

// getFrame hands out a frame from the runtime's freelist with zeroed
// registers, falling back to a fresh allocation. Frames never escape a
// completed invoke, so pooling them (and their register arrays) removes the
// two hottest allocations of the step loop.
func (rt *Runtime) getFrame(m *Method) *frame {
	n := len(rt.freeFrames)
	if n == 0 {
		return &frame{method: m, regs: make([]Value, m.RegistersSize)}
	}
	f := rt.freeFrames[n-1]
	rt.freeFrames = rt.freeFrames[:n-1]
	regs := f.regs
	*f = frame{method: m}
	if cap(regs) >= m.RegistersSize {
		regs = regs[:m.RegistersSize]
		clear(regs)
		f.regs = regs
	} else {
		f.regs = make([]Value, m.RegistersSize)
	}
	return f
}

func (rt *Runtime) putFrame(f *frame) {
	if len(rt.freeFrames) >= defaultMaxDepth {
		return
	}
	f.method = nil
	f.pending = nil
	f.prog = nil
	f.result = Value{}
	rt.freeFrames = append(rt.freeFrames, f)
}

// invoke dispatches a method call: native bridge or bytecode frame.
func (rt *Runtime) invoke(st *execState, m *Method, recv *Object, args []Value) (Value, error) {
	for _, fn := range rt.methodEnter {
		fn(m)
	}
	defer func() {
		for _, fn := range rt.methodExit {
			fn(m)
		}
	}()

	if native := rt.nativeFor(m); native != nil {
		env := &Env{rt: rt, st: st}
		return native(env, recv, args)
	}
	if m.Insns == nil {
		// Abstract or unresolved-native method.
		return Value{}, rt.Throw("Ljava/lang/RuntimeException;",
			fmt.Sprintf("no implementation for %s", m.Key()))
	}
	if len(st.frames) >= defaultMaxDepth {
		return Value{}, ErrStackOverfl
	}

	// Parameters occupy the highest registers (ins), laid out by the
	// prototype: a body that declares other ins fails verification.
	if ins := dex.InsSize(m.Sig.Words, m.AccessFlags); m.InsSize != ins {
		return Value{}, rt.verifyError("%s declares ins %d, its prototype takes %d",
			m.Key(), m.InsSize, ins)
	}
	base := m.RegistersSize - m.InsSize
	if base < 0 {
		return Value{}, fmt.Errorf("art: %s: ins %d exceed registers %d",
			m.Key(), m.InsSize, m.RegistersSize)
	}
	f := rt.getFrame(m)
	idx := base
	if !m.IsStatic() {
		if idx < len(f.regs) {
			f.regs[idx] = RefVal(recv)
		}
		idx++
	}
	for _, a := range args {
		if idx >= len(f.regs) {
			break
		}
		f.regs[idx] = a
		idx++
	}

	st.frames = append(st.frames, f)
	for _, h := range rt.hooks {
		if h.MethodEntered != nil {
			h.MethodEntered(m)
		}
	}
	v, err := rt.run(st, f)
	st.frames = st.frames[:len(st.frames)-1]
	for _, h := range rt.hooks {
		if h.MethodExited != nil {
			h.MethodExited(m)
		}
	}
	rt.putFrame(f)
	return v, err
}

// nativeFor resolves the native implementation of m, if any: framework
// methods carry it directly; application methods declared native resolve
// through the registry at call time (JNI symbol lookup).
func (rt *Runtime) nativeFor(m *Method) NativeFunc {
	if m.Native != nil {
		return m.Native
	}
	if m.AccessFlags&0x0100 != 0 { // AccNative
		return rt.natives[m.Key()]
	}
	return nil
}

// handleThrow walks the frame's try blocks for a handler matching ex,
// landing the frame on the handler when found: ThrownError values pass
// through bytecode-level handlers, infrastructure errors (budget, stack)
// do not.
func (rt *Runtime) handleThrow(f *frame, ex *Object) bool {
	for _, t := range f.method.Tries {
		if !t.Covers(f.pc) {
			continue
		}
		for _, h := range t.Handlers {
			desc := f.method.Class.File.TypeName(h.Type)
			cls, err := rt.FindClass(desc)
			if err != nil {
				continue
			}
			if ex.Class.IsSubclassOf(cls) {
				f.pending = ex
				f.pc = int(h.Addr)
				return true
			}
		}
		if t.CatchAll >= 0 {
			f.pending = ex
			f.pc = int(t.CatchAll)
			return true
		}
	}
	return false
}

// run executes a bytecode frame to completion through the handler table,
// fetching instructions from the method's predecoded program (with a live
// bytecode.Decode fallback for unmapped pcs and predecode-off mode).
func (rt *Runtime) run(st *execState, f *frame) (Value, error) {
	m := f.method
	rt.bindProgram(f)
	// Decode buffer for pcs outside the predecoded stream, hoisted so the
	// pointer handed to hooks and handlers does not force a per-iteration
	// heap allocation (hooks must not retain it past the call).
	var local bytecode.Inst
	for {
		st.steps++
		if st.steps > st.budget {
			return Value{}, ErrStepBudget
		}
		if f.pc < 0 || f.pc >= len(m.Insns) {
			return Value{}, fmt.Errorf("art: %s: pc %d out of bounds", m.Key(), f.pc)
		}
		if f.bindStale() {
			rt.bindProgram(f) // live code changed under us: drop and rebuild
		}

		// Fetch: predecoded stream first, live decode for unmapped pcs.
		var (
			d     *bytecode.DecodedInst
			in    *bytecode.Inst
			width int
		)
		if f.prog != nil {
			d = f.prog.Lookup(f.pc)
		}
		if d != nil {
			in, width = &d.Inst, d.Width
		} else {
			var derr error
			local, width, derr = bytecode.Decode(m.Insns, f.pc)
			if derr != nil {
				for _, h := range rt.hooks {
					if h.Instruction != nil {
						h.Instruction(m, f.pc, m.Insns, nil)
					}
				}
				return Value{}, fmt.Errorf("art: %s: %w", m.Key(), derr)
			}
			in = &local
		}

		for _, h := range rt.hooks {
			if h.Instruction != nil {
				h.Instruction(m, f.pc, m.Insns, in)
			}
		}
		// Forced exception edges: a hook may demand that this instruction
		// throws instead of executing.
		var injected error
		for _, h := range rt.hooks {
			if h.InjectException == nil {
				continue
			}
			if desc := h.InjectException(m, f.pc); desc != "" {
				injected = rt.Throw(desc, "forced exception edge")
				break
			}
		}

		var v Value
		var done bool
		var err error
		if injected != nil {
			err = injected
		} else {
			// Format-aware bounds check over every register operand (A is a
			// count, not a register, for invoke formats). Predecoded
			// instructions carry the ceiling; the fallback recomputes it.
			var maxReg int32
			if d != nil {
				maxReg = d.MaxReg
			} else {
				maxReg = bytecode.MaxRegister(*in)
			}
			if int(maxReg) >= len(f.regs) {
				return Value{}, fmt.Errorf("art: %s: register v%d out of range at pc %d",
					m.Key(), maxReg, f.pc)
			}
			if h := handlers[in.Op]; h != nil {
				v, done, err = h(rt, st, f, in, width)
			} else {
				err = fmt.Errorf("art: %s: unimplemented opcode %s", m.Key(), in.Op)
			}
		}
		if err != nil {
			var thrown *ThrownError
			if asThrown(err, &thrown) {
				if rt.handleThrow(f, thrown.Obj) {
					continue
				}
				cleared := false
				for _, h := range rt.hooks {
					if h.Unhandled != nil && h.Unhandled(m, f.pc, thrown.Obj) {
						cleared = true
					}
				}
				if cleared {
					// Tolerate: resume after the faulting instruction with a
					// zeroed invoke result (force-execution crash avoidance).
					// Falling off the end becomes an implicit return.
					f.hasRes = false
					f.result = Value{Kind: KindInt}
					f.pc += width
					if f.pc >= len(m.Insns) {
						return Value{Kind: KindInt}, nil
					}
					continue
				}
			}
			return Value{}, err
		}
		if done {
			return v, nil
		}
	}
}

func asThrown(err error, out **ThrownError) bool {
	t, ok := err.(*ThrownError)
	if ok {
		*out = t
	}
	return ok
}

func lit8Base(op bytecode.Opcode) bytecode.Opcode {
	switch op {
	case bytecode.OpAddIntLit8:
		return bytecode.OpAddInt
	case bytecode.OpMulIntLit8:
		return bytecode.OpMulInt
	case bytecode.OpDivIntLit8:
		return bytecode.OpDivInt
	case bytecode.OpRemIntLit8:
		return bytecode.OpRemInt
	case bytecode.OpAndIntLit8:
		return bytecode.OpAndInt
	case bytecode.OpOrIntLit8:
		return bytecode.OpOrInt
	case bytecode.OpXorIntLit8:
		return bytecode.OpXorInt
	case bytecode.OpShlIntLit8:
		return bytecode.OpShlInt
	case bytecode.OpShrIntLit8:
		return bytecode.OpShrInt
	default:
		return op
	}
}

func (rt *Runtime) branchHook(m *Method, pc int, in bytecode.Inst, taken bool) bool {
	for _, h := range rt.hooks {
		if h.Branch == nil {
			continue
		}
		if override, forced := h.Branch(m, pc, in, taken); override {
			taken = forced
		}
	}
	return taken
}

// evalBranch evaluates an if-test over two register values. References
// compare by identity (a null reference also compares equal to integer 0,
// matching the verifier-tolerated null-check idiom).
func evalBranch(op bytecode.Opcode, a, b Value) bool {
	if a.Kind == KindRef || b.Kind == KindRef {
		eq := refEqual(a, b)
		switch op {
		case bytecode.OpIfEq:
			return eq
		case bytecode.OpIfNe:
			return !eq
		default:
			return false // ordered comparison on references is undefined
		}
	}
	return compare(op, a.Int, b.Int)
}

func refEqual(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Kind == KindRef && b.Kind == KindRef && a.Ref == b.Ref
}

func compare(op bytecode.Opcode, a, b int64) bool {
	switch op {
	case bytecode.OpIfEq:
		return a == b
	case bytecode.OpIfNe:
		return a != b
	case bytecode.OpIfLt:
		return a < b
	case bytecode.OpIfGe:
		return a >= b
	case bytecode.OpIfGt:
		return a > b
	case bytecode.OpIfLe:
		return a <= b
	default:
		return false
	}
}

func (rt *Runtime) binop(op bytecode.Opcode, a, b Value) (Value, error) {
	x, y := int32(a.Int), int32(b.Int)
	var r int32
	switch op {
	case bytecode.OpAddInt:
		r = x + y
	case bytecode.OpSubInt:
		r = x - y
	case bytecode.OpMulInt:
		r = x * y
	case bytecode.OpDivInt, bytecode.OpRemInt:
		if y == 0 {
			return Value{}, rt.Throw("Ljava/lang/ArithmeticException;", "divide by zero")
		}
		if op == bytecode.OpDivInt {
			r = x / y
		} else {
			r = x % y
		}
	case bytecode.OpAndInt:
		r = x & y
	case bytecode.OpOrInt:
		r = x | y
	case bytecode.OpXorInt:
		r = x ^ y
	case bytecode.OpShlInt:
		r = x << (uint32(y) & 31)
	case bytecode.OpShrInt:
		r = x >> (uint32(y) & 31)
	case bytecode.OpUshrInt:
		r = int32(uint32(x) >> (uint32(y) & 31))
	default:
		return Value{}, fmt.Errorf("art: bad binop %s", op)
	}
	return IntVal(int64(r)).WithTaint(a.Taint | b.Taint), nil
}

// verifyError throws the VerifyError ART's verifier raises for bytecode it
// rejects and the interpreter meets only at run time: a primitive register
// used as an object, an invoke whose kind misses its target's (invoke-static
// of an instance method, any other invoke of a static one), or an invoke
// whose argument words miss its target's prototype in count or in kind.
func (rt *Runtime) verifyError(format string, args ...any) error {
	return rt.Throw("Ljava/lang/VerifyError;", fmt.Sprintf(format, args...))
}

func (rt *Runtime) arrayGet(arr, idx Value) (Value, error) {
	if arr.IsNull() {
		return Value{}, rt.Throw("Ljava/lang/NullPointerException;", "aget on null")
	}
	if arr.Ref == nil {
		return Value{}, rt.verifyError("aget on a primitive")
	}
	i := idx.Int
	if i < 0 || int(i) >= len(arr.Ref.Elems) {
		return Value{}, rt.Throw("Ljava/lang/ArrayIndexOutOfBoundsException;",
			fmt.Sprintf("index %d length %d", i, len(arr.Ref.Elems)))
	}
	v := arr.Ref.Elems[i]
	v.Taint |= arr.Taint | arr.Ref.Taint
	return v, nil
}

func (rt *Runtime) arrayPut(arr, idx, val Value) error {
	if arr.IsNull() {
		return rt.Throw("Ljava/lang/NullPointerException;", "aput on null")
	}
	if arr.Ref == nil {
		return rt.verifyError("aput on a primitive")
	}
	i := idx.Int
	if i < 0 || int(i) >= len(arr.Ref.Elems) {
		return rt.Throw("Ljava/lang/ArrayIndexOutOfBoundsException;",
			fmt.Sprintf("index %d length %d", i, len(arr.Ref.Elems)))
	}
	arr.Ref.Elems[i] = val
	return nil
}

func (rt *Runtime) staticGet(st *execState, m *Method, in *bytecode.Inst) (Value, error) {
	ref := m.Class.File.FieldAt(in.Index)
	c, err := rt.FindClass(ref.Class)
	if err != nil {
		return Value{}, rt.Throw("Ljava/lang/ClassNotFoundException;", ref.Class)
	}
	if err := rt.ensureInitialized(st, c); err != nil {
		return Value{}, err
	}
	for k := c; k != nil; k = k.Super {
		if v, ok := k.Statics[ref.Name]; ok {
			return v, nil
		}
	}
	return Value{}, rt.Throw("Ljava/lang/RuntimeException;", "no such static field "+ref.Key())
}

func (rt *Runtime) staticPut(st *execState, m *Method, in *bytecode.Inst, v Value) error {
	ref := m.Class.File.FieldAt(in.Index)
	c, err := rt.FindClass(ref.Class)
	if err != nil {
		return rt.Throw("Ljava/lang/ClassNotFoundException;", ref.Class)
	}
	if err := rt.ensureInitialized(st, c); err != nil {
		return err
	}
	for k := c; k != nil; k = k.Super {
		if _, ok := k.Statics[ref.Name]; ok {
			k.Statics[ref.Name] = v
			return nil
		}
	}
	if c.Statics == nil {
		// Framework clones without declared statics leave the map nil.
		c.Statics = make(map[string]Value, 1)
	}
	c.Statics[ref.Name] = v
	return nil
}

func (rt *Runtime) checkCast(v Value, desc string) error {
	if v.IsNull() {
		return nil
	}
	if v.Ref == nil {
		return rt.verifyError("check-cast of a primitive to %s", desc)
	}
	if !rt.instanceOf(v, desc) {
		return rt.Throw("Ljava/lang/ClassCastException;",
			v.Ref.Class.Descriptor+" cannot be cast to "+desc)
	}
	return nil
}

func (rt *Runtime) instanceOf(v Value, desc string) bool {
	if v.Kind != KindRef || v.Ref == nil {
		return false
	}
	if desc == "Ljava/lang/Object;" {
		return true
	}
	target, err := rt.FindClass(desc)
	if err != nil {
		return false
	}
	return v.Ref.Class.IsSubclassOf(target)
}

func (rt *Runtime) doInvoke(st *execState, f *frame, in *bytecode.Inst) error {
	m := f.method
	ref := m.Class.File.MethodAt(in.Index)
	instance := in.Op != bytecode.OpInvokeStatic && in.Op != bytecode.OpInvokeStaticR

	var recv *Object
	argRegs := in.Args
	if instance {
		if len(argRegs) == 0 {
			return fmt.Errorf("art: %s: instance invoke without receiver", m.Key())
		}
		rv := f.regs[argRegs[0]]
		if rv.IsNull() {
			return rt.Throw("Ljava/lang/NullPointerException;",
				"invoke "+ref.Key()+" on null in "+m.Key())
		}
		if rv.Ref == nil {
			return rt.verifyError("invoke %s on a primitive in %s", ref.Key(), m.Key())
		}
		recv = rv.Ref
		argRegs = argRegs[1:]
	}
	args := make([]Value, len(argRegs))
	for i, r := range argRegs {
		if int(r) >= len(f.regs) {
			return fmt.Errorf("art: %s: arg register v%d out of range", m.Key(), r)
		}
		args[i] = f.regs[r]
	}

	var target *Method
	switch in.Op {
	case bytecode.OpInvokeVirtual, bytecode.OpInvokeInterface,
		bytecode.OpInvokeVirtualR, bytecode.OpInvokeInterR:
		target = recv.Class.FindMethod(ref.Name, ref.Signature)
	case bytecode.OpInvokeSuper, bytecode.OpInvokeSuperR:
		if m.Class.Super != nil {
			target = m.Class.Super.FindMethod(ref.Name, ref.Signature)
		}
	default: // direct, static
		c, err := rt.FindClass(ref.Class)
		if err != nil {
			return rt.Throw("Ljava/lang/ClassNotFoundException;", ref.Class)
		}
		if err := rt.ensureInitialized(st, c); err != nil {
			return err
		}
		target = c.FindMethod(ref.Name, ref.Signature)
	}
	if target == nil {
		return rt.Throw("Ljava/lang/NoSuchMethodException;", ref.Key())
	}
	if target.IsStatic() == instance {
		return rt.verifyError("%s of %s (static: %v) in %s", in.Op, target.Key(), target.IsStatic(), m.Key())
	}
	if len(args) != target.Sig.Words {
		return rt.verifyError("invoke %s passes %d argument words, its prototype takes %d, in %s",
			ref.Key(), len(args), target.Sig.Words, m.Key())
	}
	for w, refs := 0, target.Sig.Refs; refs != 0; w, refs = w+1, refs>>1 {
		if refs&1 != 0 && args[w].Ref == nil && !args[w].IsNull() {
			return rt.verifyError("invoke %s passes a primitive as reference argument word %d, in %s",
				ref.Key(), w, m.Key())
		}
	}
	res, err := rt.invoke(st, target, recv, args)
	if err != nil {
		return err
	}
	f.result = res
	f.hasRes = true
	return nil
}
