package art

import (
	"dexlego/internal/apimodel"
	"dexlego/internal/bytecode"
)

// Hooks is the instrumentation surface of the runtime. Each field is
// optional, but a nil field is cheap rather than free: every installed hook
// set is still visited, and the field checked, at each event. DexLego's
// collector, the coverage tracker, the force-execution engine and the
// dynamic taint analyses are all implemented as Hooks instances, mirroring
// the paper's modifications to ART's class linker and interpretation
// functions.
type Hooks struct {
	// ClassInitialized fires after <clinit> and static value initialization.
	ClassInitialized func(c *Class)
	// MethodEntered fires when a bytecode method's frame is set up.
	MethodEntered func(m *Method)
	// MethodExited fires when a bytecode method returns, throws out, or is
	// abandoned.
	MethodExited func(m *Method)
	// Instruction fires before each instruction executes. insns is the live
	// instruction array — self-modified code is visible here, which is what
	// makes instruction-level JIT collection possible. in is the decoded
	// instruction about to execute, or nil when decoding failed at pc;
	// hooks must not mutate it (Clone first). When it is the bound
	// program's instruction at pc (see Method.Program), an immutable
	// snapshot, a hook may keep the pointer beyond the call. Otherwise it is
	// the interpreter's scratch for a live-decoded pc, which the next step
	// overwrites, so a hook keeps a copy. Hooks must not write into insns;
	// live-code mutation goes through Env.TamperMethod so the predecode
	// cache is invalidated.
	Instruction func(m *Method, pc int, insns []uint16, in *bytecode.Inst)
	// Branch fires for each conditional branch with the evaluated outcome;
	// returning override=true forces newTaken instead (force execution).
	Branch func(m *Method, pc int, in bytecode.Inst, taken bool) (override, newTaken bool)
	// ReflectiveCall fires when Method.invoke resolves its target, exposing
	// the reflection target the paper rewrites into a direct call.
	ReflectiveCall func(caller *Method, callerPC int, target *Method)
	// Unhandled fires when an exception is about to propagate out of a
	// method with no matching handler; returning true clears the exception
	// and resumes after the faulting instruction (force-execution
	// tolerance).
	Unhandled func(m *Method, pc int, ex *Object) bool
	// InjectException, when it returns a non-empty exception class
	// descriptor, makes the interpreter throw at this dex_pc instead of
	// executing the instruction. The force-execution extension uses it to
	// treat try/catch edges as forceable branches (the paper's future work
	// for its third coverage-loss category).
	InjectException func(m *Method, pc int) string
	// CodeWritten fires whenever a write into a method's live unit array is
	// observed, in both predecode modes: a TamperMethod call, or a frame
	// finding the method's unit slice replaced since its last bind (a
	// silent code swap; one made before the method's first bind is not
	// observed). These are the self-modification points where
	// collection-tree forks originate; the incremental reveal path uses it
	// to mark self-modified methods uncacheable. pc is the dex_pc of the
	// observation site (the tampering call site or the executing pc); -1
	// when outside bytecode.
	CodeWritten func(m *Method, pc int)
}

// SinkEvent records one execution of a sink API.
type SinkEvent struct {
	Sink     apimodel.SinkKind
	Method   string // sink method key
	Caller   string // bytecode caller method key ("" at top level)
	CallerPC int
	Taint    Taint // union of data-argument taints
	Args     []string
}

// Leaky reports whether tainted data reached the sink.
func (ev SinkEvent) Leaky() bool { return ev.Taint != 0 }
