package art

import (
	"fmt"
	"slices"

	"dexlego/internal/apimodel"
	"dexlego/internal/dex"
)

// Env is the JNI-environment stand-in handed to native methods. It exposes
// the operations real packers and self-modifying malware perform from
// native code: mutating live bytecode, defining DEX files at runtime,
// calling back into the interpreter, and reading package assets.
type Env struct {
	rt *Runtime
	st *execState
}

// Runtime returns the owning runtime.
func (e *Env) Runtime() *Runtime { return e.rt }

// Device returns the device environment.
func (e *Env) Device() Device { return e.rt.Device }

// FindClass resolves a loaded class.
func (e *Env) FindClass(descriptor string) (*Class, error) {
	return e.rt.FindClass(descriptor)
}

// DefineDex parses raw DEX bytes and links the contained classes (dynamic
// code loading).
func (e *Env) DefineDex(data []byte) ([]*Class, error) {
	f, err := dex.Read(data)
	if err != nil {
		return nil, fmt.Errorf("art: define dex: %w", err)
	}
	return e.DefineDexFile(f)
}

// DefineDexFile links an already-parsed DEX file.
func (e *Env) DefineDexFile(f *dex.File) ([]*Class, error) {
	return e.rt.LoadDex(f)
}

// TamperMethod mutates the live instruction array of a loaded method — the
// self-modifying-code primitive of the paper's Code 1. The mutation function
// receives a private copy of the live units and may rewrite them in place or
// return a replacement; either becomes the method's live array. The live
// array itself is never written: it may be the input DEX's units, shared
// with every sibling runtime (see Method.Insns). A tamper is rare, so the
// copy is made on every call rather than tracking who owns the array.
func (e *Env) TamperMethod(classDesc, name string, mutate func(insns []uint16) []uint16) error {
	c, err := e.rt.FindClass(classDesc)
	if err != nil {
		return err
	}
	m := c.FindMethod(name, "")
	if m == nil {
		return fmt.Errorf("art: tamper: method %s->%s not found", classDesc, name)
	}
	if m.Insns == nil {
		return fmt.Errorf("art: tamper: method %s is not bytecode", m.Key())
	}
	live := slices.Clone(m.Insns)
	if out := mutate(live); out != nil {
		live = out
	}
	m.Insns = live
	pc := -1
	if caller, callerPC := e.Caller(); caller != nil {
		pc = callerPC
	}
	m.invalidateCode(e.rt, pc)
	return nil
}

// MethodOf resolves a loaded method.
func (e *Env) MethodOf(classDesc, name, signature string) (*Method, error) {
	c, err := e.rt.FindClass(classDesc)
	if err != nil {
		return nil, err
	}
	m := c.FindMethod(name, signature)
	if m == nil {
		return nil, fmt.Errorf("art: method %s->%s%s not found", classDesc, name, signature)
	}
	return m, nil
}

// Call invokes a method within the current execution (shares the step
// budget and frame stack).
func (e *Env) Call(m *Method, recv *Object, args []Value) (Value, error) {
	if err := e.rt.ensureInitialized(e.st, m.Class); err != nil {
		return Value{}, err
	}
	return e.rt.invoke(e.st, m, recv, args)
}

// Caller returns the innermost bytecode method and dex_pc that invoked the
// current native method, or nil at top level.
func (e *Env) Caller() (*Method, int) {
	f := e.st.callerFrame()
	if f == nil {
		return nil, 0
	}
	return f.method, f.pc
}

// Throw returns a catchable in-app exception.
func (e *Env) Throw(descriptor, msg string) error {
	return e.rt.Throw(descriptor, msg)
}

// NewString allocates a string object.
func (e *Env) NewString(s string) *Object { return e.rt.NewString(s) }

// NewStringTainted allocates a string carrying source taint.
func (e *Env) NewStringTainted(s string, kind apimodel.TaintKind) *Object {
	o := e.rt.NewString(s)
	o.Taint = Taint(kind)
	return o
}

// Asset reads an asset from the loaded APK.
func (e *Env) Asset(name string) ([]byte, bool) {
	if e.rt.apk == nil {
		return nil, false
	}
	return e.rt.apk.Asset(name)
}

// NativeLib reads a native library entry from the loaded APK.
func (e *Env) NativeLib(name string) ([]byte, bool) {
	if e.rt.apk == nil {
		return nil, false
	}
	return e.rt.apk.NativeLib(name)
}

// RecordSink records a sink event attributed to the current caller.
func (e *Env) RecordSink(kind apimodel.SinkKind, methodKey string, dataArgs []Value, allArgs []Value) {
	var taint Taint
	for _, a := range dataArgs {
		taint |= a.EffectiveTaint()
	}
	ev := SinkEvent{Sink: kind, Method: methodKey, Taint: taint}
	if m, pc := e.Caller(); m != nil {
		ev.Caller = m.Key()
		ev.CallerPC = pc
	}
	// Every sink parameter is a reference, and a zero word there is null
	// (see IsNull), whether const/4 or a null reference put it there.
	for _, a := range allArgs {
		if a.IsNull() {
			ev.Args = append(ev.Args, "null")
			continue
		}
		ev.Args = append(ev.Args, Pretty(a))
	}
	e.rt.sinks = append(e.rt.sinks, ev)
}

// RedirectLaunch makes the in-progress activity launch continue with the
// given activity class once the current onCreate returns — the mechanism
// packer shells use to hand control to the unpacked original application
// under the normal lifecycle.
func (e *Env) RedirectLaunch(descriptor string) {
	e.rt.launchTarget = descriptor
}

// FireReflectiveCall notifies hooks that a reflective invocation resolved to
// target.
func (e *Env) FireReflectiveCall(target *Method) {
	caller, pc := e.Caller()
	for _, h := range e.rt.hooks {
		if h.ReflectiveCall != nil {
			h.ReflectiveCall(caller, pc, target)
		}
	}
}
