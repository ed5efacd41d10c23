package art

import (
	"errors"
	"fmt"

	"dexlego/internal/apk"
	"dexlego/internal/dex"
)

// Default execution limits. Force execution routinely drives control flow
// onto infeasible paths, so runaway loops must be bounded.
const (
	DefaultMaxSteps = 4_000_000
	defaultMaxDepth = 256
)

// Sentinel runtime errors.
var (
	ErrStepBudget   = errors.New("art: step budget exhausted")
	ErrStackOverfl  = errors.New("art: interpreter stack overflow")
	ErrNoMain       = errors.New("art: manifest has no main activity")
	errNotSupported = errors.New("art: unsupported operation")
)

// ThrownError wraps an in-app exception object propagating out of the
// interpreter as a Go error.
type ThrownError struct {
	Obj *Object
}

func (e *ThrownError) Error() string {
	msg := Pretty(e.Obj.Field("message"))
	return fmt.Sprintf("art: uncaught %s: %s", e.Obj.Class.Descriptor, msg)
}

// Runtime is one application runtime instance (one "device" process).
// It is not safe for concurrent use; each experiment builds its own.
type Runtime struct {
	Device   Device
	MaxSteps int

	classes      map[string]*Class
	fwTmpl       *fwTemplate      // device framework template (see fwtemplate.go)
	fwSlab       []*Class         // lazily cloned framework classes, by template index
	fwLookup     map[string]int32 // shared immutable descriptor -> template index
	natives      map[string]NativeFunc
	hooks        []*Hooks
	methodEnter  []func(*Method)
	methodExit   []func(*Method)
	apk          *apk.APK
	loadedDexes  []*dex.File
	sinks        []SinkEvent
	views        map[int64]*Object
	viewOrder    []int64
	intentExtras map[string]string
	extFiles     map[string]*Object // external storage: path -> string object
	classObjects map[*Class]*Object
	launchTarget string
	methodArena  []Method // bulk allocation backing for newMethod

	// Interpreter acceleration state (see predecode.go, interp.go).
	predecode  bool
	freeFrames []*frame // bounded frame pool for the invoke hot path

	// Hot framework singletons, resolved once at clone time so the
	// per-allocation paths (NewString, classObject) skip the class lookup.
	stringClass *Class
	classClass  *Class
}

// newMethod hands out Method structs carved from bulk allocations. Linking
// declares methods in bursts, so batching turns one heap object per method
// into one per batch. Arena chunks are retained as long as any method from
// them is; reserveMethods right-sizes the next chunk when the caller knows
// the demand up front (LoadDex counts the file's methods before linking).
func (rt *Runtime) newMethod() *Method {
	if len(rt.methodArena) == 0 {
		rt.methodArena = make([]Method, 64)
	}
	m := &rt.methodArena[0]
	rt.methodArena = rt.methodArena[1:]
	return m
}

// reserveMethods ensures the arena can hand out n methods without growing.
func (rt *Runtime) reserveMethods(n int) {
	if len(rt.methodArena) < n {
		rt.methodArena = make([]Method, n)
	}
}

// NewRuntime creates a runtime with the framework installed.
func NewRuntime(device Device) *Runtime {
	rt := &Runtime{
		Device:       device,
		MaxSteps:     DefaultMaxSteps,
		classes:      make(map[string]*Class, 16),
		natives:      make(map[string]NativeFunc, 8),
		views:        make(map[int64]*Object),
		intentExtras: make(map[string]string),
		extFiles:     make(map[string]*Object),
		classObjects: make(map[*Class]*Object),
		predecode:    predecodeEnvDefault(),
	}
	rt.cloneFramework()
	return rt
}

// AddHooks attaches an instrumentation hook set.
func (rt *Runtime) AddHooks(h *Hooks) { rt.hooks = append(rt.hooks, h) }

// RegisterNative binds a native implementation to a method key
// (Lcls;->name(sig)). Application classes declared native resolve their
// implementation here at call time, like JNI symbol lookup.
func (rt *Runtime) RegisterNative(methodKey string, fn NativeFunc) {
	rt.natives[methodKey] = fn
}

// RegisterMethodHooks installs packer-style method enter/exit callbacks
// (the stand-in for the ART hooking that method-extraction packers do).
// Either may be nil.
func (rt *Runtime) RegisterMethodHooks(enter, exit func(*Method)) {
	if enter != nil {
		rt.methodEnter = append(rt.methodEnter, enter)
	}
	if exit != nil {
		rt.methodExit = append(rt.methodExit, exit)
	}
}

// LoadedDexes returns every DEX file the class linker has processed, in
// load order. Dump-based unpackers read this.
func (rt *Runtime) LoadedDexes() []*dex.File {
	return append([]*dex.File(nil), rt.loadedDexes...)
}

// Sinks returns all recorded sink events.
func (rt *Runtime) Sinks() []SinkEvent { return append([]SinkEvent(nil), rt.sinks...) }

// SetIntentExtras provides the string extras the launch intent carries
// (the fuzzer's text-input channel).
func (rt *Runtime) SetIntentExtras(extras map[string]string) {
	rt.intentExtras = make(map[string]string, len(extras))
	for k, v := range extras {
		rt.intentExtras[k] = v
	}
}

// ExternalFileContents exposes the external-storage stand-in for tests.
func (rt *Runtime) ExternalFileContents(path string) (string, bool) {
	o, ok := rt.extFiles[path]
	if !ok {
		return "", false
	}
	return o.Str, true
}

// LoadAPK parses and links the package's classes.dex. The parse is memoized
// on the package, so loading the same APK into many runtimes (one per
// collection pass and forced run) parses once; LoadDex never mutates the
// shared File.
func (rt *Runtime) LoadAPK(a *apk.APK) error {
	f, err := a.DexFile()
	if err != nil {
		return fmt.Errorf("art: parse classes.dex: %w", err)
	}
	rt.apk = a
	if _, err := rt.LoadDex(f); err != nil {
		return err
	}
	return nil
}

// LoadDex links every class in the file into the runtime and returns them.
func (rt *Runtime) LoadDex(f *dex.File) ([]*Class, error) {
	// Linking resolves a signature per method reference; memoize them all
	// up front while the file is still confined to this goroutine.
	f.BuildSignatureCache()
	// Pass 1: create shells for classes not yet defined (first definition
	// wins, like ART's class table).
	created := make([]*Class, 0, len(f.Classes))
	for ci := range f.Classes {
		def := &f.Classes[ci]
		desc := f.TypeName(def.Class)
		if rt.lookupClass(desc) != nil {
			continue
		}
		c := &Class{
			Descriptor:  desc,
			AccessFlags: def.AccessFlags,
			File:        f,
			Def:         def,
			Statics:     make(map[string]Value),
			state:       stateLoaded,
			rt:          rt,
		}
		rt.classes[desc] = c
		created = append(created, c)
	}
	// Pass 2: link hierarchy and members.
	nMethods := 0
	for _, c := range created {
		nMethods += c.Def.NumMethods()
	}
	rt.reserveMethods(nMethods)
	for _, c := range created {
		def := c.Def
		if def.Superclass != dex.NoIndex {
			superDesc := f.TypeName(def.Superclass)
			super := rt.lookupClass(superDesc)
			if super == nil {
				delete(rt.classes, c.Descriptor)
				return nil, fmt.Errorf("art: class %s: unresolved superclass %s",
					c.Descriptor, superDesc)
			}
			c.Super = super
		}
		for _, ti := range def.Interfaces {
			ifcDesc := f.TypeName(ti)
			ifc := rt.lookupClass(ifcDesc)
			if ifc == nil {
				return nil, fmt.Errorf("art: class %s: unresolved interface %s",
					c.Descriptor, ifcDesc)
			}
			c.Interfaces = append(c.Interfaces, ifc)
		}
		for _, ef := range def.StaticFields {
			ref := f.FieldAt(ef.Field)
			c.StaticMeta = append(c.StaticMeta, &Field{
				Class: c, Name: ref.Name, Type: ref.Type,
				AccessFlags: ef.AccessFlags, Static: true,
			})
		}
		for i := range def.StaticValues {
			if i < len(c.StaticMeta) {
				v := def.StaticValues[i]
				c.StaticMeta[i].Init = &v
			}
		}
		for _, ef := range def.InstFields {
			ref := f.FieldAt(ef.Field)
			c.InstanceMeta = append(c.InstanceMeta, &Field{
				Class: c, Name: ref.Name, Type: ref.Type,
				AccessFlags: ef.AccessFlags,
			})
		}
		for mi := range def.NumMethods() {
			em := def.Method(mi)
			ref := f.MethodAt(em.Method)
			si, err := dex.ParseSignature(ref.Signature)
			if err != nil {
				return nil, fmt.Errorf("art: class %s method %s: %w",
					c.Descriptor, ref.Name, err)
			}
			m := rt.newMethod()
			*m = Method{
				Class: c, Name: ref.Name, Signature: ref.Signature,
				AccessFlags: em.AccessFlags, Virtual: mi >= len(def.DirectMeths),
				Sig: si,
			}
			if em.Code != nil {
				m.Insns = append([]uint16(nil), em.Code.Insns...)
				m.RegistersSize = int(em.Code.RegistersSize)
				m.InsSize = int(em.Code.InsSize)
				m.Tries = em.Code.Tries
			}
			c.Methods = append(c.Methods, m)
		}
	}
	rt.loadedDexes = append(rt.loadedDexes, f)
	return created, nil
}

// lookupClass resolves a descriptor against the two class tiers: the
// per-runtime table (app classes, array classes) and the framework clone
// slab, which is addressed through the template's shared immutable index so
// NewRuntime never refills a 100+-entry map. Returns nil when undefined.
func (rt *Runtime) lookupClass(descriptor string) *Class {
	if c, ok := rt.classes[descriptor]; ok {
		return c
	}
	if rt.fwLookup != nil {
		if i, ok := rt.fwLookup[descriptor]; ok {
			return rt.fwClass(i)
		}
	}
	return nil
}

// FindClass resolves a class by descriptor. Array classes are synthesized
// on demand.
func (rt *Runtime) FindClass(descriptor string) (*Class, error) {
	if c := rt.lookupClass(descriptor); c != nil {
		return c, nil
	}
	if len(descriptor) > 1 && descriptor[0] == '[' {
		c := &Class{
			Descriptor: descriptor,
			Super:      rt.lookupClass("Ljava/lang/Object;"),
			state:      stateInitialized,
			Statics:    make(map[string]Value),
			rt:         rt,
		}
		rt.classes[descriptor] = c
		return c, nil
	}
	return nil, fmt.Errorf("art: class %s not found", descriptor)
}

// EnsureInitialized runs static initialization for c if needed.
func (rt *Runtime) EnsureInitialized(c *Class) error {
	return rt.ensureInitialized(rt.newExecState(), c)
}

func (rt *Runtime) ensureInitialized(st *execState, c *Class) error {
	if c.state == stateInitialized || c.state == stateInitializing {
		return nil
	}
	c.state = stateInitializing
	if c.Super != nil {
		if err := rt.ensureInitialized(st, c.Super); err != nil {
			return err
		}
	}
	for _, f := range c.StaticMeta {
		v := rt.zeroValueFor(f.Type)
		if f.Init != nil {
			v = rt.fromEncodedValue(c, *f.Init)
		}
		c.Statics[f.Name] = v
	}
	if clinit := c.findDeclared("<clinit>", "()V"); clinit != nil {
		if _, err := rt.invoke(st, clinit, nil, nil); err != nil {
			c.state = stateInitialized // real ART marks erroneous; keep simple
			return fmt.Errorf("art: <clinit> of %s: %w", c.Descriptor, err)
		}
	}
	c.state = stateInitialized
	for _, h := range rt.hooks {
		if h.ClassInitialized != nil {
			h.ClassInitialized(c)
		}
	}
	return nil
}

func (rt *Runtime) zeroValueFor(typ string) Value {
	switch typ[0] {
	case 'L', '[':
		return NullVal()
	default:
		return IntVal(0)
	}
}

func (rt *Runtime) fromEncodedValue(c *Class, v dex.Value) Value {
	switch v.Kind {
	case dex.ValueString:
		return RefVal(rt.NewString(c.File.String(v.Index)))
	case dex.ValueType:
		desc := c.File.TypeName(v.Index)
		if cls, err := rt.FindClass(desc); err == nil {
			return RefVal(rt.classObject(cls))
		}
		return NullVal()
	case dex.ValueNull:
		return NullVal()
	default:
		return IntVal(v.Int)
	}
}

// NewString allocates a string object.
func (rt *Runtime) NewString(s string) *Object {
	return &Object{Class: rt.stringClass, Str: s}
}

// NewInstance allocates an uninitialized instance of c.
func (rt *Runtime) NewInstance(c *Class) *Object {
	return &Object{Class: c, Fields: make(map[string]Value)}
}

// NewArray allocates an array object with n zeroed elements.
func (rt *Runtime) NewArray(descriptor string, n int) (*Object, error) {
	c, err := rt.FindClass(descriptor)
	if err != nil {
		return nil, err
	}
	elems := make([]Value, n)
	elemZero := IntVal(0)
	if len(descriptor) > 1 && (descriptor[1] == 'L' || descriptor[1] == '[') {
		elemZero = NullVal()
	}
	for i := range elems {
		elems[i] = elemZero
	}
	return &Object{Class: c, Elems: elems}, nil
}

// classObject returns the java/lang/Class object mirroring c.
func (rt *Runtime) classObject(c *Class) *Object {
	if o, ok := rt.classObjects[c]; ok {
		return o
	}
	o := &Object{Class: rt.classClass, Data: c}
	rt.classObjects[c] = o
	return o
}

// NewException creates an exception object of the given class (which must
// exist; unknown classes fall back to java/lang/RuntimeException).
func (rt *Runtime) NewException(descriptor, msg string) *Object {
	c := rt.lookupClass(descriptor)
	if c == nil {
		c = rt.lookupClass("Ljava/lang/RuntimeException;")
	}
	o := rt.NewInstance(c)
	o.SetField("message", RefVal(rt.NewString(msg)))
	return o
}

// Throw returns a ThrownError carrying a new exception object.
func (rt *Runtime) Throw(descriptor, msg string) error {
	return &ThrownError{Obj: rt.NewException(descriptor, msg)}
}

// Call invokes a method by class descriptor, name and signature.
func (rt *Runtime) Call(descriptor, name, signature string, recv *Object, args []Value) (Value, error) {
	c, err := rt.FindClass(descriptor)
	if err != nil {
		return Value{}, err
	}
	st := rt.newExecState()
	if err := rt.ensureInitialized(st, c); err != nil {
		return Value{}, err
	}
	m := c.FindMethod(name, signature)
	if m == nil {
		return Value{}, fmt.Errorf("art: method %s->%s%s not found", descriptor, name, signature)
	}
	return rt.invoke(st, m, recv, args)
}

// LaunchActivity instantiates the manifest main activity and drives the
// launch lifecycle (onCreate, onStart, onResume), returning the activity.
// When the launched activity redirects the launch (packer shells do, after
// releasing the original code), the redirect target is launched with the
// full lifecycle and returned instead.
func (rt *Runtime) LaunchActivity() (*Object, error) {
	if rt.apk == nil || rt.apk.Manifest.MainActivity == "" {
		return nil, ErrNoMain
	}
	return rt.launchActivityDesc(rt.apk.Manifest.MainActivity, 0)
}

func (rt *Runtime) launchActivityDesc(desc string, depth int) (*Object, error) {
	if depth > 4 {
		return nil, fmt.Errorf("art: launch redirect loop at %s", desc)
	}
	c, err := rt.FindClass(desc)
	if err != nil {
		return nil, err
	}
	st := rt.newExecState()
	if err := rt.ensureInitialized(st, c); err != nil {
		return nil, err
	}
	activity := rt.NewInstance(c)
	if ctor := c.FindMethod("<init>", "()V"); ctor != nil {
		if _, err := rt.invoke(st, ctor, activity, nil); err != nil {
			return nil, err
		}
	}
	if onCreate := c.FindMethod("onCreate", "(Landroid/os/Bundle;)V"); onCreate != nil {
		if _, err := rt.invoke(st, onCreate, activity, []Value{NullVal()}); err != nil {
			return activity, err
		}
	}
	if target := rt.launchTarget; target != "" && target != desc {
		rt.launchTarget = ""
		return rt.launchActivityDesc(target, depth+1)
	}
	for _, name := range []string{"onStart", "onResume"} {
		if m := c.FindMethod(name, "()V"); m != nil {
			if _, err := rt.invoke(st, m, activity, nil); err != nil {
				return activity, err
			}
		}
	}
	return activity, nil
}

// FinishActivity drives the teardown lifecycle (onPause, onStop, onDestroy).
func (rt *Runtime) FinishActivity(activity *Object) error {
	if activity == nil {
		return fmt.Errorf("art: finish of nil activity")
	}
	st := rt.newExecState()
	for _, name := range []string{"onPause", "onStop", "onDestroy"} {
		if m := activity.Class.FindMethod(name, "()V"); m != nil {
			if _, err := rt.invoke(st, m, activity, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clickables returns the ids of views with registered click listeners in
// registration order.
func (rt *Runtime) Clickables() []int64 {
	var out []int64
	for _, id := range rt.viewOrder {
		if v, ok := rt.views[id]; ok && !v.Field("__listener").IsNull() {
			out = append(out, id)
		}
	}
	return out
}

// PerformClick dispatches onClick to the listener registered on view id.
func (rt *Runtime) PerformClick(id int64) error {
	view, ok := rt.views[id]
	if !ok {
		return fmt.Errorf("art: no view with id %d", id)
	}
	listener := view.Field("__listener")
	if listener.IsNull() {
		return fmt.Errorf("art: view %d has no click listener", id)
	}
	m := listener.Ref.Class.FindMethod("onClick", "(Landroid/view/View;)V")
	if m == nil {
		return fmt.Errorf("art: listener %s lacks onClick", listener.Ref.Class.Descriptor)
	}
	st := rt.newExecState()
	_, err := rt.invoke(st, m, listener.Ref, []Value{RefVal(view)})
	return err
}

func (rt *Runtime) viewByID(id int64) *Object {
	if v, ok := rt.views[id]; ok {
		return v
	}
	v := rt.NewInstance(rt.lookupClass("Landroid/view/View;"))
	v.SetField("__id", IntVal(id))
	v.SetField("__listener", NullVal())
	rt.views[id] = v
	rt.viewOrder = append(rt.viewOrder, id)
	return v
}
