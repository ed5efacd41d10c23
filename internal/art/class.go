package art

import (
	"fmt"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

type classState uint8

const (
	stateLoaded classState = iota + 1
	stateInitializing
	stateInitialized
)

// Class is a runtime class: framework classes are native-backed; application
// classes are linked from a DEX file.
type Class struct {
	Descriptor  string
	Super       *Class
	Interfaces  []*Class
	AccessFlags uint32

	// File and Def are set for classes linked from a DEX file.
	File *dex.File
	Def  *dex.ClassDef

	Methods      []*Method
	StaticMeta   []*Field
	InstanceMeta []*Field
	Statics      map[string]Value

	state classState
	rt    *Runtime
}

// Field is runtime field metadata.
type Field struct {
	Class       *Class
	Name        string
	Type        string
	AccessFlags uint32
	Static      bool
	Init        *dex.Value // declared initial value (static fields only)
}

// Method is a runtime method. Insns is the live instruction array the
// interpreter runs. Self-modifying native code changes it through
// Env.TamperMethod, like patching the DEX in memory on a real device; a
// packer may replace the slice wholesale. Nothing writes into it in place:
// LoadDex points it at the dex.File's own units, and every runtime cloned
// from one AppTemplate shares that array, so TamperMethod writes only into
// a private copy. Neither the input DEX nor a sibling runtime ever sees a
// tamper.
type Method struct {
	Class       *Class
	Name        string
	Signature   string // (params)return
	AccessFlags uint32
	Virtual     bool

	// Code state for bytecode methods.
	Insns         []uint16
	RegistersSize int
	InsSize       int
	Tries         []dex.Try

	// Native implementation for framework and JNI methods.
	Native NativeFunc

	// Sig is the parsed Signature, shared process-wide. An invoke must pass
	// exactly Sig.Words argument words after any receiver, a word whose bit
	// is set in Sig.Refs must hold an object or null, and a bytecode body
	// must declare InsSize dex.InsSize(Sig.Words, AccessFlags).
	Sig *dex.Signature

	key string // Key() cache; class, name and signature are fixed after link

	// Live-code binding state (see predecode.go), kept in both interpreter
	// modes. A method belongs to exactly one runtime and is only touched
	// from its goroutine, so none of this needs locking; the cross-shard
	// sharing happens one level down in the content-keyed process program
	// cache (bytecode.Cached).
	codeGen uint64            // bumped on every write into the live unit array
	prog    *bytecode.Program // predecoded stream for (progPtr, progLen, progGen); nil with predecode off
	progGen uint64            // codeGen at the last bind
	progLen int               // len(Insns) at the last bind
	progPtr *uint16           // &Insns[0] at the last bind; nil before the first
}

// NativeFunc is the Go signature of a native (JNI stand-in) method.
type NativeFunc func(env *Env, recv *Object, args []Value) (Value, error)

// Key returns the canonical Lcls;->name(sig) method key.
func (m *Method) Key() string {
	if m.key == "" {
		m.key = m.Class.Descriptor + "->" + m.Name + m.Signature
	}
	return m.key
}

func (m *Method) String() string { return m.Key() }

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.AccessFlags&dex.AccStatic != 0 }

// findDeclared returns the method declared directly on c, or nil. An empty
// signature matches any overload.
func (c *Class) findDeclared(name, signature string) *Method {
	for _, m := range c.Methods {
		if m.Name == name && (signature == "" || m.Signature == signature) {
			return m
		}
	}
	return nil
}

// FindMethod resolves a method by walking the superclass chain.
func (c *Class) FindMethod(name, signature string) *Method {
	for k := c; k != nil; k = k.Super {
		if m := k.findDeclared(name, signature); m != nil {
			return m
		}
	}
	// Default/abstract interface methods.
	for k := c; k != nil; k = k.Super {
		for _, ifc := range k.Interfaces {
			if m := ifc.FindMethod(name, signature); m != nil {
				return m
			}
		}
	}
	return nil
}

// IsSubclassOf reports whether c is other or derives from it (classes and
// interfaces).
func (c *Class) IsSubclassOf(other *Class) bool {
	if other == nil {
		return false
	}
	if other.Descriptor == "Ljava/lang/Object;" {
		return true
	}
	for k := c; k != nil; k = k.Super {
		if k == other {
			return true
		}
		for _, ifc := range k.Interfaces {
			if ifc.IsSubclassOf(other) {
				return true
			}
		}
	}
	return false
}

func (c *Class) String() string { return c.Descriptor }

// StaticValue reads a static field declared on this class.
func (c *Class) StaticValue(name string) (Value, error) {
	if v, ok := c.Statics[name]; ok {
		return v, nil
	}
	return Value{}, fmt.Errorf("art: class %s has no static field %s", c.Descriptor, name)
}

// Initialized reports whether static initialization has completed.
func (c *Class) Initialized() bool { return c.state == stateInitialized }
