// Package art implements the Android Runtime substrate DexLego instruments:
// a class linker, a switch-style bytecode interpreter walking 16-bit code
// unit arrays with a dex_pc, runtime objects, exceptions with try/catch
// dispatch, a native-method bridge (the JNI stand-in through which packers
// and self-modifying samples tamper with live bytecode), a reflective-call
// implementation, a model of the Android framework's source/sink APIs, and
// the instrumentation hooks the collector, coverage tracker, force-execution
// engine and dynamic taint analyses attach to.
package art

import (
	"fmt"
	"strings"

	"dexlego/internal/apimodel"
)

// Taint is a bitset of apimodel.TaintKind labels carried by a value. The
// interpreter propagates taint through data flow only (moves, arithmetic,
// field and array traffic), which is exactly why implicit flows evade the
// dynamic analyses in the paper's Table IV.
type Taint uint32

// Has reports whether all bits of k are set.
func (t Taint) Has(k apimodel.TaintKind) bool { return uint32(t)&uint32(k) == uint32(k) }

func (t Taint) String() string {
	if t == 0 {
		return "untainted"
	}
	var parts []string
	for _, k := range []apimodel.TaintKind{
		apimodel.TaintIMEI, apimodel.TaintSIM, apimodel.TaintLocation,
		apimodel.TaintSSID, apimodel.TaintContacts, apimodel.TaintFileContent,
		apimodel.TaintGeneric,
	} {
		if t.Has(k) {
			parts = append(parts, k.String())
		}
	}
	return strings.Join(parts, "|")
}

// Kind discriminates the two register value categories the interpreter
// tracks: 32-bit primitives (all held as int64) and object references.
type Kind uint8

// Value kinds.
const (
	KindInt Kind = iota + 1
	KindRef
)

// Value is the content of one Dalvik register.
type Value struct {
	Kind  Kind
	Int   int64
	Ref   *Object
	Taint Taint
}

// IntVal returns an integer register value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// BoolVal returns 1 or 0 as an integer register value.
func BoolVal(v bool) Value {
	if v {
		return IntVal(1)
	}
	return IntVal(0)
}

// RefVal returns a reference register value (o may be nil).
func RefVal(o *Object) Value { return Value{Kind: KindRef, Ref: o} }

// NullVal returns the null reference.
func NullVal() Value { return Value{Kind: KindRef} }

// WithTaint returns a copy of v with taint t added.
func (v Value) WithTaint(t Taint) Value {
	v.Taint |= t
	return v
}

// IsNull reports whether v is a null reference. Dalvik has no distinct null
// literal — `const/4 vX, 0` is the canonical way to materialize null — so an
// integer zero is also null here.
func (v Value) IsNull() bool {
	return (v.Kind == KindRef && v.Ref == nil) || (v.Kind == KindInt && v.Int == 0)
}

// EffectiveTaint returns the value taint unioned with any taint carried by
// the referenced object (strings carry taint on the object so it survives
// interning and field traffic).
func (v Value) EffectiveTaint() Taint {
	t := v.Taint
	if v.Kind == KindRef && v.Ref != nil {
		t |= v.Ref.Taint
	}
	return t
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("int:%d", v.Int)
	case KindRef:
		if v.Ref == nil {
			return "null"
		}
		return v.Ref.String()
	default:
		return "uninit"
	}
}
