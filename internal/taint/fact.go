package taint

import "dexlego/internal/apimodel"

// fact is the abstract value of one register: a taint set plus optional
// constant-string / class-object / method-object knowledge used for
// reflection resolution, and an optional allocation site identity.
type fact struct {
	Taint uint32

	HasStr bool
	Str    string

	HasCls bool
	Cls    string // class descriptor carried by a Class object

	HasMeth  bool
	MethCls  string // declaring class of a java.lang.reflect.Method object
	MethName string

	HasObj bool
	Obj    objID // allocation site, when statically known
}

type objID struct {
	Method string
	PC     int
}

func taintedFact(k apimodel.TaintKind) fact { return fact{Taint: uint32(k)} }

// join merges two abstract values at a control-flow merge point.
func join(a, b fact) fact {
	out := fact{Taint: a.Taint | b.Taint}
	if a.HasStr && b.HasStr && a.Str == b.Str {
		out.HasStr, out.Str = true, a.Str
	}
	if a.HasCls && b.HasCls && a.Cls == b.Cls {
		out.HasCls, out.Cls = true, a.Cls
	}
	if a.HasMeth && b.HasMeth && a.MethCls == b.MethCls && a.MethName == b.MethName {
		out.HasMeth, out.MethCls, out.MethName = true, a.MethCls, a.MethName
	}
	if a.HasObj && b.HasObj && a.Obj == b.Obj {
		out.HasObj, out.Obj = true, a.Obj
	}
	return out
}

func equalFacts(a, b []fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func joinAll(a, b []fact) []fact {
	out := make([]fact, len(a))
	for i := range a {
		out[i] = join(a[i], b[i])
	}
	return out
}
