package art_test

import (
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// TestSilentSwapFiresCodeWrittenInBothModes pins the CodeWritten contract
// for packer-style slice replacement: a method whose unit array is swapped
// without TamperMethod was still written, and both interpreter modes must
// report it, the same number of times. The swap comes either from a method
// entry hook on every call (Bangcle-style) or from a native that replaces
// its caller's code mid-frame.
func TestSilentSwapFiresCodeWrittenInBothModes(t *testing.T) {
	p := dexgen.New()
	c := p.Class("Lswap/S;", "Ljava/lang/Object;")
	c.Bodyless("swapCaller", "V", nil, dex.AccPublic|dex.AccNative)
	c.Virtual("hooked", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, 1)
		a.ReturnVoid()
	})
	c.Virtual("swapsSelf", "V", nil, func(a *dexgen.Asm) {
		a.InvokeVirtual("Lswap/S;", "swapCaller", "()V", a.This())
		a.Const(0, 1)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// written runs method calls times on a fresh runtime and counts the
	// CodeWritten events fired for it.
	written := func(predecode bool, method string, calls int) int {
		rt := art.NewRuntime(art.DefaultPhone())
		rt.SetPredecode(predecode)
		if _, err := rt.LoadDex(f); err != nil {
			t.Fatal(err)
		}
		cls := mustClass(t, rt, "Lswap/S;")
		target := cls.FindMethod(method, "()V")
		swap := func() { target.Insns = append([]uint16(nil), target.Insns...) }
		n := 0
		rt.AddHooks(&art.Hooks{CodeWritten: func(m *art.Method, pc int) {
			if m == target {
				n++
			}
		}})
		rt.RegisterMethodHooks(func(m *art.Method) {
			if m == target && method == "hooked" {
				swap()
			}
		}, nil)
		rt.RegisterNative("Lswap/S;->swapCaller()V",
			func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
				swap()
				return art.Value{}, nil
			})
		recv := rt.NewInstance(cls)
		for i := 0; i < calls; i++ {
			if _, err := rt.Call("Lswap/S;", method, "()V", recv, nil); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}

	cases := []struct {
		name, method string
		calls, want  int
	}{
		// The first call's swap precedes the method's first bind, so
		// there is no earlier identity to compare against.
		{"entry hook", "hooked", 3, 2},
		{"native mid-frame", "swapsSelf", 1, 1},
	}
	for _, tc := range cases {
		on, off := written(true, tc.method, tc.calls), written(false, tc.method, tc.calls)
		if on != tc.want || off != tc.want {
			t.Errorf("%s: CodeWritten fired %d times with predecode on and %d off, want %d in both",
				tc.name, on, off, tc.want)
		}
	}
}
