package art_test

import (
	"errors"
	"fmt"
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// evalBinop runs `op v, a, b` in the interpreter and returns the result.
func evalBinop(t *testing.T, op bytecode.Opcode, a, b int64) (int64, error) {
	t.Helper()
	p := dexgen.New()
	p.Class("Lsem/B;", "").Static("f", "I", []string{"I", "I"}, func(asm *dexgen.Asm) {
		asm.Binop(op, 0, asm.P(0), asm.P(1))
		asm.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call("Lsem/B;", "f", "(II)I", nil,
		[]art.Value{art.IntVal(a), art.IntVal(b)})
	return res.Int, err
}

func TestBinopSemantics(t *testing.T) {
	tests := []struct {
		op   bytecode.Opcode
		a, b int64
		want int64
	}{
		{bytecode.OpAddInt, 7, 5, 12},
		{bytecode.OpAddInt, 1<<31 - 1, 1, -(1 << 31)}, // 32-bit wraparound
		{bytecode.OpSubInt, 7, 5, 2},
		{bytecode.OpMulInt, -3, 5, -15},
		{bytecode.OpDivInt, 17, 5, 3},
		{bytecode.OpDivInt, -17, 5, -3}, // truncation toward zero
		{bytecode.OpRemInt, 17, 5, 2},
		{bytecode.OpRemInt, -17, 5, -2},
		{bytecode.OpAndInt, 0b1100, 0b1010, 0b1000},
		{bytecode.OpOrInt, 0b1100, 0b1010, 0b1110},
		{bytecode.OpXorInt, 0b1100, 0b1010, 0b0110},
		{bytecode.OpShlInt, 1, 4, 16},
		{bytecode.OpShlInt, 1, 33, 2},  // shift distance masked to 5 bits
		{bytecode.OpShrInt, -8, 1, -4}, // arithmetic shift
		{bytecode.OpUshrInt, -8, 1, 0x7ffffffc},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("%s_%d_%d", tt.op, tt.a, tt.b), func(t *testing.T) {
			got, err := evalBinop(t, tt.op, tt.a, tt.b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("%s(%d, %d) = %d, want %d", tt.op, tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDivRemByZeroThrow(t *testing.T) {
	for _, op := range []bytecode.Opcode{bytecode.OpDivInt, bytecode.OpRemInt} {
		_, err := evalBinop(t, op, 5, 0)
		var thrown *art.ThrownError
		if !errors.As(err, &thrown) ||
			thrown.Obj.Class.Descriptor != "Ljava/lang/ArithmeticException;" {
			t.Errorf("%s by zero: got %v", op, err)
		}
	}
}

func TestUnopSemantics(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lsem/U;", "")
	cls.Static("neg", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Unop(bytecode.OpNegInt, 0, a.P(0))
		a.Return(0)
	})
	cls.Static("not", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Unop(bytecode.OpNotInt, 0, a.P(0))
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	if res, _ := rt.Call("Lsem/U;", "neg", "(I)I", nil, []art.Value{art.IntVal(42)}); res.Int != -42 {
		t.Errorf("neg(42) = %d", res.Int)
	}
	if res, _ := rt.Call("Lsem/U;", "not", "(I)I", nil, []art.Value{art.IntVal(0)}); res.Int != -1 {
		t.Errorf("not(0) = %d", res.Int)
	}
}

func TestConditionalSemantics(t *testing.T) {
	ops := map[bytecode.Opcode]func(a, b int64) bool{
		bytecode.OpIfEq: func(a, b int64) bool { return a == b },
		bytecode.OpIfNe: func(a, b int64) bool { return a != b },
		bytecode.OpIfLt: func(a, b int64) bool { return a < b },
		bytecode.OpIfGe: func(a, b int64) bool { return a >= b },
		bytecode.OpIfGt: func(a, b int64) bool { return a > b },
		bytecode.OpIfLe: func(a, b int64) bool { return a <= b },
	}
	pairs := [][2]int64{{0, 0}, {1, 0}, {0, 1}, {-5, 5}, {7, 7}}
	for op, model := range ops {
		p := dexgen.New()
		p.Class("Lsem/C;", "").Static("f", "I", []string{"I", "I"}, func(a *dexgen.Asm) {
			a.If(op, a.P(0), a.P(1), "yes")
			a.Const(0, 0)
			a.Return(0)
			a.Label("yes")
			a.Const(0, 1)
			a.Return(0)
		})
		f, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		rt := art.NewRuntime(art.DefaultPhone())
		if _, err := rt.LoadDex(f); err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			res, err := rt.Call("Lsem/C;", "f", "(II)I", nil,
				[]art.Value{art.IntVal(pr[0]), art.IntVal(pr[1])})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if model(pr[0], pr[1]) {
				want = 1
			}
			if res.Int != want {
				t.Errorf("%s(%d,%d) = %d, want %d", op, pr[0], pr[1], res.Int, want)
			}
		}
	}
}

func TestInstanceOfAndNullInvoke(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lsem/O;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("check", "I", nil, func(a *dexgen.Asm) {
		a.InstanceOf(0, a.This(), "Landroid/app/Activity;")
		a.ConstString(1, "hi")
		a.InstanceOf(2, 1, "Landroid/app/Activity;")
		// result = (this is Activity)*2 + (string is Activity)
		a.BinopLit8(bytecode.OpMulIntLit8, 0, 0, 2)
		a.Binop(bytecode.OpAddInt, 0, 0, 2)
		a.Return(0)
	})
	cls.Virtual("callNull", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.InvokeVirtual("Ljava/lang/String;", "length", "()I", 0)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	c, _ := rt.FindClass("Lsem/O;")
	obj := rt.NewInstance(c)
	res, err := rt.Call("Lsem/O;", "check", "()I", obj, nil)
	if err != nil || res.Int != 2 {
		t.Errorf("check() = %v, %v; want 2", res, err)
	}
	_, err = rt.Call("Lsem/O;", "callNull", "()V", obj, nil)
	var thrown *art.ThrownError
	if !errors.As(err, &thrown) ||
		thrown.Obj.Class.Descriptor != "Ljava/lang/NullPointerException;" {
		t.Errorf("null invoke: got %v", err)
	}
}

func TestMalformedCodeErrors(t *testing.T) {
	// Hand-build a dex whose method body references an out-of-range
	// register and one with an unknown opcode: the interpreter must return
	// infrastructure errors, never panic.
	build := func(insns []uint16, regs uint16) (*dex.File, error) {
		b := dex.NewBuilder()
		cb := b.Class("Lbad/B;", dex.AccPublic, "Ljava/lang/Object;")
		cb.Method("f", "V", nil, dex.AccPublic|dex.AccStatic, &dex.Code{
			RegistersSize: regs,
			Insns:         insns,
		})
		return b.Finish()
	}
	cases := []struct {
		name  string
		insns []uint16
		regs  uint16
	}{
		{"register out of range", []uint16{0x0112 /* const/4 v1 */, 0x000e}, 1},
		{"zero-register frame", []uint16{0x0012 /* const/4 v0 */, 0x000e}, 0},
		{"unknown opcode", []uint16{0x00ff}, 2},
		{"pc runs off the end", []uint16{0x0012}, 2}, // const/4 then nothing
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			f, err := build(tc.insns, tc.regs)
			if err != nil {
				return // the builder may legitimately reject it first
			}
			rt := art.NewRuntime(art.DefaultPhone())
			if _, err := rt.LoadDex(f); err != nil {
				return
			}
			if _, err := rt.Call("Lbad/B;", "f", "()V", nil, nil); err == nil {
				t.Error("malformed code must error")
			}
		})
	}
}

func TestStackOverflowGuard(t *testing.T) {
	p := dexgen.New()
	p.Class("Lrec/R;", "").Static("inf", "V", nil, func(a *dexgen.Asm) {
		a.InvokeStatic("Lrec/R;", "inf", "()V")
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call("Lrec/R;", "inf", "()V", nil, nil); !errors.Is(err, art.ErrStackOverfl) {
		t.Errorf("got %v, want ErrStackOverfl", err)
	}
}

func TestInvokeSuper(t *testing.T) {
	p := dexgen.New()
	base := p.Class("Lsup/Base;", "")
	base.Ctor("Ljava/lang/Object;", nil)
	base.Virtual("val", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 10)
		a.Return(0)
	})
	sub := p.Class("Lsup/Sub;", "Lsup/Base;")
	sub.Ctor("Lsup/Base;", nil)
	sub.Virtual("val", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 20)
		a.Return(0)
	})
	sub.Virtual("baseVal", "I", nil, func(a *dexgen.Asm) {
		a.InvokeSuper("Lsup/Base;", "val", "()I", a.This())
		a.MoveResult(0)
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	c, _ := rt.FindClass("Lsup/Sub;")
	obj := rt.NewInstance(c)
	if res, _ := rt.Call("Lsup/Sub;", "val", "()I", obj, nil); res.Int != 20 {
		t.Errorf("virtual dispatch = %d, want 20", res.Int)
	}
	if res, _ := rt.Call("Lsup/Sub;", "baseVal", "()I", obj, nil); res.Int != 10 {
		t.Errorf("invoke-super = %d, want 10", res.Int)
	}
}

func TestInterfaceDispatch(t *testing.T) {
	p := dexgen.New()
	iface := p.Class("Lid/Speaker;", "")
	iface.Bodyless("speak", "I", nil, dex.AccPublic|dex.AccAbstract)
	impl := p.Class("Lid/Dog;", "", "Lid/Speaker;")
	impl.Ctor("Ljava/lang/Object;", nil)
	impl.Virtual("speak", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 7)
		a.Return(0)
	})
	caller := p.Class("Lid/Caller;", "")
	caller.Static("call", "I", []string{"Lid/Speaker;"}, func(a *dexgen.Asm) {
		a.InvokeInterface("Lid/Speaker;", "speak", "()I", a.P(0))
		a.MoveResult(0)
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	c, _ := rt.FindClass("Lid/Dog;")
	dog := rt.NewInstance(c)
	res, err := rt.Call("Lid/Caller;", "call", "(Lid/Speaker;)I", nil,
		[]art.Value{art.RefVal(dog)})
	if err != nil || res.Int != 7 {
		t.Errorf("interface dispatch = %v, %v", res, err)
	}
}

// TestVerifyErrorOnMalformedAccess: bytecode ART's verifier rejects — an
// invoke whose kind misses its target's (static against instance, for app
// and framework methods alike), an invoke whose argument words miss its
// target's prototype in count or in kind, or a non-null
// primitive used as an invoke receiver, as the object of iget/iput, as an
// array, or as the operand of check-cast — throws Ljava/lang/VerifyError;
// at run time instead of panicking the interpreter.
func TestVerifyErrorOnMalformedAccess(t *testing.T) {
	cases := []struct {
		name string
		body func(a *dexgen.Asm)
		want string // thrown class; "" for a clean return
	}{
		{"native invoke missing an argument", func(a *dexgen.Asm) {
			a.NewInstance(0, "Ljava/lang/StringBuilder;")
			a.InvokeDirect("Ljava/lang/StringBuilder;", "<init>", "()V", 0)
			a.InvokeVirtual("Ljava/lang/StringBuilder;", "append", "(C)Ljava/lang/StringBuilder;", 0)
		}, "Ljava/lang/VerifyError;"},
		{"bytecode invoke with an extra argument", func(a *dexgen.Asm) {
			a.Const(0, 1)
			a.InvokeStatic("Lsem/V;", "one", "(I)V", 0, 0)
		}, "Ljava/lang/VerifyError;"},
		{"wide parameter passed one word", func(a *dexgen.Asm) {
			a.Const(0, 1)
			a.InvokeStatic("Lsem/V;", "wide", "(J)V", 0)
		}, "Ljava/lang/VerifyError;"},
		{"wide parameter passed two words", func(a *dexgen.Asm) {
			a.Const(0, 1)
			a.Const(1, 0)
			a.InvokeStatic("Lsem/V;", "wide", "(J)V", 0, 1)
		}, ""},
		{"primitive for a reference parameter", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.InvokeStatic("Lsem/V;", "obj", "(JLjava/lang/Object;)V", 0, 0, 0)
		}, "Ljava/lang/VerifyError;"},
		{"null for a reference parameter", func(a *dexgen.Asm) {
			a.Const(0, 0)
			a.InvokeStatic("Lsem/V;", "obj", "(JLjava/lang/Object;)V", 0, 0, 0)
		}, ""},
		{"static invoke of a framework instance method", func(a *dexgen.Asm) {
			a.InvokeStatic("Ljava/lang/String;", "length", "()I")
		}, "Ljava/lang/VerifyError;"},
		{"static invoke of an app instance method", func(a *dexgen.Asm) {
			a.Const(0, 1)
			a.InvokeStatic("Lsem/V;", "inst", "(I)V", 0)
		}, "Ljava/lang/VerifyError;"},
		{"static invoke of an app instance native", func(a *dexgen.Asm) {
			a.InvokeStatic("Lsem/V;", "nat", "()V")
		}, "Ljava/lang/VerifyError;"},
		{"virtual invoke of an app static method", func(a *dexgen.Asm) {
			a.NewInstance(0, "Lsem/V;")
			a.InvokeDirect("Lsem/V;", "<init>", "()V", 0)
			a.Const(1, 1)
			a.InvokeVirtual("Lsem/V;", "one", "(I)V", 0, 1)
		}, "Ljava/lang/VerifyError;"},
		{"direct invoke of an app static method", func(a *dexgen.Asm) {
			a.NewInstance(0, "Lsem/V;")
			a.InvokeDirect("Lsem/V;", "<init>", "()V", 0)
			a.Const(1, 1)
			a.InvokeDirect("Lsem/V;", "one", "(I)V", 0, 1)
		}, "Ljava/lang/VerifyError;"},
		{"virtual invoke of an app instance method", func(a *dexgen.Asm) {
			a.NewInstance(0, "Lsem/V;")
			a.InvokeDirect("Lsem/V;", "<init>", "()V", 0)
			a.Const(1, 1)
			a.InvokeVirtual("Lsem/V;", "inst", "(I)V", 0, 1)
		}, ""},
		{"primitive receiver", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.InvokeVirtual("Ljava/lang/String;", "length", "()I", 0)
		}, "Ljava/lang/VerifyError;"},
		{"zero receiver stays a null pointer", func(a *dexgen.Asm) {
			a.Const(0, 0)
			a.InvokeVirtual("Ljava/lang/String;", "length", "()I", 0)
		}, "Ljava/lang/NullPointerException;"},
		{"iget on a primitive", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.IGetInt(1, 0, "Lsem/V;", "x")
		}, "Ljava/lang/VerifyError;"},
		{"iput on a primitive", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.IPutObject(0, 0, "Lsem/V;", "o", "Ljava/lang/Object;")
		}, "Ljava/lang/VerifyError;"},
		{"aget on a primitive", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.AGet(bytecode.OpAGet, 1, 0, 0)
		}, "Ljava/lang/VerifyError;"},
		{"aput on a primitive", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.APut(bytecode.OpAPut, 0, 0, 0)
		}, "Ljava/lang/VerifyError;"},
		{"array-length of a primitive", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.ArrayLength(1, 0)
		}, "Ljava/lang/VerifyError;"},
		{"check-cast of a primitive", func(a *dexgen.Asm) {
			a.Const(0, 7)
			a.CheckCast(0, "Ljava/lang/String;")
		}, "Ljava/lang/VerifyError;"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := dexgen.New()
			cls := p.Class("Lsem/V;", "Ljava/lang/Object;")
			cls.Field("x", "I").Field("o", "Ljava/lang/Object;")
			cls.Ctor("Ljava/lang/Object;", nil)
			cls.Virtual("inst", "V", []string{"I"}, func(a *dexgen.Asm) { a.ReturnVoid() })
			cls.Bodyless("nat", "V", nil, dex.AccPublic|dex.AccNative)
			cls.Static("one", "V", []string{"I"}, func(a *dexgen.Asm) { a.ReturnVoid() })
			cls.Static("wide", "V", []string{"J"}, func(a *dexgen.Asm) { a.ReturnVoid() })
			cls.Static("obj", "V", []string{"J", "Ljava/lang/Object;"}, func(a *dexgen.Asm) { a.ReturnVoid() })
			cls.Static("f", "V", nil, func(a *dexgen.Asm) {
				tc.body(a)
				a.ReturnVoid()
			})
			f, err := p.Finish()
			if err != nil {
				t.Fatal(err)
			}
			rt := art.NewRuntime(art.DefaultPhone())
			if _, err := rt.LoadDex(f); err != nil {
				t.Fatal(err)
			}
			_, err = rt.Call("Lsem/V;", "f", "()V", nil, nil)
			var thrown *art.ThrownError
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("got %v, want a clean return", err)
			case tc.want != "" && (!errors.As(err, &thrown) || thrown.Obj.Class.Descriptor != tc.want):
				t.Errorf("got %v, want %s thrown", err, tc.want)
			}
		})
	}
}
