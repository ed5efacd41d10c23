package dexgen_test

import (
	"strings"
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

func TestParameterRegisterConvention(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lg/C;", "")
	cls.Ctor("Ljava/lang/Object;", nil)
	// Instance method: this at locals, params after.
	cls.Method(dexgen.MethodSpec{
		Name: "pick", Ret: "I", Params: []string{"I", "I"}, Locals: 4,
	}, func(a *dexgen.Asm) {
		if a.This() != 4 {
			t.Errorf("this = v%d, want v4", a.This())
		}
		if a.P(0) != 5 || a.P(1) != 6 {
			t.Errorf("params = v%d, v%d", a.P(0), a.P(1))
		}
		a.Binop(bytecode.OpSubInt, 0, a.P(0), a.P(1))
		a.Return(0)
	})
	// Static method: params start at locals.
	cls.Method(dexgen.MethodSpec{
		Name: "twice", Ret: "I", Params: []string{"I"}, Static: true, Locals: 2,
	}, func(a *dexgen.Asm) {
		if a.P(0) != 2 {
			t.Errorf("static param = v%d, want v2", a.P(0))
		}
		a.BinopLit8(bytecode.OpMulIntLit8, 0, a.P(0), 2)
		a.Return(0)
	})
	// A wide parameter takes two words: this, then the long's pair, then
	// the object.
	cls.Method(dexgen.MethodSpec{
		Name: "wide", Ret: "Ljava/lang/Object;", Params: []string{"J", "Ljava/lang/Object;"}, Locals: 2,
	}, func(a *dexgen.Asm) {
		if a.This() != 2 || a.P(0) != 3 || a.P(1) != 5 {
			t.Errorf("this, params = v%d, v%d, v%d; want v2, v3, v5", a.This(), a.P(0), a.P(1))
		}
		a.ReturnObj(a.P(1))
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if code := f.FindMethod("Lg/C;", "wide", "").Code; code.InsSize != 4 || code.RegistersSize != 6 {
		t.Errorf("wide: ins %d, registers_size %d; want 4, 6", code.InsSize, code.RegistersSize)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	c, err := rt.FindClass("Lg/C;")
	if err != nil {
		t.Fatal(err)
	}
	obj := rt.NewInstance(c)
	res, err := rt.Call("Lg/C;", "pick", "(II)I", obj,
		[]art.Value{art.IntVal(9), art.IntVal(4)})
	if err != nil || res.Int != 5 {
		t.Errorf("pick(9,4) = %v, %v", res, err)
	}
	res, err = rt.Call("Lg/C;", "twice", "(I)I", nil, []art.Value{art.IntVal(21)})
	if err != nil || res.Int != 42 {
		t.Errorf("twice(21) = %v, %v", res, err)
	}
	// The long's two words, then the object: the interpreter must find the
	// object where P(1) named it.
	res, err = rt.Call("Lg/C;", "wide", "(JLjava/lang/Object;)Ljava/lang/Object;", obj,
		[]art.Value{art.IntVal(7), art.IntVal(0), art.RefVal(obj)})
	if err != nil || res.Ref != obj {
		t.Errorf("wide(7, obj) = %v, %v; want obj", res, err)
	}
}

func TestOutsSizeComputed(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lo/C;", "")
	cls.Static("callee", "V", []string{"I", "I", "I"}, func(a *dexgen.Asm) {
		a.ReturnVoid()
	})
	cls.Static("caller", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, 1)
		a.Const(1, 2)
		a.Const(2, 3)
		a.InvokeStatic("Lo/C;", "callee", "(III)V", 0, 1, 2)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	em := f.FindMethod("Lo/C;", "caller", "()V")
	if em.Code.OutsSize != 3 {
		t.Errorf("outs = %d, want 3", em.Code.OutsSize)
	}
}

// TestRawMethodDerivesInsAndOuts: a raw body's ins come from its
// prototype and flags (J and D take two words, an instance method one more
// for the receiver), and its outs from the widest invoke it emitted, raw
// assembler calls included.
func TestRawMethodDerivesInsAndOuts(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lraw/D;", "")
	idx, err := p.Builder().MethodSig("Lraw/D;", "never", "(JD)V")
	if err != nil {
		t.Fatal(err)
	}
	cls.RawMethod("never", "V", []string{"J", "D"}, dex.AccPublic|dex.AccStatic, dexgen.RawCode{
		Registers: 6,
		Build: func(a *dexgen.Asm) {
			a.Raw().InvokeRange(bytecode.OpInvokeStaticR, idx, 2, 4)
			a.ReturnVoid()
		},
	})
	cls.RawMethod("m", "V", []string{"J"}, dex.AccPublic, dexgen.RawCode{
		Registers: 3,
		Build:     func(a *dexgen.Asm) { a.ReturnVoid() },
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, sig string
		ins, outs uint16
	}{
		{"never", "(JD)V", 4, 4},
		{"m", "(J)V", 3, 0},
	} {
		code := f.FindMethod("Lraw/D;", tc.name, tc.sig).Code
		if code.InsSize != tc.ins || code.OutsSize != tc.outs {
			t.Errorf("%s%s: ins %d, outs %d; want %d, %d", tc.name, tc.sig, code.InsSize, code.OutsSize, tc.ins, tc.outs)
		}
	}
	if errs := dex.Verify(f); len(errs) != 0 {
		t.Errorf("verify: %v", errs)
	}
}

func TestInvokeRangePromotion(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lr/C;", "")
	cls.Static("six", "I", []string{"I", "I", "I", "I", "I", "I"}, func(a *dexgen.Asm) {
		a.Binop(bytecode.OpAddInt, 0, a.P(0), a.P(5))
		a.Return(0)
	})
	cls.Static("go6", "I", nil, func(a *dexgen.Asm) {
		for i := int32(0); i < 6; i++ {
			a.Const(i, int64(i+1))
		}
		a.InvokeStatic("Lr/C;", "six", "(IIIIII)I", 0, 1, 2, 3, 4, 5)
		a.MoveResult(6)
		a.Return(6)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	em := f.FindMethod("Lr/C;", "go6", "()I")
	prog := bytecode.Predecode(em.Code.Insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	sawRange := false
	for _, pl := range placed {
		if pl.Inst.Op == bytecode.OpInvokeStaticR {
			sawRange = true
		}
	}
	if !sawRange {
		t.Error("six-arg invoke was not promoted to the range form")
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call("Lr/C;", "go6", "()I", nil, nil)
	if err != nil || res.Int != 7 {
		t.Errorf("go6() = %v, %v; want 7", res, err)
	}
}

func TestInvokeRangeNonConsecutiveFails(t *testing.T) {
	p := dexgen.New()
	p.Class("Lbad/C;", "").Static("f", "V", nil, func(a *dexgen.Asm) {
		a.InvokeStatic("Lbad/C;", "g", "(IIIIII)V", 0, 1, 2, 3, 4, 6)
		a.ReturnVoid()
	})
	if _, err := p.Finish(); err == nil ||
		!strings.Contains(err.Error(), "not consecutive") {
		t.Errorf("want non-consecutive error, got %v", err)
	}
}

func TestBadTryLabelsFail(t *testing.T) {
	p := dexgen.New()
	p.Class("Lbad/T;", "").Static("f", "V", nil, func(a *dexgen.Asm) {
		a.ReturnVoid()
		a.Catch("nope", "norDoesThis", "Ljava/lang/Exception;", "missing")
	})
	if _, err := p.Finish(); err == nil {
		t.Error("want bad-label error")
	}
}

func TestBadSignatureFails(t *testing.T) {
	p := dexgen.New()
	p.Class("Lbad/S;", "").Static("f", "V", nil, func(a *dexgen.Asm) {
		a.InvokeStatic("Lx;", "m", "broken-signature", 0)
		a.ReturnVoid()
	})
	if _, err := p.Finish(); err == nil {
		t.Error("want signature error")
	}
	// The first error sticks; later calls are no-ops.
	if _, err := p.Bytes(); err == nil {
		t.Error("Bytes after failure must keep the error")
	}
}

func TestBuildAPK(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lq/Main;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	pkg, err := p.BuildAPK("q.app", "2.3", "Lq/Main;")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Manifest.Package != "q.app" || pkg.Manifest.MainActivity != "Lq/Main;" {
		t.Errorf("manifest = %+v", pkg.Manifest)
	}
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dex.Read(data); err != nil {
		t.Errorf("generated dex does not parse: %v", err)
	}
}

func TestRawMethodTriesFn(t *testing.T) {
	p := dexgen.New()
	p.Class("Lraw/C;", "").RawMethod("f", "V", nil, dex.AccPublic|dex.AccStatic,
		dexgen.RawCode{
			Registers: 1,
			Build: func(a *dexgen.Asm) {
				a.Label("start")
				a.Nop()
				a.ReturnVoid()
			},
			TriesFn: func(labels *bytecode.Labels) ([]dex.Try, error) {
				start, ok := labels.Name("start")
				if !ok {
					t.Error("label positions not passed to TriesFn")
				}
				return []dex.Try{{Start: uint32(start), Count: 1, CatchAll: 1}}, nil
			},
		})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	em := f.FindMethod("Lraw/C;", "f", "()V")
	if len(em.Code.Tries) != 1 || em.Code.Tries[0].CatchAll != 1 {
		t.Errorf("tries = %+v", em.Code.Tries)
	}
}
