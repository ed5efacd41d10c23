// Self-modifying code end to end: this example reproduces Code 1 of the
// paper. A native method rewrites advancedLeak's call site between loop
// iterations so the leaking call exists in memory only during the second
// iteration. Static analysis of the original misses it; DexLego's
// instruction-level collection reveals both states connected by the
// instrument-class branch (Code 4 of the paper), and every static tool
// then finds the flow.
package main

import (
	"fmt"
	"log"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/taint"
)

const mainDesc = "Lcom/test/Main;"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	pkg, err := buildCode1()
	if err != nil {
		return err
	}
	natives := map[string]art.NativeFunc{
		mainDesc + "->bytecodeTamper(I)V": bytecodeTamper,
	}

	origData, err := pkg.Dex()
	if err != nil {
		return err
	}
	origDex, err := dex.Read(origData)
	if err != nil {
		return err
	}
	fmt.Println("== advancedLeak as shipped (Code 2 of the paper) ==")
	printMethod(origDex, "advancedLeak")

	res, err := root.Reveal(pkg, root.Options{Natives: natives})
	if err != nil {
		return err
	}
	fmt.Println("\n== advancedLeak as revealed (Code 4 of the paper) ==")
	printMethod(res.RevealedDex, "advancedLeak")
	fmt.Printf("\nself-modification layers merged: %d, instrument fields: %d\n",
		res.Stats.Divergences, res.Stats.InstrumentFields)

	for _, profile := range taint.Profiles() {
		before, err := taint.Analyze([]*dex.File{origDex}, profile)
		if err != nil {
			return err
		}
		after, err := taint.Analyze([]*dex.File{res.RevealedDex}, profile)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s original: leak=%v, revealed: leak=%v\n",
			profile.Name, before.Leaky(), after.Leaky())
	}
	return nil
}

func buildCode1() (*apk.APK, error) {
	p := dexgen.New()
	cls := p.Class(mainDesc, "Landroid/app/Activity;")
	cls.StaticString("PHONE", "800-123-456")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Bodyless("bytecodeTamper", "V", []string{"I"}, dex.AccPublic|dex.AccNative)
	cls.Virtual("getSensitiveData", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ReturnObj(0)
	})
	cls.Virtual("normal", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
		a.ReturnVoid() // do something normal
	})
	cls.Virtual("sink", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
		a.SendSMS("800-123-456", a.P(0), 0)
		a.ReturnVoid()
	})
	cls.Virtual("advancedLeak", "V", nil, func(a *dexgen.Asm) {
		a.InvokeVirtual(mainDesc, "getSensitiveData", "()Ljava/lang/String;", a.This())
		a.MoveResultObject(0)
		a.Const(1, 0)
		a.Label("loop")
		a.Const(2, 2)
		a.If(bytecode.OpIfGe, 1, 2, "end")
		a.InvokeVirtual(mainDesc, "normal", "(Ljava/lang/String;)V", a.This(), 0)
		a.InvokeVirtual(mainDesc, "bytecodeTamper", "(I)V", a.This(), 1)
		a.AddLit(1, 1, 1)
		a.Goto("loop")
		a.Label("end")
		a.ReturnVoid()
	})
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeVirtual(mainDesc, "advancedLeak", "()V", a.This())
		a.ReturnVoid()
	})
	return p.BuildAPK("com.test", "1.0", mainDesc)
}

func printMethod(f *dex.File, name string) {
	em := f.FindMethod(mainDesc, name, "")
	if em == nil || em.Code == nil {
		fmt.Println("  <missing>")
		return
	}
	lines, err := bytecode.Disassemble(em.Code.Insns, func(kind bytecode.IndexKind, idx uint32) string {
		switch kind {
		case bytecode.IndexString:
			return fmt.Sprintf("%q", f.String(idx))
		case bytecode.IndexType:
			return f.TypeName(idx)
		case bytecode.IndexField:
			return f.FieldAt(idx).Key()
		case bytecode.IndexMethod:
			return f.MethodAt(idx).Key()
		default:
			return "?"
		}
	})
	if err != nil {
		fmt.Println("  <undecodable>")
		return
	}
	for _, l := range lines {
		fmt.Println("  " + l)
	}
}

// bytecodeTamper is the JNI function of Code 1: on i=0 it swaps the call to
// normal() for sink(); on i=1 it swaps it back.
func bytecodeTamper(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
	i := args[0].Int
	return art.Value{}, env.TamperMethod(mainDesc, "advancedLeak",
		func(insns []uint16) []uint16 {
			var f *dex.File
			for _, cand := range env.Runtime().LoadedDexes() {
				if cand.FindClass(mainDesc) != nil {
					f = cand
					break
				}
			}
			if f == nil {
				return nil
			}
			findIdx := func(name string) (uint16, bool) {
				for mi := range f.Methods {
					ref := f.MethodAt(uint32(mi))
					if ref.Class == mainDesc && ref.Name == name {
						return uint16(mi), true
					}
				}
				return 0, false
			}
			for pc := 0; pc < len(insns); {
				in, w, err := bytecode.Decode(insns, pc)
				if err != nil {
					return nil
				}
				if in.Op == bytecode.OpInvokeVirtual {
					name := f.MethodAt(in.Index).Name
					if i == 0 && name == "normal" {
						if idx, ok := findIdx("sink"); ok {
							insns[pc+1] = idx
						}
						return nil
					}
					if i == 1 && name == "sink" {
						if idx, ok := findIdx("normal"); ok {
							insns[pc+1] = idx
						}
						return nil
					}
				}
				pc += w
				if pw, ok := bytecode.PayloadAt(insns, pc); ok {
					pc += pw
				}
			}
			return nil
		})
}
