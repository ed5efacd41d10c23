package droidbench

import (
	"fmt"

	"dexlego/internal/apimodel"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// contributedSamples returns the 15 samples the paper's authors added to
// DroidBench: 5 advanced-reflection, 3 dynamic-loading, 4 self-modifying,
// and 3 unreachable-taint-flow samples. No current static tool analyzes
// them precisely on the original APK.
func contributedSamples() []*Sample {
	var out []*Sample
	out = append(out, advReflectionSamples()...)
	out = append(out, dexLoadingSamples()...)
	out = append(out, selfModifyingSamples()...)
	out = append(out, unreachableFlowSamples()...)
	return out
}

func contributed(s *Sample) *Sample {
	s.Contributed = true
	return s
}

// advReflectionSamples: targets resolved through computed names or method
// enumeration. AdvReflection1-3 become analyzable once DexLego rewrites the
// call to a direct one; 4 and 5 stay dark even revealed (file round trip /
// native code).
func advReflectionSamples() []*Sample {
	var out []*Sample

	// 1, 2: class and method names decrypted at runtime.
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("AdvReflection%d", i)
		sink := sinkKinds[i%len(sinkKinds)]
		src := sourceKinds[i%len(sourceKinds)]
		out = append(out, contributed(leakySample(name, "adv-reflection", 1,
			newActivityApp(name, func(p *dexgen.Program, cls *dexgen.Class) {
				addSecretSource(cls, src)
				cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
					emitComputedString(a, dotted(name), 0, 2, 3)
					emitComputedString(a, "secretSource", 1, 2, 3)
					emitReflectiveCall(a, 0, 1, 4)
					emitSink(a, sink, 4, 0)
					a.ReturnVoid()
				})
			}))))
	}

	// 3: no string at all — getDeclaredMethods enumeration.
	name3 := "AdvReflection3"
	out = append(out, contributed(leakySample(name3, "adv-reflection", 1,
		newActivityApp(name3, func(p *dexgen.Program, cls *dexgen.Class) {
			// The helper class has exactly one method, so [0] is the target.
			helper := p.Class("Lde/droidbench/AdvReflection3$T;", "")
			helper.Ctor("Ljava/lang/Object;", nil)
			helper.Field("act", "Landroid/app/Activity;")
			helper.Virtual("grab", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
				a.IGetObject(6, a.This(), "Lde/droidbench/AdvReflection3$T;", "act",
					"Landroid/app/Activity;")
				a.ConstString(7, "phone")
				a.InvokeVirtual("Landroid/app/Activity;", "getSystemService",
					"(Ljava/lang/String;)Ljava/lang/Object;", 6, 7)
				a.MoveResultObject(7)
				a.CheckCast(7, "Landroid/telephony/TelephonyManager;")
				a.InvokeVirtual("Landroid/telephony/TelephonyManager;", "getDeviceId",
					"()Ljava/lang/String;", 7)
				a.MoveResultObject(0)
				a.ReturnObj(0)
			})
			cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
				a.NewInstance(0, "Lde/droidbench/AdvReflection3$T;")
				a.InvokeDirect("Lde/droidbench/AdvReflection3$T;", "<init>", "()V", 0)
				a.IPutObject(a.This(), 0, "Lde/droidbench/AdvReflection3$T;", "act",
					"Landroid/app/Activity;")
				a.InvokeVirtual("Ljava/lang/Object;", "getClass", "()Ljava/lang/Class;", 0)
				a.MoveResultObject(1)
				a.InvokeVirtual("Ljava/lang/Class;", "getDeclaredMethods",
					"()[Ljava/lang/reflect/Method;", 1)
				a.MoveResultObject(1)
				a.Const(2, 0)
				a.Label("scan") // skip constructors: find "grab" by arity
				a.AGet(bytecode.OpAGetObject, 3, 1, 2)
				a.InvokeVirtual("Ljava/lang/reflect/Method;", "getName",
					"()Ljava/lang/String;", 3)
				a.MoveResultObject(4)
				a.InvokeVirtual("Ljava/lang/String;", "length", "()I", 4)
				a.MoveResult(4)
				a.Const(5, 4) // "grab"
				a.If(bytecode.OpIfEq, 4, 5, "found")
				a.AddLit(2, 2, 1)
				a.Goto("scan")
				a.Label("found")
				a.Const(5, 0)
				a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
					"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", 3, 0, 5)
				a.MoveResultObject(6)
				a.CheckCast(6, "Ljava/lang/String;")
				emitSink(a, "log", 6, 7)
				a.ReturnVoid()
			})
		}))))

	// 4 (hard even revealed): the reflective target leaks through the
	// external-storage round trip.
	name4 := "AdvReflection4"
	out = append(out, contributed(leakySample(name4, "adv-reflection-hard", 1,
		newActivityApp(name4, func(p *dexgen.Program, cls *dexgen.Class) {
			cls.Virtual("roundTrip", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
				emitSource(a, "imei", 0, 1)
				a.ConstString(1, "tmp.bin")
				a.InvokeStatic("Ljava/io/FileUtil;", "writeInternal",
					"(Ljava/lang/String;Ljava/lang/String;)V", 1, 0)
				a.InvokeStatic("Ljava/io/FileUtil;", "readInternal",
					"(Ljava/lang/String;)Ljava/lang/String;", 1)
				a.MoveResultObject(2)
				a.ReturnObj(2)
			})
			cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
				emitComputedString(a, dotted(name4), 0, 2, 3)
				emitComputedString(a, "roundTrip", 1, 2, 3)
				emitReflectiveCall(a, 0, 1, 4)
				emitSink(a, "sms", 4, 0)
				a.ReturnVoid()
			})
		}))))

	// 5 (hard even revealed): the reflective target is a native method that
	// leaks internally; bytecode-level analysis cannot look inside.
	name5 := "AdvReflection5"
	s5 := contributed(leakySample(name5, "adv-reflection-hard", 1,
		newActivityApp(name5, func(p *dexgen.Program, cls *dexgen.Class) {
			cls.Bodyless("nativeLeak", "Ljava/lang/Object;", nil, dex.AccPublic|dex.AccNative)
			cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
				emitComputedString(a, dotted(name5), 0, 2, 3)
				emitComputedString(a, "nativeLeak", 1, 2, 3)
				emitReflectiveCall(a, 0, 1, 4)
				a.ReturnVoid()
			})
		})))
	s5.natives = map[string]art.NativeFunc{
		activityDesc(name5) + "->nativeLeak()Ljava/lang/Object;": func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			imei := env.NewStringTainted(env.Device().IMEI, apimodel.TaintIMEI)
			logM, err := env.MethodOf("Landroid/util/Log;", "i",
				"(Ljava/lang/String;Ljava/lang/String;)I")
			if err != nil {
				return art.Value{}, err
			}
			tag := env.NewString("native")
			if _, err := env.Call(logM, nil, []art.Value{art.RefVal(tag), art.RefVal(imei)}); err != nil {
				return art.Value{}, err
			}
			return art.NullVal(), nil
		},
	}
	out = append(out, s5)
	return out
}

// dexLoadingSamples hide the leaking class in an encrypted-by-absence
// payload DEX loaded at runtime.
func dexLoadingSamples() []*Sample {
	var out []*Sample
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("DexLoading%d", i)
		sink := sinkKinds[i%len(sinkKinds)]
		payloadDesc := fmt.Sprintf("Lde/droidbench/payload/Evil%d;", i)
		out = append(out, contributed(leakySample(name, "dynamic-loading", 1,
			func() (*apk.APK, error) {
				payload := dexgen.New()
				evil := payload.Class(payloadDesc, "")
				sinkKind := sink
				evil.Static("run", "V", []string{"Landroid/app/Activity;"}, func(a *dexgen.Asm) {
					a.ConstString(0, "phone")
					a.InvokeVirtual("Landroid/app/Activity;", "getSystemService",
						"(Ljava/lang/String;)Ljava/lang/Object;", a.P(0), 0)
					a.MoveResultObject(0)
					a.CheckCast(0, "Landroid/telephony/TelephonyManager;")
					a.InvokeVirtual("Landroid/telephony/TelephonyManager;", "getDeviceId",
						"()Ljava/lang/String;", 0)
					a.MoveResultObject(1)
					emitSink(a, sinkKind, 1, 2)
					a.ReturnVoid()
				})
				payloadBytes, err := payload.Bytes()
				if err != nil {
					return nil, err
				}
				host := dexgen.New()
				desc := activityDesc(name)
				cls := host.Class(desc, "Landroid/app/Activity;")
				cls.Ctor("Landroid/app/Activity;", nil)
				cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
					a.NewInstance(0, "Ldalvik/system/DexClassLoader;")
					a.ConstString(1, "payload.dex")
					a.InvokeDirect("Ldalvik/system/DexClassLoader;", "<init>",
						"(Ljava/lang/String;)V", 0, 1)
					a.InvokeStatic(payloadDesc, "run", "(Landroid/app/Activity;)V", a.This())
					a.ReturnVoid()
				})
				pkg, err := host.BuildAPK("de.droidbench."+name, "1.0", desc)
				if err != nil {
					return nil, err
				}
				pkg.AddAsset("payload.dex", payloadBytes)
				return pkg, nil
			})))
	}
	return out
}

// selfModifyingSamples reproduce Code 1: native code rewrites advancedLeak's
// call site between loop iterations. Samples 1-2 are revealed fully by
// instruction-level collection; 3-4 keep their flow dark even revealed (the
// modified code leaks through the file round trip or native code).
func selfModifyingSamples() []*Sample {
	mk := func(idx int, leakVia string) *Sample {
		name := fmt.Sprintf("SelfModifying%d", idx)
		desc := activityDesc(name)
		s := contributed(leakySample(name, "self-modifying", 1,
			newActivityApp(name, func(p *dexgen.Program, cls *dexgen.Class) {
				cls.Bodyless("bytecodeTamper", "V", []string{"I"}, dex.AccPublic|dex.AccNative)
				addSecretSource(cls, "imei")
				cls.Virtual("normal", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
					a.ReturnVoid()
				})
				cls.Virtual("sink", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
					switch leakVia {
					case "sms":
						emitSink(a, "sms", a.P(0), 0)
					case "http":
						emitSink(a, "http", a.P(0), 0)
					case "file-roundtrip":
						a.ConstString(0, "sm.bin")
						a.InvokeStatic("Ljava/io/FileUtil;", "writeInternal",
							"(Ljava/lang/String;Ljava/lang/String;)V", 0, a.P(0))
						a.InvokeStatic("Ljava/io/FileUtil;", "readInternal",
							"(Ljava/lang/String;)Ljava/lang/String;", 0)
						a.MoveResultObject(1)
						emitSink(a, "sms", 1, 2)
					case "native":
						a.InvokeVirtual(desc, "nativeSink",
							"(Ljava/lang/String;)V", a.This(), a.P(0))
					}
					a.ReturnVoid()
				})
				if leakVia == "native" {
					cls.Bodyless("nativeSink", "V", []string{"Ljava/lang/String;"}, dex.AccPublic|dex.AccNative)
				}
				cls.Virtual("advancedLeak", "V", nil, func(a *dexgen.Asm) {
					a.InvokeVirtual(desc, "secretSource", "()Ljava/lang/String;", a.This())
					a.MoveResultObject(0)
					a.Const(1, 0)
					a.Label("loop")
					a.Const(2, 2)
					a.If(bytecode.OpIfGe, 1, 2, "end")
					a.InvokeVirtual(desc, "normal", "(Ljava/lang/String;)V", a.This(), 0)
					a.InvokeVirtual(desc, "bytecodeTamper", "(I)V", a.This(), 1)
					a.AddLit(1, 1, 1)
					a.Goto("loop")
					a.Label("end")
					a.ReturnVoid()
				})
				cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
					a.InvokeVirtual(desc, "advancedLeak", "()V", a.This())
					a.ReturnVoid()
				})
			})))
		s.natives = map[string]art.NativeFunc{
			desc + "->bytecodeTamper(I)V": tamperNative(desc),
		}
		if leakVia == "native" {
			s.natives[desc+"->nativeSink(Ljava/lang/String;)V"] =
				func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
					logM, err := env.MethodOf("Landroid/util/Log;", "i",
						"(Ljava/lang/String;Ljava/lang/String;)I")
					if err != nil {
						return art.Value{}, err
					}
					tag := env.NewString("native-sm")
					_, err = env.Call(logM, nil, []art.Value{art.RefVal(tag), args[0]})
					return art.Value{}, err
				}
		}
		return s
	}
	return []*Sample{
		mk(1, "sms"),
		mk(2, "http"),
		mk(3, "file-roundtrip"),
		mk(4, "native"),
	}
}

// tamperNative returns the JNI function that swaps the normal/sink call
// site of advancedLeak, exactly like the paper's Code 1.
func tamperNative(desc string) art.NativeFunc {
	return func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
		i := args[0].Int
		return art.Value{}, env.TamperMethod(desc, "advancedLeak",
			func(insns []uint16) []uint16 {
				// Locate the DEX that defines the sample class: under a
				// packer it is the dynamically released one, not [0].
				var f *dex.File
				for _, cand := range env.Runtime().LoadedDexes() {
					if cand.FindClass(desc) != nil {
						f = cand
						break
					}
				}
				if f == nil {
					return nil
				}
				findIdx := func(want string) (uint16, bool) {
					for mi := range f.Methods {
						ref := f.MethodAt(uint32(mi))
						if ref.Class == desc && ref.Name == want {
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
}

// unreachableFlowSamples contain a complete source-to-sink flow inside a
// branch that never executes: static tools flag them (a false positive per
// ground truth); the revealed APK no longer contains the dead flow.
func unreachableFlowSamples() []*Sample {
	var out []*Sample
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("UnreachableFlow%d", i)
		src := sourceKinds[i%len(sourceKinds)]
		sink := sinkKinds[(i+2)%len(sinkKinds)]
		s := contributed(&Sample{
			Name: name, Category: "unreachable", Leaky: false,
			build: newActivityApp(name, func(p *dexgen.Program, cls *dexgen.Class) {
				cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
					a.Const(0, int64(i))
					a.Const(1, 0)
					a.If(bytecode.OpIfEq, 0, 1, "deadcode") // never equal
					a.ReturnVoid()
					a.Label("deadcode")
					emitSource(a, src, 2, 3)
					emitSink(a, sink, 2, 3)
					a.ReturnVoid()
				})
			}),
		})
		out = append(out, s)
	}
	return out
}
