package art

import (
	"fmt"
	"strconv"
	"strings"

	"dexlego/internal/apimodel"
	"dexlego/internal/dex"
)

// fwClass is a small helper for declaring native-backed framework classes.
type fwClass struct {
	rt *Runtime
	c  *Class
}

func (rt *Runtime) fw(desc, super string, ifaces ...string) *fwClass {
	c := &Class{
		Descriptor: desc,
		Statics:    make(map[string]Value),
		state:      stateInitialized,
		rt:         rt,
	}
	if super != "" {
		c.Super = rt.classes[super]
	}
	for _, i := range ifaces {
		c.Interfaces = append(c.Interfaces, rt.classes[i])
	}
	rt.classes[desc] = c
	return &fwClass{rt: rt, c: c}
}

func (f *fwClass) method(name, sig string, static bool, fn NativeFunc) *fwClass {
	si, err := dex.ParseSignature(sig)
	if err != nil {
		panic(fmt.Sprintf("art: framework method %s->%s%s: %v", f.c.Descriptor, name, sig, err))
	}
	var flags uint32 = dex.AccPublic
	if static {
		flags |= dex.AccStatic
	}
	m := f.rt.newMethod()
	*m = Method{
		Class: f.c, Name: name, Signature: sig, AccessFlags: flags,
		Native: fn, Sig: si, Virtual: !static,
	}
	f.c.Methods = append(f.c.Methods, m)
	return f
}

// abstract declares an interface/abstract method with no implementation.
func (f *fwClass) abstract(name, sig string) *fwClass {
	si, err := dex.ParseSignature(sig)
	if err != nil {
		panic(fmt.Sprintf("art: framework abstract %s->%s%s: %v", f.c.Descriptor, name, sig, err))
	}
	m := f.rt.newMethod()
	*m = Method{
		Class: f.c, Name: name, Signature: sig,
		AccessFlags: dex.AccPublic | dex.AccAbstract,
		Sig:         si, Virtual: true,
	}
	f.c.Methods = append(f.c.Methods, m)
	return f
}

func (f *fwClass) staticString(name, v string) *fwClass {
	f.c.StaticMeta = append(f.c.StaticMeta, &Field{
		Class: f.c, Name: name, Type: "Ljava/lang/String;",
		AccessFlags: dex.AccPublic | dex.AccStatic | dex.AccFinal, Static: true,
	})
	f.c.Statics[name] = RefVal(f.rt.NewString(v))
	return f
}

func nop(env *Env, recv *Object, args []Value) (Value, error) {
	return Value{Kind: KindInt}, nil
}

func strOf(v Value) (string, bool) {
	if v.Kind == KindRef && v.Ref != nil && v.Ref.IsString() {
		return v.Ref.Str, true
	}
	return "", false
}

// installFramework defines the Android and java.lang model classes.
func (rt *Runtime) installFramework() {
	// --- java/lang core -------------------------------------------------
	object := rt.fw("Ljava/lang/Object;", "")
	object.method("<init>", "()V", false, nop)
	object.method("getClass", "()Ljava/lang/Class;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.rt.classObject(recv.Class)), nil
		})
	object.method("toString", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.NewString(recv.String())), nil
		})
	object.method("hashCode", "()I", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return IntVal(int64(len(fmt.Sprintf("%p", recv)))), nil
		})
	object.method("equals", "(Ljava/lang/Object;)Z", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return BoolVal(len(args) == 1 && args[0].Kind == KindRef && args[0].Ref == recv), nil
		})

	str := rt.fw("Ljava/lang/String;", "Ljava/lang/Object;")
	// NewString reads the singleton directly; bind it here so the template
	// scratch runtime (which never runs cloneFramework) also has it.
	rt.stringClass = str.c
	str.method("length", "()I", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return IntVal(int64(len(recv.Str))).WithTaint(recv.Taint), nil
		})
	str.method("isEmpty", "()Z", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return BoolVal(recv.Str == "").WithTaint(recv.Taint), nil
		})
	str.method("equals", "(Ljava/lang/Object;)Z", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			s, ok := strOf(args[0])
			return BoolVal(ok && s == recv.Str).WithTaint(recv.Taint | args[0].EffectiveTaint()), nil
		})
	str.method("concat", "(Ljava/lang/String;)Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			s, _ := strOf(args[0])
			out := env.NewString(recv.Str + s)
			out.Taint = recv.Taint | args[0].EffectiveTaint()
			return RefVal(out), nil
		})
	str.method("charAt", "(I)C", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			i := args[0].Int
			if i < 0 || int(i) >= len(recv.Str) {
				return Value{}, env.Throw("Ljava/lang/ArrayIndexOutOfBoundsException;",
					fmt.Sprintf("charAt(%d) on %q", i, recv.Str))
			}
			return IntVal(int64(recv.Str[i])).WithTaint(recv.Taint | args[0].Taint), nil
		})
	str.method("substring", "(II)Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			a, b := args[0].Int, args[1].Int
			if a < 0 || b < a || int(b) > len(recv.Str) {
				return Value{}, env.Throw("Ljava/lang/ArrayIndexOutOfBoundsException;",
					fmt.Sprintf("substring(%d,%d) on %q", a, b, recv.Str))
			}
			out := env.NewString(recv.Str[a:b])
			out.Taint = recv.Taint
			return RefVal(out), nil
		})
	str.method("startsWith", "(Ljava/lang/String;)Z", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			s, _ := strOf(args[0])
			return BoolVal(strings.HasPrefix(recv.Str, s)).WithTaint(recv.Taint), nil
		})
	str.method("indexOf", "(Ljava/lang/String;)I", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			s, _ := strOf(args[0])
			return IntVal(int64(strings.Index(recv.Str, s))).WithTaint(recv.Taint), nil
		})
	str.method("valueOf", "(I)Ljava/lang/String;", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			out := env.NewString(strconv.FormatInt(args[0].Int, 10))
			out.Taint = args[0].Taint
			return RefVal(out), nil
		})
	str.method("toString", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(recv), nil
		})

	sb := rt.fw("Ljava/lang/StringBuilder;", "Ljava/lang/Object;")
	sb.method("<init>", "()V", false, nop)
	appendStr := func(env *Env, recv *Object, args []Value) (Value, error) {
		s, _ := strOf(args[0])
		recv.Str += s
		recv.Taint |= args[0].EffectiveTaint()
		return RefVal(recv), nil
	}
	sb.method("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;", false, appendStr)
	appendInt := func(env *Env, recv *Object, args []Value) (Value, error) {
		recv.Str += strconv.FormatInt(args[0].Int, 10)
		recv.Taint |= args[0].Taint
		return RefVal(recv), nil
	}
	sb.method("append", "(I)Ljava/lang/StringBuilder;", false, appendInt)
	sb.method("append", "(C)Ljava/lang/StringBuilder;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			recv.Str += string(rune(args[0].Int))
			recv.Taint |= args[0].Taint
			return RefVal(recv), nil
		})
	sb.method("toString", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			out := env.NewString(recv.Str)
			out.Taint = recv.Taint
			return RefVal(out), nil
		})

	// --- Throwable hierarchy --------------------------------------------
	throwable := rt.fw("Ljava/lang/Throwable;", "Ljava/lang/Object;")
	exInit := func(env *Env, recv *Object, args []Value) (Value, error) {
		if len(args) == 1 {
			recv.SetField("message", args[0])
		}
		return Value{Kind: KindInt}, nil
	}
	throwable.method("<init>", "()V", false, exInit)
	throwable.method("<init>", "(Ljava/lang/String;)V", false, exInit)
	throwable.method("getMessage", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return recv.Field("message"), nil
		})
	for _, pair := range [][2]string{
		{"Ljava/lang/Exception;", "Ljava/lang/Throwable;"},
		{"Ljava/lang/RuntimeException;", "Ljava/lang/Exception;"},
		{"Ljava/lang/NullPointerException;", "Ljava/lang/RuntimeException;"},
		{"Ljava/lang/ArithmeticException;", "Ljava/lang/RuntimeException;"},
		{"Ljava/lang/ClassCastException;", "Ljava/lang/RuntimeException;"},
		{"Ljava/lang/ArrayIndexOutOfBoundsException;", "Ljava/lang/RuntimeException;"},
		{"Ljava/lang/NumberFormatException;", "Ljava/lang/RuntimeException;"},
		{"Ljava/lang/IllegalArgumentException;", "Ljava/lang/RuntimeException;"},
		{"Ljava/lang/ClassNotFoundException;", "Ljava/lang/Exception;"},
		{"Ljava/lang/NoSuchMethodException;", "Ljava/lang/Exception;"},
		{"Ljava/lang/Error;", "Ljava/lang/Throwable;"},
		{"Ljava/lang/LinkageError;", "Ljava/lang/Error;"},
		{"Ljava/lang/VerifyError;", "Ljava/lang/LinkageError;"},
	} {
		ex := rt.fw(pair[0], pair[1])
		ex.method("<init>", "()V", false, exInit)
		ex.method("<init>", "(Ljava/lang/String;)V", false, exInit)
	}

	integer := rt.fw("Ljava/lang/Integer;", "Ljava/lang/Object;")
	integer.method("parseInt", "(Ljava/lang/String;)I", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			s, ok := strOf(args[0])
			if !ok {
				return Value{}, env.Throw("Ljava/lang/NumberFormatException;", "null")
			}
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
			if err != nil {
				return Value{}, env.Throw("Ljava/lang/NumberFormatException;", s)
			}
			return IntVal(n).WithTaint(args[0].EffectiveTaint()), nil
		})
	integer.method("valueOf", "(I)Ljava/lang/Integer;", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			box := env.rt.NewInstance(env.rt.lookupClass("Ljava/lang/Integer;"))
			box.SetField("value", args[0])
			return RefVal(box), nil
		})
	integer.method("intValue", "()I", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return recv.Field("value"), nil
		})

	// --- Reflection ------------------------------------------------------
	class := rt.fw("Ljava/lang/Class;", "Ljava/lang/Object;")
	rt.classClass = class.c
	class.method("forName", "(Ljava/lang/String;)Ljava/lang/Class;", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			name, ok := strOf(args[0])
			if !ok {
				return Value{}, env.Throw("Ljava/lang/ClassNotFoundException;", "null")
			}
			desc := "L" + strings.ReplaceAll(name, ".", "/") + ";"
			c, err := env.FindClass(desc)
			if err != nil {
				return Value{}, env.Throw("Ljava/lang/ClassNotFoundException;", name)
			}
			return RefVal(env.rt.classObject(c)), nil
		})
	class.method("getName", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			c := recv.Data.(*Class)
			name := strings.ReplaceAll(strings.Trim(c.Descriptor, "L;"), "/", ".")
			return RefVal(env.NewString(name)), nil
		})
	getMethod := func(env *Env, recv *Object, args []Value) (Value, error) {
		c, _ := recv.Data.(*Class)
		name, ok := strOf(args[0])
		if c == nil || !ok {
			return Value{}, env.Throw("Ljava/lang/NoSuchMethodException;", "null")
		}
		m := c.FindMethod(name, "")
		if m == nil {
			return Value{}, env.Throw("Ljava/lang/NoSuchMethodException;", name)
		}
		mo := env.rt.NewInstance(env.rt.lookupClass("Ljava/lang/reflect/Method;"))
		mo.Data = m
		return RefVal(mo), nil
	}
	class.method("getMethod", "(Ljava/lang/String;)Ljava/lang/reflect/Method;", false, getMethod)
	class.method("getDeclaredMethod", "(Ljava/lang/String;)Ljava/lang/reflect/Method;", false, getMethod)
	class.method("getDeclaredMethods", "()[Ljava/lang/reflect/Method;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			c, _ := recv.Data.(*Class)
			if c == nil {
				return NullVal(), nil
			}
			arr, err := env.rt.NewArray("[Ljava/lang/reflect/Method;", len(c.Methods))
			if err != nil {
				return Value{}, err
			}
			for i, m := range c.Methods {
				mo := env.rt.NewInstance(env.rt.lookupClass("Ljava/lang/reflect/Method;"))
				mo.Data = m
				arr.Elems[i] = RefVal(mo)
			}
			return RefVal(arr), nil
		})
	class.method("newInstance", "()Ljava/lang/Object;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			c, _ := recv.Data.(*Class)
			if c == nil {
				return Value{}, env.Throw("Ljava/lang/RuntimeException;", "not a class")
			}
			if err := env.rt.ensureInitialized(env.st, c); err != nil {
				return Value{}, err
			}
			obj := env.rt.NewInstance(c)
			if ctor := c.FindMethod("<init>", "()V"); ctor != nil {
				if _, err := env.Call(ctor, obj, nil); err != nil {
					return Value{}, err
				}
			}
			return RefVal(obj), nil
		})

	method := rt.fw("Ljava/lang/reflect/Method;", "Ljava/lang/Object;")
	method.method("getName", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			m := recv.Data.(*Method)
			return RefVal(env.NewString(m.Name)), nil
		})
	method.method("invoke",
		"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			target, _ := recv.Data.(*Method)
			if target == nil {
				return Value{}, env.Throw("Ljava/lang/RuntimeException;", "invalid Method object")
			}
			var callRecv *Object
			if !args[0].IsNull() {
				callRecv = args[0].Ref
				// Virtual dispatch through the actual receiver class.
				if target.Virtual {
					if resolved := callRecv.Class.FindMethod(target.Name, target.Signature); resolved != nil {
						target = resolved
					}
				}
			}
			var callArgs []Value
			if !args[1].IsNull() {
				for _, el := range args[1].Ref.Elems {
					callArgs = append(callArgs, unbox(el))
				}
			}
			// Natives index their arguments unchecked, so a call with the
			// wrong count throws here, as Method.invoke does on a device.
			if len(callArgs) != len(target.Sig.Params) {
				return Value{}, env.Throw("Ljava/lang/IllegalArgumentException;",
					fmt.Sprintf("wrong number of arguments; expected %d, got %d", len(target.Sig.Params), len(callArgs)))
			}
			env.FireReflectiveCall(target)
			res, err := env.Call(target, callRecv, callArgs)
			if err != nil {
				return Value{}, err
			}
			return boxIfPrimitive(env, target.Sig.Return, res), nil
		})

	// --- android framework ------------------------------------------------
	rt.fw("Landroid/os/Bundle;", "Ljava/lang/Object;").method("<init>", "()V", false, nop)

	intent := rt.fw("Landroid/content/Intent;", "Ljava/lang/Object;")
	intent.method("<init>", "()V", false, nop)
	intent.method("getStringExtra", "(Ljava/lang/String;)Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			key, _ := strOf(args[0])
			if v, ok := env.rt.intentExtras[key]; ok {
				return RefVal(env.NewString(v)), nil
			}
			return NullVal(), nil
		})

	config := rt.fw("Landroid/content/res/Configuration;", "Ljava/lang/Object;")
	_ = config

	listener := rt.fw("Landroid/view/View$OnClickListener;", "Ljava/lang/Object;")
	listener.c.AccessFlags |= dex.AccInterface
	listener.abstract("onClick", "(Landroid/view/View;)V")

	view := rt.fw("Landroid/view/View;", "Ljava/lang/Object;")
	view.method("<init>", "()V", false, nop)
	view.method("getId", "()I", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return recv.Field("__id"), nil
		})
	view.method("setOnClickListener", "(Landroid/view/View$OnClickListener;)V", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			recv.SetField("__listener", args[0])
			return Value{Kind: KindInt}, nil
		})
	btn := rt.fw("Landroid/widget/Button;", "Landroid/view/View;")
	btn.method("<init>", "()V", false, nop)
	tv := rt.fw("Landroid/widget/TextView;", "Landroid/view/View;")
	tv.method("<init>", "()V", false, nop)
	tv.method("setText", "(Ljava/lang/String;)V", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			recv.SetField("__text", args[0])
			return Value{Kind: KindInt}, nil
		})
	tv.method("getText", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return recv.Field("__text"), nil
		})

	telephony := rt.fw("Landroid/telephony/TelephonyManager;", "Ljava/lang/Object;")
	telephony.method("getDeviceId", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.NewStringTainted(env.Device().IMEI, apimodel.TaintIMEI)), nil
		})
	telephony.method("getSimSerialNumber", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.NewStringTainted(env.Device().SIM, apimodel.TaintSIM)), nil
		})

	sms := rt.fw("Landroid/telephony/SmsManager;", "Ljava/lang/Object;")
	sms.method("getDefault", "()Landroid/telephony/SmsManager;", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.rt.NewInstance(env.rt.lookupClass("Landroid/telephony/SmsManager;"))), nil
		})
	sms.method("sendTextMessage",
		"(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/Object;Ljava/lang/Object;)V",
		false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			key := "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/Object;Ljava/lang/Object;)V"
			env.RecordSink(apimodel.SinkSMS, key, args[apimodel.SinkArgStart(key):3], args)
			return Value{Kind: KindInt}, nil
		})

	logCls := rt.fw("Landroid/util/Log;", "Ljava/lang/Object;")
	logSink := func(name string) NativeFunc {
		key := "Landroid/util/Log;->" + name + "(Ljava/lang/String;Ljava/lang/String;)I"
		return func(env *Env, recv *Object, args []Value) (Value, error) {
			env.RecordSink(apimodel.SinkLog, key, args[apimodel.SinkArgStart(key):], args)
			return IntVal(0), nil
		}
	}
	logCls.method("i", "(Ljava/lang/String;Ljava/lang/String;)I", true, logSink("i"))
	logCls.method("d", "(Ljava/lang/String;Ljava/lang/String;)I", true, logSink("d"))
	logCls.method("e", "(Ljava/lang/String;Ljava/lang/String;)I", true, logSink("e"))

	location := rt.fw("Landroid/location/Location;", "Ljava/lang/Object;")
	location.method("toString", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.NewStringTainted(env.Device().Location, apimodel.TaintLocation)), nil
		})
	locMgr := rt.fw("Landroid/location/LocationManager;", "Ljava/lang/Object;")
	locMgr.method("getLastKnownLocation", "(Ljava/lang/String;)Landroid/location/Location;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			loc := env.rt.NewInstance(env.rt.lookupClass("Landroid/location/Location;"))
			loc.Taint = Taint(apimodel.TaintLocation)
			return RefVal(loc), nil
		})

	wifiInfo := rt.fw("Landroid/net/wifi/WifiInfo;", "Ljava/lang/Object;")
	wifiInfo.method("getSSID", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.NewStringTainted(env.Device().SSID, apimodel.TaintSSID)), nil
		})
	wifiMgr := rt.fw("Landroid/net/wifi/WifiManager;", "Ljava/lang/Object;")
	wifiMgr.method("getConnectionInfo", "()Landroid/net/wifi/WifiInfo;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.rt.NewInstance(env.rt.lookupClass("Landroid/net/wifi/WifiInfo;"))), nil
		})

	contacts := rt.fw("Landroid/content/ContactsReader;", "Ljava/lang/Object;")
	contacts.method("query", "()Ljava/lang/String;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.NewStringTainted("alice:555-0100", apimodel.TaintContacts)), nil
		})

	http := rt.fw("Landroid/net/http/HttpClient;", "Ljava/lang/Object;")
	http.method("post", "(Ljava/lang/String;Ljava/lang/String;)V", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			key := "Landroid/net/http/HttpClient;->post(Ljava/lang/String;Ljava/lang/String;)V"
			env.RecordSink(apimodel.SinkNetwork, key, args[apimodel.SinkArgStart(key):], args)
			return Value{Kind: KindInt}, nil
		})

	fileUtil := rt.fw("Ljava/io/FileUtil;", "Ljava/lang/Object;")
	fileUtil.method("writeExternal", "(Ljava/lang/String;Ljava/lang/String;)V", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			key := "Ljava/io/FileUtil;->writeExternal(Ljava/lang/String;Ljava/lang/String;)V"
			env.RecordSink(apimodel.SinkFile, key, args[apimodel.SinkArgStart(key):], args)
			path, _ := strOf(args[0])
			content, _ := strOf(args[1])
			// The stored copy deliberately drops taint: reading it back
			// severs the flow, which is why every tool in the paper's
			// Table IV misses PrivateDataLeak3's file round-trip.
			env.rt.extFiles[path] = env.NewString(content)
			return Value{Kind: KindInt}, nil
		})
	fileUtil.method("readExternal", "(Ljava/lang/String;)Ljava/lang/String;", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			path, _ := strOf(args[0])
			if o, ok := env.rt.extFiles[path]; ok {
				return RefVal(env.NewString(o.Str)), nil
			}
			return NullVal(), nil
		})
	// App-internal storage is not an exfiltration channel (no sink event),
	// but its contents are equally untracked by every tested tool.
	fileUtil.method("writeInternal", "(Ljava/lang/String;Ljava/lang/String;)V", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			path, _ := strOf(args[0])
			content, _ := strOf(args[1])
			env.rt.extFiles["internal:"+path] = env.NewString(content)
			return Value{Kind: KindInt}, nil
		})
	fileUtil.method("readInternal", "(Ljava/lang/String;)Ljava/lang/String;", true,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			path, _ := strOf(args[0])
			if o, ok := env.rt.extFiles["internal:"+path]; ok {
				return RefVal(env.NewString(o.Str)), nil
			}
			return NullVal(), nil
		})

	build := rt.fw("Landroid/os/Build;", "Ljava/lang/Object;")
	build.staticString("MODEL", rt.Device.Model)
	build.staticString("BRAND", rt.Device.Brand)
	build.staticString("HARDWARE", rt.Device.Hardware)
	build.staticString("FINGERPRINT", rt.Device.Fingerprint)

	activity := rt.fw("Landroid/app/Activity;", "Ljava/lang/Object;")
	activity.method("<init>", "()V", false, nop)
	for _, lifecycle := range []string{"onCreate"} {
		activity.method(lifecycle, "(Landroid/os/Bundle;)V", false, nop)
	}
	for _, lifecycle := range []string{"onStart", "onResume", "onPause", "onStop", "onDestroy", "onLowMemory"} {
		activity.method(lifecycle, "()V", false, nop)
	}
	activity.method("setContentView", "(I)V", false, nop)
	activity.method("getIntent", "()Landroid/content/Intent;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.rt.NewInstance(env.rt.lookupClass("Landroid/content/Intent;"))), nil
		})
	activity.method("findViewById", "(I)Landroid/view/View;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			return RefVal(env.rt.viewByID(args[0].Int)), nil
		})
	activity.method("getConfiguration", "()Landroid/content/res/Configuration;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			cfg := env.rt.NewInstance(env.rt.lookupClass("Landroid/content/res/Configuration;"))
			cfg.SetField("screenLayout", IntVal(env.Device().screenLayout()))
			return RefVal(cfg), nil
		})
	activity.method("getSystemService", "(Ljava/lang/String;)Ljava/lang/Object;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			name, _ := strOf(args[0])
			var desc string
			switch name {
			case "phone":
				desc = "Landroid/telephony/TelephonyManager;"
			case "location":
				desc = "Landroid/location/LocationManager;"
			case "wifi":
				desc = "Landroid/net/wifi/WifiManager;"
			case "contacts":
				desc = "Landroid/content/ContactsReader;"
			default:
				return NullVal(), nil
			}
			return RefVal(env.rt.NewInstance(env.rt.lookupClass(desc))), nil
		})

	loader := rt.fw("Ldalvik/system/DexClassLoader;", "Ljava/lang/Object;")
	loader.method("<init>", "(Ljava/lang/String;)V", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			assetName, ok := strOf(args[0])
			if !ok {
				return Value{}, env.Throw("Ljava/lang/RuntimeException;", "null dex path")
			}
			data, ok := env.Asset(assetName)
			if !ok {
				return Value{}, env.Throw("Ljava/lang/RuntimeException;",
					"no such asset "+assetName)
			}
			if _, err := env.DefineDex(data); err != nil {
				return Value{}, env.Throw("Ljava/lang/RuntimeException;", err.Error())
			}
			return Value{Kind: KindInt}, nil
		})
	loader.method("loadClass", "(Ljava/lang/String;)Ljava/lang/Class;", false,
		func(env *Env, recv *Object, args []Value) (Value, error) {
			name, _ := strOf(args[0])
			desc := "L" + strings.ReplaceAll(name, ".", "/") + ";"
			c, err := env.FindClass(desc)
			if err != nil {
				return Value{}, env.Throw("Ljava/lang/ClassNotFoundException;", name)
			}
			return RefVal(env.rt.classObject(c)), nil
		})
}

// unbox converts boxed Integer objects back to primitive values for
// reflective calls; other values pass through.
func unbox(v Value) Value {
	if v.Kind == KindRef && v.Ref != nil &&
		v.Ref.Class.Descriptor == "Ljava/lang/Integer;" {
		inner := v.Ref.Field("value")
		inner.Taint |= v.Taint | v.Ref.Taint
		return inner
	}
	return v
}

// boxIfPrimitive wraps primitive reflective-call results in Integer.
func boxIfPrimitive(env *Env, returnType string, v Value) Value {
	switch returnType {
	case "V":
		return NullVal()
	case "I", "Z", "B", "S", "C":
		box := env.rt.NewInstance(env.rt.lookupClass("Ljava/lang/Integer;"))
		box.SetField("value", v)
		box.Taint = v.Taint
		return RefVal(box)
	default:
		return v
	}
}
