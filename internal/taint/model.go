package taint

import (
	"fmt"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// model is the analyzable view of a set of DEX files.
type model struct {
	classes map[string]*mClass
}

type mClass struct {
	desc   string
	super  string
	ifaces []string
	meths  []*mMethod
	file   *dex.File
}

type mMethod struct {
	cls    *mClass
	name   string
	sig    string
	static bool
	ret    string
	params []string
	body   *dex.Code              // nil for abstract and native methods
	prog   *bytecode.Program      // nil when the method has no decodable body
	code   []bytecode.DecodedInst // prog's instructions
	file   *dex.File
}

func (m *mMethod) key() string { return m.cls.desc + "->" + m.name + m.sig }

func buildModel(files []*dex.File) (*model, error) {
	md := &model{classes: make(map[string]*mClass)}
	for _, f := range files {
		for ci := range f.Classes {
			cd := &f.Classes[ci]
			desc := f.TypeName(cd.Class)
			if _, dup := md.classes[desc]; dup {
				continue // first definition wins, like the class linker
			}
			mc := &mClass{desc: desc, file: f}
			if cd.Superclass != dex.NoIndex {
				mc.super = f.TypeName(cd.Superclass)
			}
			for _, t := range cd.Interfaces {
				mc.ifaces = append(mc.ifaces, f.TypeName(t))
			}
			for mi := range cd.NumMethods() {
				em := cd.Method(mi)
				ref := f.MethodAt(em.Method)
				sig, err := dex.ParseSignature(ref.Signature)
				if err != nil {
					return nil, fmt.Errorf("taint: %s: %w", ref.Key(), err)
				}
				mm := &mMethod{
					cls:    mc,
					name:   ref.Name,
					sig:    ref.Signature,
					static: em.AccessFlags&dex.AccStatic != 0,
					ret:    sig.Return,
					params: sig.Params,
					file:   f,
				}
				if em.Code != nil {
					// Undecodable (e.g. still-encrypted) bodies are
					// opaque to static analysis, like real packed code.
					if prog := bytecode.Read(em.Code.Insns); prog.Err() == nil {
						mm.prog, mm.code = prog, prog.Insts()
					}
					mm.body = em.Code
				}
				mc.meths = append(mc.meths, mm)
			}
			md.classes[desc] = mc
		}
	}
	return md, nil
}

// findMethod resolves a method by walking the model's superclass chain.
func (md *model) findMethod(desc, name, sig string) *mMethod {
	for c := md.classes[desc]; c != nil; c = md.classes[c.super] {
		for _, m := range c.meths {
			if m.name == name && (sig == "" || m.sig == sig) {
				return m
			}
		}
	}
	return nil
}

// isActivity reports whether the class transitively extends the framework
// Activity class.
func (md *model) isActivity(desc string) bool {
	seen := map[string]bool{}
	for d := desc; d != "" && !seen[d]; {
		seen[d] = true
		if d == "Landroid/app/Activity;" {
			return true
		}
		c, ok := md.classes[d]
		if !ok {
			return d == "Landroid/app/Activity;"
		}
		d = c.super
	}
	return false
}

// implementsInterface reports whether the class (or its ancestors) lists the
// interface descriptor.
func (md *model) implementsInterface(desc, iface string) bool {
	seen := map[string]bool{}
	for d := desc; d != "" && !seen[d]; {
		seen[d] = true
		c, ok := md.classes[d]
		if !ok {
			return false
		}
		for _, i := range c.ifaces {
			if i == iface {
				return true
			}
		}
		d = c.super
	}
	return false
}

var lifecycleEntries = []struct{ name, sig string }{
	{"onCreate", "(Landroid/os/Bundle;)V"},
	{"onStart", "()V"},
	{"onResume", "()V"},
	{"onPause", "()V"},
	{"onStop", "()V"},
	{"onDestroy", "()V"},
}

// entryPoints lists the methods the tool treats as program entries.
func (md *model) entryPoints(p Profile) []*mMethod {
	var out []*mMethod
	for _, c := range md.classes {
		if md.isActivity(c.desc) {
			for _, lc := range lifecycleEntries {
				if m := md.findDeclared(c, lc.name, lc.sig); m != nil {
					out = append(out, m)
				}
			}
			if p.ExtraLifecycle {
				if m := md.findDeclared(c, "onLowMemory", "()V"); m != nil {
					out = append(out, m)
				}
			}
		}
		if p.Callbacks && md.implementsInterface(c.desc, "Landroid/view/View$OnClickListener;") {
			if m := md.findDeclared(c, "onClick", "(Landroid/view/View;)V"); m != nil {
				out = append(out, m)
			}
		}
		if m := md.findDeclared(c, "<clinit>", "()V"); m != nil {
			out = append(out, m)
		}
	}
	return out
}

func (md *model) findDeclared(c *mClass, name, sig string) *mMethod {
	for _, m := range c.meths {
		if m.name == name && m.sig == sig && len(m.code) > 0 {
			return m
		}
	}
	return nil
}
