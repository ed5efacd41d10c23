package art

import (
	"fmt"
	"sync"

	"dexlego/internal/apk"
	"dexlego/internal/dex"
)

// The reveal pipeline builds runtimes constantly: one per collection pass and
// one per forced run. Two class sets are the same in many of them, so each
// is linked once into a classTemplate and every runtime is stamped from it:
//   - the framework model, per Device (fwTemplateFor), which installFramework
//     builds identically every time and which is the most expensive part of
//     NewRuntime;
//   - an application, per forced reveal (NewAppTemplate), the way Android's
//     zygote forks app processes from one preloaded image.
//
// A runtime stamps a class the first time it resolves it (stamp): an app
// pass touches a few dozen of the 100+ framework classes, so the rest are
// never copied.
//
// What a template shares with every runtime, and why that is safe:
//   - Field metadata, and for DEX-linked classes the dex.File, the Def and
//     each method's Sig, Tries and unit array. Field.Init is written by
//     LoadDex only, and Env.TamperMethod copies a method's units before it
//     changes them (see Method.Insns).
//   - The Method structs of classes with no File: framework natives and
//     abstracts have no Insns, so the interpreter never binds code state to
//     them and TamperMethod rejects them. Native funcs reach runtime state
//     only through the call-time *Env, never by capturing the defining
//     runtime (enforced by construction in framework.go).
//   - Every template Method's Key() cache, pinned at build, before the
//     template is published; nothing writes a template afterwards.
//
// What each runtime gets of its own: the Class shell (Super and Interfaces
// resolved to its own classes, its state, a Statics map), and for a
// DEX-linked class a copy of every Method pointing at the new shell, with its
// own code binding state. A static written, a class initialized or a method
// bound in one runtime is therefore never seen by another.
type classTemplate struct {
	classes []*Class
	index   map[string]int32 // descriptor -> position in classes
}

func newClassTemplate(classes []*Class) *classTemplate {
	t := &classTemplate{classes: classes, index: make(map[string]int32, len(classes))}
	for i, c := range classes {
		t.index[c.Descriptor] = int32(i)
		for _, m := range c.Methods {
			m.Key()
		}
	}
	return t
}

// stamped is one runtime's view of a template: the shells stamped so far,
// by template position.
type stamped struct {
	t    *classTemplate
	slab []*Class
}

func newStamped(t *classTemplate) stamped {
	return stamped{t: t, slab: make([]*Class, len(t.classes))}
}

var fwTemplates sync.Map // Device -> *classTemplate

// fwTemplateFor returns the framework template for the device, building it
// on first use from a throwaway runtime's installFramework.
func fwTemplateFor(device Device) *classTemplate {
	if t, ok := fwTemplates.Load(device); ok {
		return t.(*classTemplate)
	}
	scratch := &Runtime{Device: device, classes: make(map[string]*Class, 128)}
	scratch.installFramework()
	classes := make([]*Class, 0, len(scratch.classes))
	for _, c := range scratch.classes {
		classes = append(classes, c)
	}
	actual, _ := fwTemplates.LoadOrStore(device, newClassTemplate(classes))
	return actual.(*classTemplate)
}

// stamp returns this runtime's class for descriptor from the view, stamping
// it out on first use, or nil when the template does not define it. The
// shell is published before its links are resolved, so self-referential
// statics and a malformed cyclic hierarchy terminate (as under LoadDex).
func (rt *Runtime) stamp(v *stamped, descriptor string) *Class {
	if v.t == nil {
		return nil
	}
	i, ok := v.t.index[descriptor]
	if !ok {
		return nil
	}
	if c := v.slab[i]; c != nil {
		return c
	}
	oc := v.t.classes[i]
	nc := &Class{
		Descriptor:   oc.Descriptor,
		AccessFlags:  oc.AccessFlags,
		File:         oc.File,
		Def:          oc.Def,
		StaticMeta:   oc.StaticMeta,
		InstanceMeta: oc.InstanceMeta,
		state:        oc.state,
		rt:           rt,
	}
	v.slab[i] = nc
	if oc.Super != nil {
		nc.Super = rt.lookupClass(oc.Super.Descriptor)
	}
	if len(oc.Interfaces) > 0 {
		nc.Interfaces = make([]*Class, len(oc.Interfaces))
		for j, ifc := range oc.Interfaces {
			nc.Interfaces[j] = rt.lookupClass(ifc.Descriptor)
		}
	}
	// A DEX-linked class always has a map for <clinit> to fill; a
	// framework class only when it declares statics (staticPut makes one
	// on demand). Framework statics are strings: each gets this runtime's
	// own object, of this runtime's String class.
	if oc.File != nil || len(oc.Statics) > 0 {
		nc.Statics = make(map[string]Value, len(oc.StaticMeta))
		for name, sv := range oc.Statics {
			if sv.Kind == KindRef && sv.Ref != nil {
				o := *sv.Ref
				o.Class = rt.lookupClass(o.Class.Descriptor)
				sv.Ref = &o
			}
			nc.Statics[name] = sv
		}
	}
	if oc.File == nil {
		nc.Methods = oc.Methods
	} else if len(oc.Methods) > 0 {
		ms := make([]Method, len(oc.Methods))
		nc.Methods = make([]*Method, len(oc.Methods))
		for j, om := range oc.Methods {
			ms[j] = *om
			ms[j].Class = nc
			nc.Methods[j] = &ms[j]
		}
	}
	return nc
}

// AppTemplate is an application linked once, for runtimes that run the same
// package many times (one per forced run of a reveal). See classTemplate.
type AppTemplate struct {
	apk     *apk.APK
	fw      *classTemplate // the framework it was linked against
	dexes   []*dex.File    // the linking runtime's loaded DEX files
	classes *classTemplate
}

// NewAppTemplate links the package's classes.dex on a fresh runtime for the
// device, exactly as LoadAPK would, and returns the template. The template
// is immutable and safe for concurrent LoadTemplate calls.
func NewAppTemplate(device Device, a *apk.APK) (*AppTemplate, error) {
	rt := NewRuntime(device)
	created, err := rt.loadAPK(a)
	if err != nil {
		return nil, err
	}
	return &AppTemplate{
		apk:     a,
		fw:      rt.fwView.t,
		dexes:   rt.loadedDexes,
		classes: newClassTemplate(created),
	}, nil
}

// LoadTemplate gives rt the template's package in place of LoadAPK: the same
// classes, resolved through the same descriptors, and the same loaded DEX
// files and assets. rt must run on the template's device and must not have
// loaded any DEX yet.
func (rt *Runtime) LoadTemplate(t *AppTemplate) error {
	if rt.fwView.t != t.fw {
		return fmt.Errorf("art: app template linked for another device than %q", rt.Device.Model)
	}
	if len(rt.loadedDexes) != 0 {
		return fmt.Errorf("art: app template loaded into a runtime that already linked a DEX")
	}
	rt.apk = t.apk
	rt.appView = newStamped(t.classes)
	rt.loadedDexes = append(rt.loadedDexes, t.dexes...)
	return nil
}
