package art

import (
	"fmt"

	"dexlego/internal/apk"
	"dexlego/internal/dex"
)

// AppTemplate is an application linked once, for runtimes that run the same
// package many times (one per forced run of a reveal), the way Android's
// zygote forks app processes from one preloaded image. NewAppTemplate links
// the package with LoadDex into a runtime that never executes; LoadTemplate
// then gives each runtime the app lazily: a class shell is stamped out the
// first time the runtime resolves it, as fwClass does for the framework.
//
// What is shared and why it is safe:
//   - The dex.File, each class's Def, its Field metadata and each method's
//     Sig, Tries and unit array. Nothing writes them after link: Field.Init
//     is set by LoadDex only, and Env.TamperMethod copies a method's units
//     before it changes them (see Method.Insns).
//   - The template's Method and Class structs are only read. Their Key()
//     caches are pinned at build, before the template is published.
//
// What each runtime gets of its own: the Class shell (Super and Interfaces
// relinked to its own classes, a fresh Statics map, the loaded state) and a
// copy of every Method of the class, pointing at the new shell, with its own
// code binding state. A static written or a class initialized in one runtime
// is therefore never seen by another.
type AppTemplate struct {
	apk     *apk.APK
	fw      *fwTemplate
	dexes   []*dex.File      // the linking runtime's loaded DEX files
	classes []*Class         // the app classes, in link order
	lookup  map[string]int32 // descriptor -> index into classes
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
	t := &AppTemplate{
		apk:     a,
		fw:      rt.fwTmpl,
		dexes:   rt.loadedDexes,
		classes: created,
		lookup:  make(map[string]int32, len(created)),
	}
	for i, c := range created {
		t.lookup[c.Descriptor] = int32(i)
		// Pin the lazily cached keys: clones copy them, and the shared
		// methods are never written once the template is published.
		for _, m := range c.Methods {
			m.Key()
		}
	}
	return t, nil
}

// LoadTemplate gives rt the template's package in place of LoadAPK: the same
// classes, resolved through the same descriptors, and the same loaded DEX
// files and assets. rt must run on the template's device and must not have
// loaded any DEX yet.
func (rt *Runtime) LoadTemplate(t *AppTemplate) error {
	if rt.fwTmpl != t.fw {
		return fmt.Errorf("art: app template linked for another device than %q", rt.Device.Model)
	}
	if len(rt.loadedDexes) != 0 {
		return fmt.Errorf("art: app template loaded into a runtime that already linked a DEX")
	}
	rt.apk = t.apk
	rt.appTmpl = t
	rt.appSlab = make([]*Class, len(t.classes))
	rt.loadedDexes = append(rt.loadedDexes, t.dexes...)
	return nil
}

// appClass returns this runtime's shell of template class i, stamping it out
// on first use. The shell is published before its links are resolved, so a
// malformed cyclic hierarchy terminates as it does under LoadDex.
func (rt *Runtime) appClass(i int32) *Class {
	if c := rt.appSlab[i]; c != nil {
		return c
	}
	oc := rt.appTmpl.classes[i]
	nc := &Class{
		Descriptor:   oc.Descriptor,
		AccessFlags:  oc.AccessFlags,
		File:         oc.File,
		Def:          oc.Def,
		StaticMeta:   oc.StaticMeta,
		InstanceMeta: oc.InstanceMeta,
		Statics:      make(map[string]Value, len(oc.StaticMeta)),
		state:        stateLoaded,
		rt:           rt,
	}
	rt.appSlab[i] = nc
	if oc.Super != nil {
		nc.Super = rt.lookupClass(oc.Super.Descriptor)
	}
	if len(oc.Interfaces) > 0 {
		nc.Interfaces = make([]*Class, len(oc.Interfaces))
		for j, ifc := range oc.Interfaces {
			nc.Interfaces[j] = rt.lookupClass(ifc.Descriptor)
		}
	}
	if len(oc.Methods) > 0 {
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
