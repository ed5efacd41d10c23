// Package unpacker implements the paper's comparison baselines DexHunter
// and AppSpear: dump-based, method-level unpackers. Both run the packed
// application and, at the "right timing" (after the app's launch flow has
// completed class loading and initialization), dump every DEX file the
// class linker has seen, with each method's *current* in-memory instruction
// array.
//
// That design recovers whole-DEX packers perfectly and even captures
// dynamically loaded DEX files, but it is blind to self-modifying code — a
// method's array is either the pre- or post-modification version at any
// single dump instant — and it cannot touch reflection. Those blind spots
// are exactly the deltas of the paper's Table III.
package unpacker

import (
	"fmt"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dex"
)

// Unpacker is a dump-based unpacking system.
type Unpacker struct {
	name string
}

// DexHunter returns the DexHunter baseline (ESORICS'15).
func DexHunter() *Unpacker { return &Unpacker{name: "DexHunter"} }

// AppSpear returns the AppSpear baseline (RAID'15).
func AppSpear() *Unpacker { return &Unpacker{name: "AppSpear"} }

// Unpack executes the packed application and dumps the loaded DEX files.
// installNatives registers the packer shell's native code (may be nil for
// unpacked apps); drive runs the app (nil launches the main activity).
func (u *Unpacker) Unpack(pkg *apk.APK, installNatives func(*art.Runtime), drive func(*art.Runtime) error) ([]*dex.File, error) {
	rt := art.NewRuntime(art.DefaultPhone())
	if installNatives != nil {
		installNatives(rt)
	}
	if err := rt.LoadAPK(pkg); err != nil {
		return nil, fmt.Errorf("unpacker: %s: %w", u.name, err)
	}
	if drive == nil {
		drive = func(rt *art.Runtime) error {
			_, err := rt.LaunchActivity()
			return err
		}
	}
	// The app may crash after unpacking; the dump still proceeds, exactly
	// like attaching at the dump point on a device.
	runErr := drive(rt)
	dumped := u.dump(rt)
	if len(dumped) == 0 && runErr != nil {
		return nil, fmt.Errorf("unpacker: %s: app failed before dump: %w", u.name, runErr)
	}
	return dumped, nil
}

// dump snapshots every loaded DEX with live method bodies.
func (u *Unpacker) dump(rt *art.Runtime) []*dex.File {
	var out []*dex.File
	for _, f := range rt.LoadedDexes() {
		out = append(out, snapshotDex(rt, f))
	}
	return out
}

// snapshotDex clones the file, replacing each method body with the current
// in-memory instruction array of the corresponding runtime method.
func snapshotDex(rt *art.Runtime, f *dex.File) *dex.File {
	clone := &dex.File{
		Strings: append([]string(nil), f.Strings...),
		Types:   append([]uint32(nil), f.Types...),
		Protos:  append([]dex.Proto(nil), f.Protos...),
		Fields:  append([]dex.FieldID(nil), f.Fields...),
		Methods: append([]dex.MethodID(nil), f.Methods...),
	}
	for ci := range f.Classes {
		cd := f.Classes[ci] // shallow copy of the def
		cd.StaticFields = append([]dex.EncodedField(nil), f.Classes[ci].StaticFields...)
		cd.InstFields = append([]dex.EncodedField(nil), f.Classes[ci].InstFields...)
		cd.StaticValues = append([]dex.Value(nil), f.Classes[ci].StaticValues...)
		cd.Interfaces = append([]uint32(nil), f.Classes[ci].Interfaces...)
		desc := f.TypeName(cd.Class)
		cls, err := rt.FindClass(desc)
		snapshotMethods := func(src []dex.EncodedMethod) []dex.EncodedMethod {
			out := make([]dex.EncodedMethod, len(src))
			for i, em := range src {
				out[i] = em
				out[i].Code = em.Code.Clone()
				if err != nil || out[i].Code == nil {
					continue
				}
				ref := f.MethodAt(em.Method)
				if m := cls.FindMethod(ref.Name, ref.Signature); m != nil && m.Insns != nil {
					out[i].Code.Insns = append([]uint16(nil), m.Insns...)
					out[i].Code.RegistersSize = uint16(m.RegistersSize)
					out[i].Code.InsSize = uint16(m.InsSize)
					out[i].Code.Tries = m.Tries
				}
			}
			return out
		}
		cd.DirectMeths = snapshotMethods(f.Classes[ci].DirectMeths)
		cd.VirtualMeths = snapshotMethods(f.Classes[ci].VirtualMeths)
		clone.Classes = append(clone.Classes, cd)
	}
	return clone
}
