// Package packer implements the commercial Android packing services of the
// paper's Table I as five working packers with distinct protection
// strategies, plus the three services that were unavailable to the authors.
//
// Every packer replaces classes.dex with a shell DEX whose loader activity
// calls into "native" shell code (Go functions registered as JNI stand-ins)
// that releases the original code at runtime:
//
//   - Qihoo360: whole-DEX AES-CTR, key hidden in libjiagu.so
//   - Alibaba:  whole-DEX XOR keystream split across two assets
//   - Tencent:  method extraction — bodies stripped from the shell DEX and
//     restored one method at a time on first invocation
//   - Baidu:    whole-DEX AES-CTR plus payload integrity verification
//   - Bangcle:  interleaved protection —each method body is restored on entry
//     and scrambled again on exit, so no dump instant has all code
//
// (Bangcle's enter/exit juggling is what defeats "right timing" dump-based
// unpackers; instruction-level collection is immune because it observes
// instructions while they execute.)
package packer

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// Packer is one packing service.
type Packer interface {
	// Name returns the marketing name used in Table I.
	Name() string
	// Pack wraps the application in the packer's shell.
	Pack(pkg *apk.APK) (*apk.APK, error)
	// InstallNatives registers the shell's native code with a runtime that
	// will execute packed output (the libshell.so stand-in).
	InstallNatives(rt *art.Runtime)
}

// Unavailability errors reproducing Table I's last three rows.
var (
	ErrServiceOffline = errors.New("packer: NetQin: the service is offline now")
	ErrUnresponsive   = errors.New("packer: APKProtect: unresponsive to packing requests")
	ErrRejected       = errors.New("packer: Ijiami: samples are rejected by human agents")
)

// All returns the five operational packers.
func All() []Packer {
	return []Packer{
		NewQihoo360(),
		NewAlibaba(),
		NewTencent(),
		NewBaidu(),
		NewBangcle(),
	}
}

// UnavailableServices returns the three services that cannot pack, with the
// error each produces.
func UnavailableServices() map[string]error {
	return map[string]error{
		"NetQin":     ErrServiceOffline,
		"APKProtect": ErrUnresponsive,
		"Ijiami":     ErrRejected,
	}
}

// ByName resolves a packer by its Table I name.
func ByName(name string) (Packer, error) {
	for _, p := range All() {
		if p.Name() == name {
			return p, nil
		}
	}
	if err, ok := UnavailableServices()[name]; ok {
		return nil, err
	}
	return nil, fmt.Errorf("packer: unknown packer %q", name)
}

// shellMeta is the loader metadata stored alongside the payload.
type shellMeta struct {
	OriginalMain string `json:"originalMain"`
	Checksum     string `json:"checksum,omitempty"`
}

// buildShell generates a shell DEX with a loader activity that calls the
// packer's native unpack entry point.
func buildShell(prefix string) ([]byte, string, error) {
	loader := "L" + prefix + "/Loader;"
	p := dexgen.New()
	cls := p.Class(loader, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Native("unpackAndLaunch", "V")
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeStatic(loader, "unpackAndLaunch", "()V")
		a.ReturnVoid()
	})
	data, err := p.Bytes()
	if err != nil {
		return nil, "", err
	}
	return data, loader, nil
}

// launchOriginal hands control to the original main activity after the
// payload classes are defined: the runtime continues the launch with the
// full lifecycle once the shell's onCreate returns.
func launchOriginal(env *art.Env, mainDesc string) error {
	if _, err := env.FindClass(mainDesc); err != nil {
		return err
	}
	env.RedirectLaunch(mainDesc)
	return nil
}

func readMeta(env *art.Env, asset string) (shellMeta, error) {
	var meta shellMeta
	data, ok := env.Asset(asset)
	if !ok {
		return meta, fmt.Errorf("packer: missing meta asset %s", asset)
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("packer: corrupt meta: %w", err)
	}
	return meta, nil
}

func aesCTR(key, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	iv := make([]byte, aes.BlockSize) // deterministic IV: packing is a build step
	out := make([]byte, len(data))
	cipher.NewCTR(block, iv).XORKeyStream(out, data)
	return out, nil
}

func deriveKey(seed string) []byte {
	sum := sha256.Sum256([]byte(seed))
	return sum[:16]
}

func xorStream(key, data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = b ^ key[i%len(key)]
	}
	return out
}

// codeRecord serializes one extracted method body (Tencent, Bangcle).
type codeRecord struct {
	Registers int       `json:"registers"`
	Ins       int       `json:"ins"`
	Insns     []uint16  `json:"insns"`
	Tries     []dex.Try `json:"tries,omitempty"`
}

// extractBodies strips every method body from the file, replacing it with a
// default-return stub, and returns the extracted bodies keyed by method key.
func extractBodies(f *dex.File) map[string]codeRecord {
	out := make(map[string]codeRecord)
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		for mi := range cd.NumMethods() {
			em := cd.Method(mi)
			if em.Code == nil {
				continue
			}
			ref := f.MethodAt(em.Method)
			out[ref.Key()] = codeRecord{
				Registers: int(em.Code.RegistersSize),
				Ins:       int(em.Code.InsSize),
				Insns:     append([]uint16(nil), em.Code.Insns...),
				Tries:     em.Code.Tries,
			}
			em.Code = stubCode(em.Code, ref.Signature)
		}
	}
	return out
}

func stubCode(orig *dex.Code, signature string) *dex.Code {
	sig, err := dex.ParseSignature(signature)
	insns := []uint16{0x000e} // return-void
	if err == nil && sig.Return != "V" {
		op := uint16(0x0f) // return
		if ret := sig.Return[0]; ret == 'L' || ret == '[' {
			op = 0x11 // return-object
		}
		insns = []uint16{0x0012, op} // const/4 v0, 0 ; return v0
	}
	return &dex.Code{
		RegistersSize: orig.RegistersSize,
		InsSize:       orig.InsSize,
		Insns:         insns,
	}
}
