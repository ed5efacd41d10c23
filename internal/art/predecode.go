package art

import (
	"os"
	"strings"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// programCache is the process-wide predecoded-program cache. Every runtime
// resolves through it, so the predecode cost of a method body is paid once
// per distinct content across all runtimes of the process (repeated reveals,
// forced runs, worker shards, benchmarks).
var programCache = bytecode.NewProgramCache()

// predecodeEnvDefault reads the DEXLEGO_PREDECODE toggle: predecode is on
// unless the variable is explicitly "off", "false", "no" or "0". The off
// mode keeps the original decode-per-step path alive as the differential
// reference interpreter.
func predecodeEnvDefault() bool {
	switch strings.ToLower(os.Getenv("DEXLEGO_PREDECODE")) {
	case "off", "false", "no", "0":
		return false
	}
	return true
}

// SetPredecode switches the predecoded interpreter path on or off for this
// runtime, overriding the DEXLEGO_PREDECODE environment default.
func (rt *Runtime) SetPredecode(on bool) { rt.predecode = on }

// icSite is the inline cache of one call- or field-site: the resolved
// constant-pool reference plus the resolution the runtime would otherwise
// redo on every visit. Sites live per predecoded instruction and die with
// the predecoded stream, so they can never survive a code modification.
type icSite struct {
	valid bool
	index uint32 // the constant-pool index the site resolved

	// Invoke resolution.
	mref    dex.MethodRef
	cls     *Class  // resolved class (static/direct invokes, sget/sput)
	target  *Method // resolved target (static/direct/super invokes)
	recvCls *Class  // monomorphic receiver class (virtual/interface)
	recvTgt *Method // target for recvCls

	// Field resolution.
	fref dex.FieldRef
}

// icAt returns the inline-cache slot for predecoded instruction index ci of
// the frame's method, allocating the site array on first use; nil when the
// instruction was not predecoded (fallback decode path, predecode off).
func (f *frame) icAt(ci int) *icSite {
	if ci < 0 || f.prog == nil {
		return nil
	}
	ic := f.prog.ICOf(ci)
	if ic < 0 {
		return nil
	}
	m := f.method
	if m.sites == nil {
		m.sites = make([]icSite, f.prog.NumSites())
	}
	if int(ic) >= len(m.sites) {
		return nil
	}
	return &m.sites[ic]
}

// bindProgram points the frame at the method's predecoded program, building
// or rebuilding it when the live unit array no longer matches what the
// current program was lowered from. This is both the entry bind and the
// paper-faithful invalidation point: a stale program here means something
// wrote into live code (self-modification, packer slice swap), so the old
// stream is dropped and CodeWritten fires before the rebuild.
func (rt *Runtime) bindProgram(f *frame) {
	m := f.method
	if !rt.predecode || len(m.Insns) == 0 {
		f.prog = nil
		return
	}
	if m.prog == nil || m.progGen != m.codeGen ||
		m.progLen != len(m.Insns) || m.progPtr != &m.Insns[0] {
		if m.prog != nil {
			// Silent code swap: the array changed without TamperMethod
			// bumping the generation (packer-style slice replacement).
			m.prog = nil
			m.sites = nil
			for _, h := range rt.hooks {
				if h.CodeWritten != nil {
					h.CodeWritten(m, f.pc)
				}
			}
		}
		m.prog = programCache.Get(m.Insns)
		m.progGen = m.codeGen
		m.progLen = len(m.Insns)
		m.progPtr = &m.Insns[0]
		m.sites = nil
	}
	f.prog = m.prog
	f.bindGen = m.codeGen
	f.bindLen = len(m.Insns)
	f.bindPtr = &m.Insns[0]
}

// bindStale reports whether the live code of the frame's method changed
// since bindProgram: a replaced slice, a grown slice, or a generation bump
// from an in-place tamper. Checked before every step so a mid-run
// self-modification is observed before the next instruction executes.
func (f *frame) bindStale() bool {
	m := f.method
	return m.codeGen != f.bindGen || len(m.Insns) != f.bindLen ||
		(f.bindLen > 0 && &m.Insns[0] != f.bindPtr)
}

// invalidateCode drops the method's predecoded stream and inline caches
// after a write into its live unit array and bumps the code generation so
// every active frame rebinds before its next step. pc is the dex_pc of the
// tampering call site (-1 when tampered from outside bytecode).
func (m *Method) invalidateCode(rt *Runtime, pc int) {
	m.codeGen++
	// CodeWritten fires in both predecode modes: a tamper with predecode
	// off (or before the first bind) is still a code write, and the
	// incremental reveal cache must learn about it in every mode.
	for _, h := range rt.hooks {
		if h.CodeWritten != nil {
			h.CodeWritten(m, pc)
		}
	}
	m.prog = nil
	m.sites = nil
}
