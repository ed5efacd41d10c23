package art

import (
	"os"
	"strings"

	"dexlego/internal/bytecode"
)

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

// bindProgram binds the frame to the method's live code. It records the
// code identity the frame runs against and, with predecode on, points the
// frame at the predecoded program for that content. Programs come from the
// process cache in internal/bytecode (bytecode.Cached), which only
// execution fills: the predecode cost of a body is paid once per distinct
// content across every runtime of the process, and the static readers
// reuse what runs. This is both the entry
// bind and the paper-faithful invalidation point: in either mode, a live
// unit array whose identity changed without TamperMethod bumping the
// generation was swapped silently (packer-style slice replacement), so
// CodeWritten fires before the rebind. A swap before the method's first
// bind is not observed.
func (rt *Runtime) bindProgram(f *frame) {
	m := f.method
	f.prog = nil
	if len(m.Insns) == 0 {
		return
	}
	if m.progGen != m.codeGen || m.progLen != len(m.Insns) || m.progPtr != &m.Insns[0] {
		if m.progPtr != nil && m.progGen == m.codeGen {
			for _, h := range rt.hooks {
				if h.CodeWritten != nil {
					h.CodeWritten(m, f.pc)
				}
			}
		}
		m.prog = nil
		m.progGen = m.codeGen
		m.progLen = len(m.Insns)
		m.progPtr = &m.Insns[0]
	}
	if rt.predecode {
		if m.prog == nil {
			m.prog = bytecode.Cached(m.Insns)
		}
		f.prog = m.prog
	}
	f.bindGen = m.codeGen
	f.bindLen = len(m.Insns)
	f.bindPtr = &m.Insns[0]
}

// Program returns the predecoded program the method's frames execute from:
// the one bound for its current live code, or nil with predecode off or
// before the first bind. A non-nil program is an immutable snapshot, so the
// instructions it hands to Hooks.Instruction stay valid after the call.
func (m *Method) Program() *bytecode.Program { return m.prog }

// bindStale reports whether the live code of the frame's method changed
// since bindProgram: a replaced slice, a grown slice, or a generation bump
// from an in-place tamper. Checked before every step so a mid-run
// self-modification is observed before the next instruction executes.
func (f *frame) bindStale() bool {
	m := f.method
	return m.codeGen != f.bindGen || len(m.Insns) != f.bindLen ||
		(f.bindLen > 0 && &m.Insns[0] != f.bindPtr)
}

// invalidateCode drops the method's predecoded stream after a write into
// its live unit array and bumps the code generation so every active frame
// rebinds before its next step. pc is the dex_pc of the tampering call site
// (-1 when tampered from outside bytecode).
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
}
