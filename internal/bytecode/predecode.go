package bytecode

import (
	"bytes"
	"hash/maphash"
	"sync"
	"unsafe"
)

// MaxRegister returns the highest register number named by any operand of
// in, or -1 when the instruction has no register operands. It covers exactly
// the operand layout MapRegisters transforms (A is a count, not a register,
// for the invoke formats) without allocating, so interpreters can hoist the
// per-instruction register bounds check out of the step loop.
func MaxRegister(in Inst) int32 {
	max := int32(-1)
	switch in.Op.Format() {
	case Fmt12x, Fmt22x, Fmt22b, Fmt22t, Fmt22s, Fmt22c:
		max = in.A
		if in.B > max {
			max = in.B
		}
	case Fmt11n, Fmt11x, Fmt21t, Fmt21s, Fmt21h, Fmt21c, Fmt31i, Fmt31t:
		max = in.A
	case Fmt23x:
		max = in.A
		if in.B > max {
			max = in.B
		}
		if in.C > max {
			max = in.C
		}
	case Fmt35c, Fmt3rc:
		for _, r := range in.Args {
			if int32(r) > max {
				max = int32(r)
			}
		}
	}
	return max
}

// DecodedInst is one predecoded instruction: the instruction itself plus
// the metadata (dex_pc, width, register ceiling) the interpreter would
// otherwise recompute on every visit. The embedded Inst and its operand
// slices are immutable once predecoded — Programs are shared across frames
// and runtimes, so consumers must Clone before mutating.
type DecodedInst struct {
	Inst
	Width  int
	MaxReg int32
	PC     int32 // dex_pc the instruction was decoded from
}

// These accessors are the one definition of an instruction's normal
// successors that every static reader walks. A successor pc need not start
// an instruction of the body (it may lie past the end or inside a payload);
// Program.Index maps such a pc to -1.

// Next returns the dex_pc control falls through to after d, or -1 when d
// never falls through (a return, goto or throw).
func (d *DecodedInst) Next() int {
	if d.Op.IsTerminator() {
		return -1
	}
	return int(d.PC) + d.Width
}

// Jumps returns the number of jump targets of d: one for the taken edge of
// an if-* or for a goto, the case count for a switch, and zero otherwise.
func (d *DecodedInst) Jumps() int {
	switch {
	case d.Op.IsBranch(), d.Op.IsGoto():
		return 1
	case d.Op.IsSwitch():
		return len(d.Targets)
	default:
		return 0
	}
}

// Jump returns the dex_pc of d's i-th jump target, 0 <= i < Jumps(); a
// switch's cases come in payload order.
func (d *DecodedInst) Jump(i int) int {
	if d.Op.IsSwitch() {
		return int(d.PC) + int(d.Targets[i])
	}
	return int(d.PC) + int(d.Off)
}

// Program is the decoded form of one unit array, read by the interpreter
// and by every static reader: a dense instruction stream in ascending pc
// order plus a pc→instruction index. It is immutable after Predecode and
// holds its own copy of the units, so it stays valid (as a snapshot) even
// when the live array it was lowered from is modified in place.
type Program struct {
	units []uint16
	idx   []int32 // pc -> index into code, offset by +1; 0 = no instruction
	code  []DecodedInst
	err   error // decode error that stopped the scan, or nil
}

// Walk calls fn for each instruction of insns in ascending pc order, with
// its dex_pc and its width in units, skipping switch payload regions, and
// returns the decode error that ended the scan early (nil when it reached
// the end): fn then has seen exactly the instructions before the fault.
// When execution has cached the body's program (Cached), Walk reads that
// program's instructions; otherwise it decodes them one by one. Either way
// it builds and caches no Program, so readers that only count or mark
// instructions use it instead of Read. in is read-only and valid only
// during the call.
func Walk(insns []uint16, fn func(in *Inst, pc, width int)) error {
	if p := programs.lookup(hashUnits(insns), insns); p != nil {
		for i := range p.code {
			d := &p.code[i]
			fn(&d.Inst, int(d.PC), d.Width)
		}
		return p.err
	}
	return walk(insns, fn)
}

// Count returns how many instructions Walk reports for insns and the error
// that ends them. A cached program answers with its length, without
// visiting its instructions.
func Count(insns []uint16) (int, error) {
	if p := programs.lookup(hashUnits(insns), insns); p != nil {
		return len(p.code), p.err
	}
	n := 0
	err := walk(insns, func(*Inst, int, int) { n++ })
	return n, err
}

// walk is the one linear decode of a unit array, behind Walk, Count and
// Predecode. It decodes each instruction into one reused Inst and stops at
// the first malformed one.
func walk(insns []uint16, fn func(in *Inst, pc, width int)) error {
	var in Inst
	for pc := 0; pc < len(insns); {
		if w, ok := PayloadAt(insns, pc); ok {
			pc += w
			continue
		}
		width, err := decodeInto(insns, pc, &in)
		if err != nil {
			return err
		}
		fn(&in, pc, width)
		pc += width
	}
	return nil
}

// Predecode lowers a unit array into a Program with one walk. Decoding
// stops at the first malformed instruction and records its error (see
// Err): the tail past it stays unmapped, so an interpreter falling back to
// live Decode there surfaces the identical decode error.
func Predecode(insns []uint16) *Program {
	p := &Program{
		units: append([]uint16(nil), insns...),
		idx:   make([]int32, len(insns)),
	}
	p.code = make([]DecodedInst, 0, len(insns)/2+1)
	p.err = walk(insns, func(in *Inst, pc, width int) {
		p.code = append(p.code, DecodedInst{Inst: *in, Width: width, MaxReg: MaxRegister(*in), PC: int32(pc)})
		p.idx[pc] = int32(len(p.code))
	})
	return p
}

// Index returns the position in Insts of the instruction starting at pc,
// or -1 when pc is not a decoded instruction start (payload interior,
// misaligned pc, or past a malformed instruction).
func (p *Program) Index(pc int) int {
	if pc < 0 || pc >= len(p.idx) {
		return -1
	}
	return int(p.idx[pc]) - 1
}

// Lookup returns the predecoded instruction starting at pc, or nil when pc
// is not a decoded instruction start.
func (p *Program) Lookup(pc int) *DecodedInst {
	if i := p.Index(pc); i >= 0 {
		return &p.code[i]
	}
	return nil
}

// Insts returns the decoded instructions in ascending pc order: every
// instruction the linear scan reached before Err. The slice is shared and
// must not be modified.
func (p *Program) Insts() []DecodedInst { return p.code }

// Err returns the *DecodeError at which the linear scan stopped, or nil
// when it reached the end of the units.
func (p *Program) Err() error { return p.err }

// Len returns the unit length of the predecoded snapshot.
func (p *Program) Len() int { return len(p.units) }

// Matches reports whether insns still has the exact content the program was
// predecoded from.
func (p *Program) Matches(insns []uint16) bool {
	return bytes.Equal(unitBytes(insns), unitBytes(p.units))
}

// unitBytes views a unit array as its bytes in memory order, without
// copying, so hashing and comparing a body each run over one memory block.
func unitBytes(insns []uint16) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(insns))), 2*len(insns))
}

// programCacheLimit caps the number of cached programs; past it the cache is
// dropped wholesale (coarse eviction — predecoding is cheap enough that a
// cold restart is preferable to LRU bookkeeping on the hot path).
const programCacheLimit = 4096

// ProgramCache is a content-addressed, thread-safe cache of predecoded
// programs. Keys are the full unit content (hash plus exact compare), never
// the slice identity, so self-modified code can never alias a stale entry:
// any content change simply hashes to a different program.
type ProgramCache struct {
	mu      sync.RWMutex
	entries map[uint64][]*Program
	size    int
}

// NewProgramCache returns an empty program cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{entries: make(map[uint64][]*Program)}
}

// hashSeed keys hashUnits. Hashes never leave the process, so a per-process
// random seed is enough.
var hashSeed = maphash.MakeSeed()

// hashUnits hashes the bytes of the unit array.
func hashUnits(insns []uint16) uint64 {
	return maphash.Bytes(hashSeed, unitBytes(insns))
}

// lookup returns the cached program for the exact content of insns, or nil.
func (c *ProgramCache) lookup(h uint64, insns []uint16) *Program {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, cand := range c.entries[h] {
		if cand.Matches(insns) {
			return cand
		}
	}
	return nil
}

// Get returns the predecoded program for the exact content of insns,
// building and caching it on a miss.
func (c *ProgramCache) Get(insns []uint16) *Program {
	h := hashUnits(insns)
	if p := c.lookup(h, insns); p != nil {
		return p
	}

	p := Predecode(insns)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cand := range c.entries[h] {
		if cand.Matches(insns) {
			return cand // raced with another builder
		}
	}
	if c.size >= programCacheLimit {
		c.entries = make(map[uint64][]*Program)
		c.size = 0
	}
	c.entries[h] = append(c.entries[h], p)
	c.size++
	return p
}

// Read returns the cached program for the exact content of insns, or a
// fresh Predecode on a miss. Unlike Get it never inserts: a miss leaves the
// cache as it was.
func (c *ProgramCache) Read(insns []uint16) *Program {
	if p := c.lookup(hashUnits(insns), insns); p != nil {
		return p
	}
	return Predecode(insns)
}

// Size returns the number of cached programs.
func (c *ProgramCache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size
}

// programs is the process's program cache, shared by every runtime, reveal,
// forced run and worker shard. Only execution fills it (Cached); the static
// readers read through it (Read), so a body the process has run is decoded
// once, and a body it has never run costs no cache memory.
var programs = NewProgramCache()

// Cached returns the process cache's program for the exact content of insns,
// predecoding and caching it on a miss. The interpreter binds through it.
func Cached(insns []uint16) *Program { return programs.Get(insns) }

// Read returns the process cache's program for the exact content of insns
// when execution has cached one, and a fresh Predecode otherwise; it never
// fills the cache. Every static reader that needs a Program (successors,
// a pc index) decodes through it; one that only scans uses Walk. A program
// is an immutable snapshot of its units, so a reader gets the same
// instructions either way.
func Read(insns []uint16) *Program { return programs.Read(insns) }

// CachedPrograms returns the number of programs in the process cache.
func CachedPrograms() int { return programs.Size() }
