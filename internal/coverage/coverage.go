// Package coverage implements the JaCoCo stand-in: an instrumentation-based
// coverage tracker reporting the five granularities of the paper's
// Table VII — class, method, line, branch and instruction coverage. Line
// information is synthesized deterministically from instruction positions
// (our DEX files carry no debug info).
//
// Coverage is kept in dense bitsets. NewTracker gives every method key an
// integer id and a span of bits, once; the per-instruction hooks then only
// set bits, and Merge is a word-wise OR.
package coverage

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// unitsPerLine groups instruction dex_pcs into synthetic source lines.
const unitsPerLine = 4

// Ratio is covered/total for one granularity.
type Ratio struct {
	Covered int
	Total   int
}

// Percent returns the percentage (0 when the total is zero).
func (r Ratio) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Covered) / float64(r.Total)
}

func (r Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.0f%%)", r.Covered, r.Total, r.Percent())
}

// Report is a coverage snapshot across all granularities.
type Report struct {
	Class       Ratio
	Method      Ratio
	Line        Ratio
	Branch      Ratio
	Instruction Ratio
}

// UCB identifies one uncovered conditional-branch edge.
type UCB struct {
	Method string
	PC     int
	Taken  bool
}

// HandlerSite identifies one try/catch edge: throwing anywhere inside the
// try range transfers control to HandlerPC.
type HandlerSite struct {
	Method    string
	TryStart  int
	HandlerPC int
	Type      string // exception descriptor; catch-all sites use Throwable
}

// bitset is a dense set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// next returns the lowest set bit at or above i and below end, or end.
func (b bitset) next(i, end int) int {
	for i < end {
		w := b[i>>6] >> (i & 63)
		if w != 0 {
			return min(i+bits.TrailingZeros64(w), end)
		}
		i = (i | 63) + 1
	}
	return end
}

func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// span locates one method in the dense layout. The method's pc p maps to
// instruction bit base+p, line bit line+p/unitsPerLine and branch-edge bits
// 2*(base+p)+taken; pcs at or beyond units are outside the static code.
type span struct {
	class, base, line, units int
}

// statics is the read-only layout and static totals of one set of DEX
// files, shared by a tracker and all its shards.
type statics struct {
	ids   map[string]int // method key -> index into spans
	spans []span

	// Static instruction starts, synthetic lines and branch edges.
	insns, lines, edges bitset
	total               Report // Covered fields stay zero

	// Every branch edge and handler site in output order, each with the bit
	// that marks it covered (an edge bit, or the handler's instruction bit;
	// -1 when the handler pc is not a static instruction start).
	ucbs        []UCB
	ucbBits     []int
	handlers    []HandlerSite
	handlerBits []int
}

// Tracker accumulates coverage across any number of runs (its hooks can be
// attached to several runtimes in turn).
type Tracker struct {
	s *statics

	classes, methods, insns, lines, edges bitset

	hooks *art.Hooks
}

// NewTracker computes static totals from the application's DEX files. A
// method key or class defined in several files counts once, with the union
// of its definitions' instructions. A method's instructions are the stream
// the interpreter can run: a body that stops decoding (junk units a packer
// rewrites at run time) counts the instructions before the fault, none when
// it faults at pc 0. NewTracker does not fail; the error result is kept
// for its callers.
func NewTracker(files []*dex.File) (*Tracker, error) {
	s := &statics{ids: make(map[string]int)}
	classIDs := make(map[string]int)
	sites := make(map[HandlerSite]bool)
	type methodDef struct {
		key  string
		code *dex.Code
	}
	var defs []methodDef
	for _, f := range files {
		for ci := range f.Classes {
			cd := &f.Classes[ci]
			desc := f.TypeName(cd.Class)
			cid, ok := classIDs[desc]
			if !ok {
				cid = len(classIDs)
				classIDs[desc] = cid
			}
			for mi := range cd.NumMethods() {
				em := cd.Method(mi)
				key := f.MethodAt(em.Method).Key()
				id, ok := s.ids[key]
				if !ok {
					id = len(s.spans)
					s.ids[key] = id
					s.spans = append(s.spans, span{})
				}
				sp := &s.spans[id]
				sp.class = cid // the last definition's class wins
				if em.Code == nil {
					continue
				}
				sp.units = max(sp.units, len(em.Code.Insns))
				defs = append(defs, methodDef{key, em.Code})
				for _, tr := range em.Code.Tries {
					for _, h := range tr.Handlers {
						sites[HandlerSite{Method: key, TryStart: int(tr.Start), HandlerPC: int(h.Addr), Type: f.TypeName(h.Type)}] = true
					}
					if tr.CatchAll >= 0 {
						sites[HandlerSite{Method: key, TryStart: int(tr.Start), HandlerPC: int(tr.CatchAll), Type: "Ljava/lang/RuntimeException;"}] = true
					}
				}
			}
		}
	}
	units, lines := 0, 0
	for i := range s.spans {
		sp := &s.spans[i]
		sp.base, sp.line = units, lines
		units += sp.units
		lines += (sp.units + unitsPerLine - 1) / unitsPerLine
	}
	s.insns, s.lines, s.edges = newBitset(units), newBitset(lines), newBitset(2*units)

	for _, d := range defs {
		sp := s.spans[s.ids[d.key]]
		// The decode error only ends the scan: the instructions before it
		// are the ones the interpreter can run.
		_ = bytecode.Walk(d.code.Insns, func(in *bytecode.Inst, pc, _ int) {
			s.insns.set(sp.base + pc)
			s.lines.set(sp.line + pc/unitsPerLine)
			if in.Op.IsBranch() {
				s.edges.set(2 * (sp.base + pc))
				s.edges.set(2*(sp.base+pc) + 1)
			}
		})
	}
	s.total = Report{
		Class:       Ratio{Total: len(classIDs)},
		Method:      Ratio{Total: len(s.spans)},
		Line:        Ratio{Total: s.lines.count()},
		Branch:      Ratio{Total: s.edges.count()},
		Instruction: Ratio{Total: s.insns.count()},
	}

	keys := make([]string, 0, len(s.ids))
	for key := range s.ids {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		sp := s.spans[s.ids[key]]
		end := 2 * (sp.base + sp.units)
		for bit := s.edges.next(2*sp.base, end); bit < end; bit = s.edges.next(bit+1, end) {
			s.ucbs = append(s.ucbs, UCB{Method: key, PC: bit/2 - sp.base, Taken: bit%2 == 1})
			s.ucbBits = append(s.ucbBits, bit)
		}
	}

	for site := range sites {
		s.handlers = append(s.handlers, site)
	}
	slices.SortFunc(s.handlers, func(a, b HandlerSite) int {
		return cmp.Or(cmp.Compare(a.Method, b.Method), cmp.Compare(a.HandlerPC, b.HandlerPC),
			cmp.Compare(a.TryStart, b.TryStart), cmp.Compare(a.Type, b.Type))
	})
	for _, site := range s.handlers {
		bit := -1
		if sp := s.spans[s.ids[site.Method]]; site.HandlerPC >= 0 && site.HandlerPC < sp.units &&
			s.insns.has(sp.base+site.HandlerPC) {
			bit = sp.base + site.HandlerPC
		}
		s.handlerBits = append(s.handlerBits, bit)
	}
	return s.newTracker(), nil
}

// newTracker returns a tracker over s with nothing covered.
func (s *statics) newTracker() *Tracker {
	t := &Tracker{
		s:       s,
		classes: newBitset(s.total.Class.Total),
		methods: newBitset(len(s.spans)),
		insns:   make(bitset, len(s.insns)),
		lines:   make(bitset, len(s.lines)),
		edges:   make(bitset, len(s.edges)),
	}
	t.hooks = t.newHooks()
	return t
}

// cursor resolves the executing method to its span, caching the last
// method so its key is looked up only when the method changes.
type cursor struct {
	s    *statics
	last *art.Method
	id   int // -1 when the method is outside the static totals
	sp   span
	// marked is set once the tracker's method and class bits are set for
	// last. Bits are only ever set, so they need setting once per method
	// switch, not on every instruction.
	marked bool
}

func (c *cursor) resolve(m *art.Method) bool {
	if m != c.last {
		c.rebind(m)
	}
	return c.id >= 0
}

func (c *cursor) rebind(m *art.Method) {
	c.last = m
	c.marked = false
	id, ok := c.s.ids[m.Key()]
	if !ok {
		c.id = -1
		return
	}
	c.id, c.sp = id, c.s.spans[id]
}

// newHooks builds the instrumentation closure over this tracker's covered
// bitsets. Code outside the static totals (dynamically loaded, or modified
// so that pc is not a static instruction start) is ignored.
func (t *Tracker) newHooks() *art.Hooks {
	s := t.s
	c := &cursor{s: s, id: -1}
	return &art.Hooks{
		Instruction: func(m *art.Method, pc int, insns []uint16, in *bytecode.Inst) {
			if !c.resolve(m) || uint(pc) >= uint(c.sp.units) || !s.insns.has(c.sp.base+pc) {
				return
			}
			t.insns.set(c.sp.base + pc)
			t.lines.set(c.sp.line + pc/unitsPerLine)
			if !c.marked {
				t.methods.set(c.id)
				t.classes.set(c.sp.class)
				c.marked = true
			}
		},
		Branch: func(m *art.Method, pc int, taken bool) (bool, bool) {
			if !c.resolve(m) || uint(pc) >= uint(c.sp.units) {
				return false, false
			}
			bit := 2 * (c.sp.base + pc)
			if taken {
				bit++
			}
			if s.edges.has(bit) {
				t.edges.set(bit)
			}
			return false, false
		},
	}
}

// Shard returns a tracker that shares t's static layout (read-only after
// construction) but owns fresh covered bitsets and hooks, so one forced run
// can record coverage on its own goroutine without synchronizing with other
// runs. Fold a shard's observations back with Merge.
func (t *Tracker) Shard() *Tracker { return t.s.newTracker() }

// Merge unions other's covered sets into t. Coverage is monotone set
// growth, so merging is commutative and associative — the merged tracker is
// independent of shard order and count. other must share t's layout: a
// shard of t, or a tracker built from the same DEX files.
func (t *Tracker) Merge(other *Tracker) {
	if other == nil {
		return
	}
	t.classes.or(other.classes)
	t.methods.or(other.methods)
	t.insns.or(other.insns)
	t.lines.or(other.lines)
	t.edges.or(other.edges)
}

// Hooks returns the instrumentation to attach to a runtime.
func (t *Tracker) Hooks() *art.Hooks { return t.hooks }

// Report returns the current coverage snapshot.
func (t *Tracker) Report() Report {
	r := t.s.total
	r.Class.Covered = t.classes.count()
	r.Method.Covered = t.methods.count()
	r.Line.Covered = t.lines.count()
	r.Branch.Covered = t.edges.count()
	r.Instruction.Covered = t.insns.count()
	return r
}

// UncoveredBranches returns, per method, the dex_pcs of conditional branch
// edges that have not been taken: the paper's UCB set. A branch appears with
// the edge direction(s) still missing, ordered by method, pc, then the
// not-taken edge first.
func (t *Tracker) UncoveredBranches() []UCB {
	var out []UCB
	for i, bit := range t.s.ucbBits {
		if !t.edges.has(bit) {
			out = append(out, t.s.ucbs[i])
		}
	}
	return out
}

// UncoveredHandlers returns the try/catch edges whose handler entry never
// executed, ordered by method, handler pc, try start and exception type. The
// force-execution extension treats these like uncovered branches and
// injects the matching exception inside the try range.
func (t *Tracker) UncoveredHandlers() []HandlerSite {
	var out []HandlerSite
	for i, bit := range t.s.handlerBits {
		if bit < 0 || !t.insns.has(bit) {
			out = append(out, t.s.handlers[i])
		}
	}
	return out
}
