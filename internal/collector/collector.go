// Package collector implements DexLego's just-in-time collection: the
// instruction-level tracing of Algorithm 1 with the paper's collection-tree
// model (Fig. 3), plus DEX metadata collection at class initialization.
//
// A Collector attaches to the runtime through art.Hooks. Per execution of a
// method it maintains a tree of TreeNodes; re-executing the same instruction
// at the same dex_pc is deduplicated through the node's Instruction Index
// Map, a *different* instruction at a recorded dex_pc forks a child node (a
// layer of self-modifying code), and re-encountering a parent instruction
// converges back. Constant-pool operands are resolved to symbolic form at
// collection time so the offline reassembler is independent of the original
// DEX's index space.
package collector

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/obs"
)

// Symbol is a constant-pool operand resolved at collection time.
type Symbol struct {
	Kind   bytecode.IndexKind `json:"kind"`
	Str    string             `json:"str,omitempty"`
	Type   string             `json:"type,omitempty"`
	Field  dex.FieldRef       `json:"field,omitempty"`
	Method dex.MethodRef      `json:"method,omitempty"`
}

// Entry is one collected instruction: its dex_pc, the decoded instruction,
// and its resolved constant-pool operand (if any).
//
// Inst points at an immutable instruction that entries may share. At
// collection time it is the bound program's own instruction (see
// art.Method.Program), so an entry is 24 bytes and collecting copies
// nothing; only a live-decoded pc gets a heap copy. A decoded record points
// its entries into one slab per node. Nothing writes through Inst.
type Entry struct {
	DexPC int            `json:"pc"`
	Inst  *bytecode.Inst `json:"inst"`
	Sym   *Symbol        `json:"sym,omitempty"`
}

// TreeNode is a node of the collection tree (Fig. 3): the Instruction List
// (IL) in first-execution order, the Instruction Index Map (IIM) from
// dex_pc to IL index, the divergence bounds, and child links.
//
// The IIM is the dense pcIdx array, not a map: dex_pcs are small code-unit
// offsets, so an array lookup (Index) serves the per-instruction hot path,
// later executions following a published tree, and the reassembler alike.
// It is derived from the IL, so neither JSON nor the record codec stores
// it; readers rebuild it (see reindex).
type TreeNode struct {
	IL       []Entry     `json:"il"`
	SmStart  int         `json:"smStart"` // divergence dex_pc; -1 for the root
	SmEnd    int         `json:"smEnd"`   // convergence dex_pc; -1 if none
	Children []*TreeNode `json:"children,omitempty"`
	Parent   *TreeNode   `json:"-"`

	// pcIdx[pc] is the IL index of the entry collected at dex_pc pc, or -1.
	pcIdx []int32
}

// Index is the IIM lookup: the IL index of the entry at dex_pc pc, if one
// was recorded in this node.
func (n *TreeNode) Index(pc int) (int, bool) {
	if pc < 0 || pc >= len(n.pcIdx) || n.pcIdx[pc] < 0 {
		return 0, false
	}
	return int(n.pcIdx[pc]), true
}

// Push appends an entry to the IL and indexes it (Algorithm 1 lines
// 29-31). The entry's dex_pc must be non-negative and not yet in the node.
func (n *TreeNode) Push(e Entry) {
	if e.DexPC >= len(n.pcIdx) {
		n.growPCIdx(e.DexPC)
	}
	n.pcIdx[e.DexPC] = int32(len(n.IL))
	n.IL = append(n.IL, e)
}

// growPCIdx extends pcIdx to cover pc, filling new slots with -1. Growth
// doubles so a method walked front to back reallocates O(log n) times, and
// recycled nodes keep their backing array.
func (n *TreeNode) growPCIdx(pc int) {
	old := len(n.pcIdx)
	if cap(n.pcIdx) > pc {
		n.pcIdx = n.pcIdx[:pc+1]
	} else {
		newCap := pc + 1
		if d := 2 * cap(n.pcIdx); d > newCap {
			newCap = d
		}
		grown := make([]int32, pc+1, newCap)
		copy(grown, n.pcIdx)
		n.pcIdx = grown
	}
	for i := old; i < len(n.pcIdx); i++ {
		n.pcIdx[i] = -1
	}
}

// Size returns the total number of instructions in the subtree.
func (n *TreeNode) Size() int {
	total := len(n.IL)
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Depth returns the number of self-modification layers below this node.
func (n *TreeNode) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// fingerprint canonically identifies a tree's contents for deduplication.
// The encoding is an unambiguous length-prefixed binary form: it exists only
// as a map key, so it is built by appending into a reusable buffer instead
// of formatting — the fingerprint of every discarded duplicate tree then
// costs zero allocations (see methodExited).
func (n *TreeNode) fingerprint(buf []byte) []byte {
	buf = append(buf, 'N')
	buf = appendVarint(buf, int64(n.SmStart))
	buf = appendVarint(buf, int64(n.SmEnd))
	buf = appendVarint(buf, int64(len(n.IL)))
	for i := range n.IL {
		e := &n.IL[i]
		buf = appendVarint(buf, int64(e.DexPC))
		buf = append(buf, byte(e.Inst.Op))
		buf = appendVarint(buf, int64(e.Inst.A))
		buf = appendVarint(buf, int64(e.Inst.B))
		buf = appendVarint(buf, int64(e.Inst.C))
		buf = appendVarint(buf, e.Inst.Lit)
		buf = appendVarint(buf, int64(e.Inst.Off))
		buf = appendVarint(buf, int64(len(e.Inst.Args)))
		for _, a := range e.Inst.Args {
			buf = appendVarint(buf, int64(a))
		}
		buf = appendSym(buf, e.Sym)
	}
	kids := n.Children
	if len(kids) > 1 {
		// Child order is execution order; identity must not depend on it.
		kids = append([]*TreeNode(nil), kids...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].SmStart < kids[j].SmStart })
	}
	for _, c := range kids {
		buf = c.fingerprint(buf)
	}
	return appendPayloads(buf, n.IL)
}

// appendPayloads trails a node's fingerprint with the case tables of its
// switch instructions, which the per-entry encoding above leaves out.
// Without it, two executions that differ only in a rewritten switch payload
// share a fingerprint and the second is dropped, although Inst.Equal — the
// collection-time SameIns — tells them apart. A node without switches
// appends nothing, so every other fingerprint, and the Canonicalize order
// built on them, is unchanged. The IL encoding already says which entries
// are switches, and the 'K' tag is not the 'N' that opens a child, so the
// trailer stays unambiguous.
func appendPayloads(buf []byte, il []Entry) []byte {
	tagged := false
	for i := range il {
		in := il[i].Inst
		if !in.Op.IsSwitch() {
			continue
		}
		if !tagged {
			buf = append(buf, 'K')
			tagged = true
		}
		buf = appendVarint(buf, int64(len(in.Keys)))
		for _, k := range in.Keys {
			buf = appendVarint(buf, int64(k))
		}
		buf = appendVarint(buf, int64(len(in.Targets)))
		for _, t := range in.Targets {
			buf = appendVarint(buf, int64(t))
		}
	}
	return buf
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendStr(buf []byte, s string) []byte {
	buf = appendVarint(buf, int64(len(s)))
	return append(buf, s...)
}

func appendSym(buf []byte, s *Symbol) []byte {
	if s == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1+byte(s.Kind))
	switch s.Kind {
	case bytecode.IndexString:
		buf = appendStr(buf, s.Str)
	case bytecode.IndexType:
		buf = appendStr(buf, s.Type)
	case bytecode.IndexField:
		buf = appendStr(buf, s.Field.Class)
		buf = appendStr(buf, s.Field.Name)
		buf = appendStr(buf, s.Field.Type)
	case bytecode.IndexMethod:
		buf = appendStr(buf, s.Method.Class)
		buf = appendStr(buf, s.Method.Name)
		buf = appendStr(buf, s.Method.Signature)
	}
	return buf
}

// Fingerprint returns the canonical identity of the tree.
func (n *TreeNode) Fingerprint() string {
	return string(n.fingerprint(nil))
}

// MethodRecord aggregates everything collected about one method.
type MethodRecord struct {
	Class         string `json:"class"`
	Name          string `json:"name"`
	Signature     string `json:"signature"`
	AccessFlags   uint32 `json:"accessFlags"`
	Virtual       bool   `json:"virtual"`
	RegistersSize int    `json:"registersSize"`
	InsSize       int    `json:"insSize"`

	// Trees holds the unique collection trees, one per distinct execution.
	Trees []*TreeNode `json:"trees,omitempty"`
	// Tries is the method's try/catch table with original dex_pc anchors and
	// exception types resolved to descriptors.
	Tries []TryRecord `json:"tries,omitempty"`
	// ReflTargets maps a call-site dex_pc of Method.invoke to the resolved
	// direct-call targets observed there.
	ReflTargets map[int][]ReflTarget `json:"reflTargets,omitempty"`
	// Written records that the runtime observed a write into this method's
	// live unit array (art.Hooks.CodeWritten). A written method's trees are
	// a function of runtime state, not of its static body, so the record is
	// never admitted into the incremental method cache.
	Written bool `json:"written,omitempty"`

	seen map[string]bool // tree fingerprints; built on first use by seenSet
}

// Key returns the canonical method key.
func (r *MethodRecord) Key() string { return r.Class + "->" + r.Name + r.Signature }

// Executed reports whether any bytecode was collected for the method.
func (r *MethodRecord) Executed() bool { return len(r.Trees) > 0 }

// Cacheable reports whether the record may be served from the incremental
// method cache: it must hold at least one tree, the method's code must
// never have been written at runtime, and no tree may carry divergence
// children (a forked tree proves self-modification even when the write
// itself was not hooked — e.g. a silent slice swap before the method's
// first bind).
func (r *MethodRecord) Cacheable() bool {
	if r.Written || len(r.Trees) == 0 {
		return false
	}
	for _, t := range r.Trees {
		if len(t.Children) > 0 {
			return false
		}
	}
	return true
}

// indexSlots is the number of IIM slots reindex allocates for the trees:
// each node's largest dex_pc + 1. A dex_pc that is negative, or that no
// DEX code item can reach (dex.MaxInsns), is an error, and so is an entry
// without an instruction (a missing or null "inst" in the collection
// files), which the reassembler would dereference.
func indexSlots(trees []*TreeNode) (int, error) {
	slots := 0
	for _, n := range trees {
		for i := range n.IL {
			pc := n.IL[i].DexPC
			if pc < 0 || pc >= dex.MaxInsns {
				return 0, fmt.Errorf("dex_pc %d out of range", pc)
			}
			if n.IL[i].Inst == nil {
				return 0, fmt.Errorf("dex_pc %d has no instruction", pc)
			}
		}
		sub, err := indexSlots(n.Children)
		if err != nil {
			return 0, err
		}
		slots += n.maxPC() + 1 + sub
	}
	return slots, nil
}

// reindex rebuilds what a record's serialized forms (the record codec and
// the collection files) leave out but reading needs: each tree node's parent
// link and IIM. Callers first check indexSlots, which rejects a dex_pc the
// IIM cannot index and counts what reindex allocates.
func (r *MethodRecord) reindex() {
	for _, tr := range r.Trees {
		tr.reindex(nil)
	}
}

// seenSet returns the record's fingerprint dedup set, building it from the
// trees on the first dedup check: a decoded record only read never pays.
func (r *MethodRecord) seenSet() map[string]bool {
	if r.seen == nil {
		r.seen = make(map[string]bool, len(r.Trees))
		for _, tr := range r.Trees {
			r.seen[tr.Fingerprint()] = true
		}
	}
	return r.seen
}

func (n *TreeNode) reindex(parent *TreeNode) {
	n.Parent = parent
	n.pcIdx = make([]int32, n.maxPC()+1)
	for i := range n.pcIdx {
		n.pcIdx[i] = -1
	}
	for i := range n.IL {
		n.pcIdx[n.IL[i].DexPC] = int32(i)
	}
	for _, c := range n.Children {
		c.reindex(n)
	}
}

// maxPC is the largest dex_pc in the node's IL, or -1 if it is empty.
func (n *TreeNode) maxPC() int {
	m := -1
	for i := range n.IL {
		m = max(m, n.IL[i].DexPC)
	}
	return m
}

// TryRecord is a try/catch range anchored at original dex_pcs.
type TryRecord struct {
	StartPC    int        `json:"startPC"`
	Count      int        `json:"count"`
	Handlers   []TryCatch `json:"handlers,omitempty"`
	CatchAllPC int        `json:"catchAllPC"` // -1 when absent
}

// TryCatch is one typed handler of a TryRecord.
type TryCatch struct {
	Type      string `json:"type"`
	HandlerPC int    `json:"handlerPC"`
}

// ValueRecord serializes a static field value.
type ValueRecord struct {
	Kind string `json:"kind"` // "int", "string", "null", "bool"
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

// FieldRecord is collected field metadata.
type FieldRecord struct {
	Name        string       `json:"name"`
	Type        string       `json:"type"`
	AccessFlags uint32       `json:"accessFlags"`
	Value       *ValueRecord `json:"value,omitempty"`
}

// MethodShell is a declared method observed at class initialization.
type MethodShell struct {
	Name        string `json:"name"`
	Signature   string `json:"signature"`
	AccessFlags uint32 `json:"accessFlags"`
	Virtual     bool   `json:"virtual"`
	Native      bool   `json:"native"`
}

// ClassRecord is collected class metadata.
type ClassRecord struct {
	Descriptor     string        `json:"descriptor"`
	Superclass     string        `json:"superclass"`
	Interfaces     []string      `json:"interfaces,omitempty"`
	SourceFile     string        `json:"sourceFile,omitempty"`
	AccessFlags    uint32        `json:"accessFlags"`
	StaticFields   []FieldRecord `json:"staticFields,omitempty"`
	InstanceFields []FieldRecord `json:"instanceFields,omitempty"`
	Methods        []MethodShell `json:"methods,omitempty"`
}

// Result is the complete collection output, the in-memory form of the
// paper's five collection files.
type Result struct {
	Classes []ClassRecord            `json:"classes"`
	Methods map[string]*MethodRecord `json:"methods"`
}

// Method returns the record for a method key, creating it if needed.
func (r *Result) method(m *art.Method) *MethodRecord {
	key := m.Key()
	if rec, ok := r.Methods[key]; ok {
		return rec
	}
	rec := &MethodRecord{
		Class:         m.Class.Descriptor,
		Name:          m.Name,
		Signature:     m.Signature,
		AccessFlags:   m.AccessFlags,
		Virtual:       m.Virtual,
		RegistersSize: m.RegistersSize,
		InsSize:       m.InsSize,
	}
	r.Methods[key] = rec
	return rec
}

// Class returns the recorded class metadata, or nil.
func (r *Result) Class(descriptor string) *ClassRecord {
	for i := range r.Classes {
		if r.Classes[i].Descriptor == descriptor {
			return &r.Classes[i]
		}
	}
	return nil
}

// ExecutedInstructionCount sums unique collected instructions over all
// methods (the paper's dump-size proxy).
func (r *Result) ExecutedInstructionCount() int {
	total := 0
	for _, rec := range r.Methods {
		for _, tr := range rec.Trees {
			total += tr.Size()
		}
	}
	return total
}

// methodExec is one in-flight execution of one method. A frame either
// builds its own tree (root, cur) or follows a known one: in follow mode
// the execution so far equals follow.IL[:fi], root and cur are nil, and
// known lists the method's known trees a divergence may switch to.
type methodExec struct {
	method *art.Method
	root   *TreeNode
	cur    *TreeNode

	known  []*TreeNode
	follow *TreeNode
	fi     int
}

// followable reports whether an execution may follow t instead of building
// a tree: t has no divergence children (self-modifying executions always
// build, and fork exactly as Algorithm 1 says).
func followable(t *TreeNode) bool {
	return len(t.Children) == 0 && len(t.IL) > 0
}

// followed applies Algorithm 1 to the execution's tree, which in follow
// mode is the prefix follow.IL[:fi] of a known tree, and reports whether
// the instruction kept it a prefix of some known tree. A false return means
// the execution has left every known tree; the caller materializes the
// prefix and carries on building.
func (ex *methodExec) followed(m *art.Method, pc int, in *bytecode.Inst) bool {
	cand, fi := ex.follow, ex.fi
	if j, ok := cand.Index(pc); ok && j < fi {
		// A recorded dex_pc: an equal instruction is the usual dedup; a
		// different one forks, which no followable tree holds.
		return cand.IL[j].Inst.Equal(in)
	}
	if fi < len(cand.IL) && sameEntry(&cand.IL[fi], m, pc, in) {
		ex.fi++
		return true
	}
	for _, t := range ex.known {
		if t != cand && followable(t) && fi < len(t.IL) &&
			sameEntry(&t.IL[fi], m, pc, in) && samePrefix(t, cand, fi) {
			ex.follow, ex.fi = t, fi+1
			return true
		}
	}
	return false
}

// sameEntry reports whether e is the entry collection would push for in at
// pc: the same dex_pc, an Equal instruction and the same resolved symbol.
// The test is at least as strict as the fingerprint, so following never
// drops an execution Merge would have kept.
func sameEntry(e *Entry, m *art.Method, pc int, in *bytecode.Inst) bool {
	return e.DexPC == pc && e.Inst.Equal(in) && sameSym(e.Sym, m, in)
}

// sameSym reports whether resolveSym(m, in) would equal s. It reads the
// method's DEX file directly, so the comparison allocates nothing.
func sameSym(s *Symbol, m *art.Method, in *bytecode.Inst) bool {
	kind := in.Op.Index()
	if kind == bytecode.IndexNone {
		return s == nil
	}
	if s == nil || s.Kind != kind {
		return false
	}
	f := m.Class.File
	switch kind {
	case bytecode.IndexString:
		return s.Str == f.String(in.Index)
	case bytecode.IndexType:
		return s.Type == f.TypeName(in.Index)
	case bytecode.IndexField:
		return s.Field == f.FieldAt(in.Index)
	default:
		return s.Method == f.MethodAt(in.Index)
	}
}

// samePrefix reports whether a and b agree on their first n entries.
func samePrefix(a, b *TreeNode, n int) bool {
	for i := 0; i < n; i++ {
		x, y := &a.IL[i], &b.IL[i]
		if x.DexPC != y.DexPC || !x.Inst.Equal(y.Inst) {
			return false
		}
		if (x.Sym == nil) != (y.Sym == nil) || (x.Sym != nil && *x.Sym != *y.Sym) {
			return false
		}
	}
	return true
}

// Collector performs JIT collection over an instrumented runtime.
//
// Ownership contract: a Collector belongs to exactly one runtime at a
// time. Its hooks mutate the collection tree and the execution stack
// without locks, so attaching the same Collector to two concurrently
// executing runtimes is a data race. Hooks are synchronous and never
// nested, which lets a cheap atomic guard enforce the contract: a hook
// entered while another is in flight panics instead of silently
// corrupting the collection result. Batch pipelines (RevealBatch)
// therefore construct one Collector per job.
type Collector struct {
	res   *Result
	known *Result // trees executions follow; see Shard
	stack []*methodExec
	hooks *art.Hooks
	busy  atomic.Int32
	span  *obs.Span

	// Incremental-reveal skip state (SetSkip). Skipped methods are served
	// from the method cache: they push no execution frame and collect no
	// trees, but the collector records which of them actually ran (touched)
	// so only those get their cached trees spliced, and which were written
	// at runtime (violated) so the reveal can fall back to a full run.
	skip     map[string]bool
	touched  map[string]bool
	violated map[string]bool

	// Scratch reused across hook invocations. The single-runtime ownership
	// contract above makes unsynchronized reuse safe: hooks never overlap.
	fpBuf     []byte        // fingerprint scratch (methodExited)
	freeNodes []*TreeNode   // recycled nodes of discarded duplicate trees
	freeExecs []*methodExec // recycled execution frames

	// matched holds the parent's trees a shard's executions followed to the
	// end. They are recorded nowhere else; Merge counts them as offered.
	matched map[*TreeNode]bool
}

// newNode returns a fresh or recycled tree node.
func (c *Collector) newNode(parent *TreeNode, smStart int) *TreeNode {
	if n := len(c.freeNodes); n > 0 {
		nd := c.freeNodes[n-1]
		c.freeNodes = c.freeNodes[:n-1]
		nd.SmStart = smStart
		nd.Parent = parent
		return nd
	}
	return &TreeNode{SmStart: smStart, SmEnd: -1, Parent: parent}
}

// recycleTree returns a discarded (duplicate) tree's nodes to the freelist.
// Only trees that were never published into a MethodRecord may be recycled.
func (c *Collector) recycleTree(n *TreeNode) {
	for _, ch := range n.Children {
		c.recycleTree(ch)
	}
	// Reset only the pcIdx slots the IL actually touched: O(collected), not
	// O(method size).
	for i := range n.IL {
		if pc := n.IL[i].DexPC; pc < len(n.pcIdx) {
			n.pcIdx[pc] = -1
		}
	}
	n.IL = n.IL[:0]
	n.Children = n.Children[:0]
	n.SmStart = -1
	n.SmEnd = -1
	n.Parent = nil
	c.freeNodes = append(c.freeNodes, n)
}

// materialize turns a follow-mode frame into a building one: the followed
// prefix is copied into a fresh node, which then grows on the usual path.
// The entries share their instructions and symbols with the known tree;
// published trees are never mutated, so the sharing is safe.
func (c *Collector) materialize(ex *methodExec) {
	root := c.newNode(nil, -1)
	for i := range ex.follow.IL[:ex.fi] {
		root.Push(ex.follow.IL[i])
	}
	ex.root, ex.cur = root, root
	ex.known, ex.follow, ex.fi = nil, nil, 0
}

// SetSpan attributes the collector's trace events (tree forks, convergences,
// recorded methods, guard violations) to s — typically the per-app reveal
// span. A nil span (the default) keeps the hot path at a pointer check.
func (c *Collector) SetSpan(s *obs.Span) { c.span = s }

// enter flags the collector as servicing a hook; leave clears the flag.
// Observing the flag already set means two runtimes share this collector;
// the violation is recorded in the trace before the guard panics, so trace
// files keep the context the panic destroys.
func (c *Collector) enter() {
	if !c.busy.CompareAndSwap(0, 1) {
		c.span.ConcurrentEntry("collector hook entered while another hook was in flight")
		panic("collector: concurrent use across runtimes; each Collector owns exactly one runtime")
	}
}

func (c *Collector) leave() { c.busy.Store(0) }

// New returns an empty collector.
func New() *Collector {
	c := &Collector{
		res:      &Result{Methods: make(map[string]*MethodRecord)},
		touched:  make(map[string]bool),
		violated: make(map[string]bool),
	}
	c.known = c.res
	c.hooks = &art.Hooks{
		MethodEntered:    c.methodEntered,
		MethodExited:     c.methodExited,
		Instruction:      c.instruction,
		ClassInitialized: c.classInitialized,
		ReflectiveCall:   c.reflectiveCall,
		CodeWritten:      c.codeWritten,
	}
	return c
}

// SetSkip installs the set of method keys to serve from the incremental
// method cache. Skipped methods record touch-only: no frame, no trees.
// Must be set before the collector's runtime executes; nil (the default)
// skips nothing.
func (c *Collector) SetSkip(skip map[string]bool) { c.skip = skip }

// Skipped reports whether key is on the skip list (false on a nil
// collector). The force-execution engine schedules no runs for skipped
// methods: their cached trees already hold the forced coverage.
func (c *Collector) Skipped(key string) bool { return c != nil && c.skip[key] }

// SkipTouched returns the skip-listed method keys that were actually
// entered during execution — the methods whose cached trees must be
// spliced into the result. Never-entered skipped methods stay absent and
// reassemble as stubs, exactly as on the full path.
func (c *Collector) SkipTouched() map[string]bool { return c.touched }

// SkipViolations returns, sorted, the skip-listed methods whose live code
// was written at runtime. A non-empty slice means the cached trees cannot
// be trusted for this run and the caller must fall back to a full reveal.
func (c *Collector) SkipViolations() []string {
	keys := make([]string, 0, len(c.violated))
	for k := range c.violated {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Shard returns an empty collector with c's skip list, for one concurrent
// run whose result Merge later folds back into c.
//
// The shard's executions follow c's trees instead of rebuilding them: an
// execution equal to one of c's childless trees records nothing, and only
// one that leaves them builds a tree (see methodEntered). The shard reads
// c's result without locks, so c's result must not change while the shard
// runs. The force-execution engine guarantees this: it merges shards into
// c only at its iteration barrier, after every run of the iteration has
// finished.
func (c *Collector) Shard() *Collector {
	s := New()
	s.SetSkip(c.skip)
	s.known = c.res
	s.matched = make(map[*TreeNode]bool)
	return s
}

// Merge folds a shard back into c: the results merge as in Result.Merge,
// and the shard's touched and violated skip sets union into c's, so a
// skipped method entered (or written) only under forced branches still
// splices (or still voids the plan). The known trees the shard followed
// count as offered and not kept, so TreesOffered still counts the unique
// trees the run executed. The shard is consumed.
func (c *Collector) Merge(shard *Collector) MergeStats {
	for k := range shard.touched {
		c.touched[k] = true
	}
	for k := range shard.violated {
		c.violated[k] = true
	}
	st := c.res.Merge(shard.res)
	st.TreesOffered += len(shard.matched)
	return st
}

// Hooks returns the instrumentation to attach via Runtime.AddHooks.
func (c *Collector) Hooks() *art.Hooks { return c.hooks }

// Result returns the collection result accumulated so far.
func (c *Collector) Result() *Result { return c.res }

func appMethod(m *art.Method) bool { return m.Class != nil && m.Class.File != nil }

func (c *Collector) methodEntered(m *art.Method) {
	c.enter()
	defer c.leave()
	if !appMethod(m) {
		return
	}
	if c.skip != nil && c.skip[m.Key()] {
		// Served from the method cache: record the touch and push no frame.
		// The top-of-stack method guards in instruction and methodExited
		// keep nested non-skipped callees collecting correctly.
		c.touched[m.Key()] = true
		return
	}
	var ex *methodExec
	if n := len(c.freeExecs); n > 0 {
		ex = c.freeExecs[n-1]
		c.freeExecs = c.freeExecs[:n-1]
		*ex = methodExec{method: m}
	} else {
		ex = &methodExec{method: m}
	}
	// Follow the first known childless tree; the tree is built only once
	// the execution leaves every known tree (Algorithm 1 keeps one tree per
	// distinct execution, so a repeat costs comparisons, not a tree).
	if known := c.known.Methods[m.Key()]; known != nil {
		for _, t := range known.Trees {
			if followable(t) {
				ex.known, ex.follow = known.Trees, t
				break
			}
		}
	}
	if ex.follow == nil {
		ex.root = c.newNode(nil, -1)
		ex.cur = ex.root
	}
	c.stack = append(c.stack, ex)
	// Record shape on first sight; a method may be entered before its class
	// record exists (e.g. <clinit>).
	rec := c.res.method(m)
	rec.RegistersSize = m.RegistersSize
	rec.InsSize = m.InsSize
	if rec.Tries == nil && len(m.Tries) > 0 && m.Class.File != nil {
		for _, t := range m.Tries {
			tr := TryRecord{
				StartPC:    int(t.Start),
				Count:      int(t.Count),
				CatchAllPC: int(t.CatchAll),
			}
			for _, h := range t.Handlers {
				tr.Handlers = append(tr.Handlers, TryCatch{
					Type:      m.Class.File.TypeName(h.Type),
					HandlerPC: int(h.Addr),
				})
			}
			rec.Tries = append(rec.Tries, tr)
		}
	}
}

func (c *Collector) methodExited(m *art.Method) {
	c.enter()
	defer c.leave()
	if !appMethod(m) || len(c.stack) == 0 {
		return
	}
	top := c.stack[len(c.stack)-1]
	if top.method != m {
		return // unbalanced (native transitions); keep the stack sane
	}
	c.stack = c.stack[:len(c.stack)-1]
	if top.follow != nil && top.fi < len(top.follow.IL) {
		c.materialize(top) // the execution ended inside a known tree
	}
	root, matched := top.root, top.follow
	*top = methodExec{}
	c.freeExecs = append(c.freeExecs, top)
	if matched != nil {
		// The execution equals a known tree: nothing to record.
		if c.matched != nil {
			c.matched[matched] = true
		}
		return
	}
	if len(root.IL) == 0 {
		c.recycleTree(root)
		return
	}
	rec := c.res.method(m)
	// Build the fingerprint in the reused scratch buffer and look it up
	// without materializing a string: duplicate executions (the steady
	// state of loops and repeated calls) then dedupe allocation-free.
	c.fpBuf = root.fingerprint(c.fpBuf[:0])
	seen := rec.seenSet()
	if seen[string(c.fpBuf)] {
		c.recycleTree(root)
		return // keep only unique trees
	}
	seen[string(c.fpBuf)] = true
	rec.Trees = append(rec.Trees, root)
	if c.span.Enabled() {
		c.span.MethodCollected(rec.Key(), root.Depth(), root.Size())
	}
}

// layerDepth returns the self-modification layer of n (0 for the root).
func layerDepth(n *TreeNode) int {
	d := 0
	for k := n; k.Parent != nil; k = k.Parent {
		d++
	}
	return d
}

// instruction implements Algorithm 1 (BytecodeCollection).
func (c *Collector) instruction(m *art.Method, pc int, insns []uint16, in *bytecode.Inst) {
	c.enter()
	defer c.leave()
	if !appMethod(m) || len(c.stack) == 0 {
		return
	}
	top := c.stack[len(c.stack)-1]
	if top.method != m {
		return
	}
	if in == nil {
		return // malformed live code; the interpreter will surface it
	}
	if top.follow != nil {
		if top.followed(m, pc, in) {
			return
		}
		c.materialize(top)
	}
	// Symbol resolution is deferred past the dedup check below: the steady
	// state (loop bodies, repeated calls) re-executes recorded instructions,
	// which must not allocate.
	cur := top.cur
	if ilIdx, ok := cur.Index(pc); ok {
		if cur.IL[ilIdx].Inst.Equal(in) {
			return // same instruction at same dex_pc: deduplicate
		}
		// Divergence: a runtime modification happened here.
		child := c.newNode(cur, pc)
		cur.Children = append(cur.Children, child)
		top.cur = child
		child.Push(Entry{DexPC: pc, Inst: kept(m, pc, in), Sym: resolveSym(m, in)})
		if c.span.Enabled() {
			c.span.TreeFork(m.Key(), pc, layerDepth(child))
		}
		return
	}
	if cur.Parent != nil {
		if pIdx, ok := cur.Parent.Index(pc); ok && cur.Parent.IL[pIdx].Inst.Equal(in) {
			// Convergence: this self-modification layer ended.
			cur.SmEnd = pc
			top.cur = cur.Parent
			if c.span.Enabled() {
				c.span.TreeConverge(m.Key(), pc, layerDepth(cur))
			}
			return
		}
	}
	cur.Push(Entry{DexPC: pc, Inst: kept(m, pc, in), Sym: resolveSym(m, in)})
}

// kept returns the instruction an entry for in at pc points at: in itself
// when it is the bound program's instruction at pc, an immutable snapshot,
// and otherwise a heap copy, since the interpreter reuses its scratch for
// the next live-decoded pc (predecode off, or a pc the program left
// unmapped). The copy is shallow: Decode allocates the operand slices per
// call, so the scratch never shares them with a later instruction.
func kept(m *art.Method, pc int, in *bytecode.Inst) *bytecode.Inst {
	if p := m.Program(); p != nil {
		if d := p.Lookup(pc); d != nil && &d.Inst == in {
			return in
		}
	}
	cp := *in
	return &cp
}

// codeWritten marks a method whose live unit array was written: its record
// becomes permanently uncacheable, and if the method was on the skip list
// the cached tree served for it is no longer trustworthy (violation).
func (c *Collector) codeWritten(m *art.Method, pc int) {
	c.enter()
	defer c.leave()
	if !appMethod(m) {
		return
	}
	key := m.Key()
	if c.skip != nil && c.skip[key] {
		c.violated[key] = true
	}
	c.res.method(m).Written = true
}

func resolveSym(m *art.Method, in *bytecode.Inst) *Symbol {
	kind := in.Op.Index()
	if kind == bytecode.IndexNone || m.Class.File == nil {
		return nil
	}
	f := m.Class.File
	s := &Symbol{Kind: kind}
	switch kind {
	case bytecode.IndexString:
		s.Str = f.String(in.Index)
	case bytecode.IndexType:
		s.Type = f.TypeName(in.Index)
	case bytecode.IndexField:
		s.Field = f.FieldAt(in.Index)
	case bytecode.IndexMethod:
		s.Method = f.MethodAt(in.Index)
	}
	return s
}

func (c *Collector) classInitialized(cl *art.Class) {
	c.enter()
	defer c.leave()
	c.recordClass(cl)
}

// recordClass records class metadata at initialization time. Superclasses
// initialize first (and are recorded by their own events), but interfaces do
// not, so their metadata is pulled in recursively — the reassembled DEX must
// be able to re-link every recorded class.
func (c *Collector) recordClass(cl *art.Class) {
	if cl == nil || cl.File == nil || c.res.Class(cl.Descriptor) != nil {
		return
	}
	rec := ClassRecord{
		Descriptor:  cl.Descriptor,
		AccessFlags: cl.AccessFlags,
	}
	if cl.Super != nil {
		rec.Superclass = cl.Super.Descriptor
	}
	for _, i := range cl.Interfaces {
		rec.Interfaces = append(rec.Interfaces, i.Descriptor)
	}
	if cl.Def != nil && cl.Def.SourceFile != dex.NoIndex {
		rec.SourceFile = cl.File.String(cl.Def.SourceFile)
	}
	for _, f := range cl.StaticMeta {
		fr := FieldRecord{Name: f.Name, Type: f.Type, AccessFlags: f.AccessFlags}
		if v, ok := cl.Statics[f.Name]; ok && cl.Initialized() {
			fr.Value = valueRecord(v)
		} else if f.Init != nil {
			fr.Value = encodedValueRecord(cl, *f.Init)
		}
		rec.StaticFields = append(rec.StaticFields, fr)
	}
	for _, f := range cl.InstanceMeta {
		rec.InstanceFields = append(rec.InstanceFields,
			FieldRecord{Name: f.Name, Type: f.Type, AccessFlags: f.AccessFlags})
	}
	for _, m := range cl.Methods {
		rec.Methods = append(rec.Methods, MethodShell{
			Name:        m.Name,
			Signature:   m.Signature,
			AccessFlags: m.AccessFlags,
			Virtual:     m.Virtual,
			Native:      m.AccessFlags&dex.AccNative != 0,
		})
	}
	c.res.Classes = append(c.res.Classes, rec)
	for _, i := range cl.Interfaces {
		c.recordClass(i)
	}
	c.recordClass(cl.Super)
}

func encodedValueRecord(cl *art.Class, v dex.Value) *ValueRecord {
	switch v.Kind {
	case dex.ValueString:
		return &ValueRecord{Kind: "string", Str: cl.File.String(v.Index)}
	case dex.ValueNull:
		return &ValueRecord{Kind: "null"}
	default:
		return &ValueRecord{Kind: "int", Int: v.Int}
	}
}

func valueRecord(v art.Value) *ValueRecord {
	switch {
	case v.Kind == art.KindRef && v.Ref != nil && v.Ref.IsString():
		return &ValueRecord{Kind: "string", Str: v.Ref.Str}
	case v.Kind == art.KindRef:
		return &ValueRecord{Kind: "null"}
	default:
		return &ValueRecord{Kind: "int", Int: v.Int}
	}
}

// ReflTarget describes one observed reflective-invocation target.
type ReflTarget struct {
	Class     string `json:"class"`
	Name      string `json:"name"`
	Signature string `json:"signature"`
	Static    bool   `json:"static"`
}

// Key returns the canonical method key of the target.
func (t ReflTarget) Key() string { return t.Class + "->" + t.Name + t.Signature }

func (c *Collector) reflectiveCall(caller *art.Method, pc int, target *art.Method) {
	c.enter()
	defer c.leave()
	if caller == nil || !appMethod(caller) {
		return
	}
	rec := c.res.method(caller)
	if rec.ReflTargets == nil {
		rec.ReflTargets = make(map[int][]ReflTarget)
	}
	ref := ReflTarget{
		Class:     target.Class.Descriptor,
		Name:      target.Name,
		Signature: target.Signature,
		Static:    target.IsStatic(),
	}
	for _, existing := range rec.ReflTargets[pc] {
		if existing == ref {
			return
		}
	}
	rec.ReflTargets[pc] = append(rec.ReflTargets[pc], ref)
}
