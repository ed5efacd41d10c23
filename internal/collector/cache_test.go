package collector_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
)

// codecSamples are DroidBench samples whose records between them carry
// divergence children and code writes, switch tables, reflective targets
// and try/catch tables.
var codecSamples = []string{"SelfModifying1", "SwitchFlow1", "Reflection3", "CatchFlow1"}

// codecRecords collects the codec samples over three runs each and returns
// their records in key order, plus one hand-built record exercising what
// collection rarely produces: nil beside empty slices, every symbol kind,
// several reflective call sites, and a divergence child.
func codecRecords(tb testing.TB) []*collector.MethodRecord {
	tb.Helper()
	var recs []*collector.MethodRecord
	for _, name := range codecSamples {
		s := droidbench.ByName(name)
		pkg, err := s.Build()
		if err != nil {
			tb.Fatal(err)
		}
		col := collector.New()
		for run := 0; run < 3; run++ {
			collectRun(tb, s, pkg, col, run)
		}
		res := col.Result()
		keys := make([]string, 0, len(res.Methods))
		for k := range res.Methods {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			recs = append(recs, res.Methods[k])
		}
	}
	return append(recs, handBuiltRecord())
}

func handBuiltRecord() *collector.MethodRecord {
	child := &collector.TreeNode{
		SmStart: 2, SmEnd: -1,
		IL: []collector.Entry{{DexPC: 2, Inst: bytecode.Inst{Op: bytecode.OpConst4, A: 1, Lit: -8, Args: []int{}}}},
	}
	root := &collector.TreeNode{
		SmStart: -1, SmEnd: -1,
		IL: []collector.Entry{
			{DexPC: 0, Inst: bytecode.Inst{Op: bytecode.OpConstString, A: 0, Index: 7},
				Sym: &collector.Symbol{Kind: bytecode.IndexString, Str: "héllo\x00"}},
			{DexPC: 2, Inst: bytecode.Inst{Op: bytecode.OpNewInstance, A: 1, Index: 1 << 31},
				Sym: &collector.Symbol{Kind: bytecode.IndexType, Type: "Lx/Y;"}},
			{DexPC: 4, Inst: bytecode.Inst{Op: bytecode.OpIGet, A: 2, B: 1},
				Sym: &collector.Symbol{Kind: bytecode.IndexField, Field: dex.FieldRef{Class: "Lx/Y;", Name: "f", Type: "I"}}},
			{DexPC: 6, Inst: bytecode.Inst{Op: bytecode.OpInvokeStatic, Args: []int{0, 1, 2}, Lit: 1 << 40},
				Sym: &collector.Symbol{Kind: bytecode.IndexMethod, Method: dex.MethodRef{Class: "Lx/Y;", Name: "m", Signature: "(II)V"}}},
			{DexPC: 9, Inst: bytecode.Inst{Op: bytecode.OpPackedSwitch, A: 3, Off: -9,
				Keys: []int32{-2147483648, 0, 2147483647}, Targets: []int32{}}},
		},
		Children: []*collector.TreeNode{child},
	}
	child.Parent = root
	rec := &collector.MethodRecord{
		Class: "Lx/Y;", Name: "<init>", Signature: "()V",
		AccessFlags: 0xffffffff, Virtual: true, RegistersSize: 4, InsSize: 1, Written: true,
		Trees: []*collector.TreeNode{root, {SmStart: -1, SmEnd: -1, IL: []collector.Entry{}}},
		Tries: []collector.TryRecord{
			{StartPC: 0, Count: 6, CatchAllPC: -1, Handlers: []collector.TryCatch{{Type: "Ljava/lang/Exception;", HandlerPC: 12}}},
			{StartPC: 6, Count: 3, CatchAllPC: 14},
		},
		ReflTargets: map[int][]collector.ReflTarget{
			9: {{Class: "Lx/Y;", Name: "a", Signature: "()V", Static: true}},
			3: {{Class: "Lx/Z;", Name: "b", Signature: "(I)I"}, {Class: "Lx/Z;", Name: "c", Signature: "()V"}},
			5: {},
			7: nil,
		},
	}
	// Published records carry their IIM map (collector.buildIIM).
	for _, tr := range rec.Trees {
		fillIIM(tr)
	}
	return rec
}

func fillIIM(n *collector.TreeNode) {
	n.IIM = make(map[int]int, len(n.IL))
	for i := range n.IL {
		n.IIM[n.IL[i].DexPC] = i
	}
	for _, c := range n.Children {
		fillIIM(c)
	}
}

func encode(tb testing.TB, rec *collector.MethodRecord) []byte {
	tb.Helper()
	data, err := collector.EncodeRecord(rec)
	if err != nil {
		tb.Fatalf("%s: encode: %v", rec.Key(), err)
	}
	return data
}

// TestRecordRoundTrip: a decoded record marshals to the JSON of the one
// that was encoded, and re-encodes to the same bytes.
func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range codecRecords(t) {
		data := encode(t, rec)
		dec, err := collector.DecodeRecord(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Key(), err)
		}
		want, _ := json.Marshal(rec)
		got, _ := json.Marshal(dec)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: JSON differs after the round trip\n want %.300s\n  got %.300s", rec.Key(), want, got)
		}
		if !bytes.Equal(encode(t, dec), data) {
			t.Errorf("%s: decoded record re-encodes differently", rec.Key())
		}
	}
}

// TestDecodeRecordRejects: anything but a complete record in the binary
// format is an error — every proper prefix, a trailing byte, the record's
// JSON (the v1 cache format), and a foreign tag.
func TestDecodeRecordRejects(t *testing.T) {
	for _, rec := range codecRecords(t) {
		data := encode(t, rec)
		for n := 0; n < len(data); n++ {
			if _, err := collector.DecodeRecord(data[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte record decoded", rec.Key(), n, len(data))
			}
		}
		if _, err := collector.DecodeRecord(append(append([]byte(nil), data...), 0)); err == nil {
			t.Errorf("%s: record with a trailing byte decoded", rec.Key())
		}
		js, _ := json.Marshal(rec)
		if _, err := collector.DecodeRecord(js); err == nil {
			t.Errorf("%s: JSON record decoded as binary", rec.Key())
		}
		bad := append([]byte("R1"), data[2:]...)
		if _, err := collector.DecodeRecord(bad); err == nil {
			t.Errorf("%s: record under a foreign tag decoded", rec.Key())
		}
	}
}

// maxAllocPerInputByte bounds what DecodeRecord may allocate per input
// byte. Every element a count announces costs at least one encoded byte,
// and the largest decoded element per byte is an empty child node (a
// TreeNode and its empty IIM for four bytes); a count trusted beyond the
// remaining bytes overshoots this by orders of magnitude.
const maxAllocPerInputByte = 96

// FuzzDecodeRecord: DecodeRecord never panics; its allocation stays
// O(len(data)); and an accepted input re-encodes to bytes that decode to a
// deep-equal record and encode back to themselves.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range codecRecords(f) {
		data := encode(f, rec)
		f.Add(data)
		f.Add(data[:len(data)/2])
		js, _ := json.Marshal(rec)
		f.Add(js)
	}
	f.Add([]byte{})
	f.Add([]byte("R2"))
	// A million trees announced with nothing behind them: an unchecked
	// count allocates megabytes here.
	f.Add([]byte("R2\x00\x00\x00\x00\x00\x00\x00\x80\x80\x40"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec, err := collector.DecodeRecord(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(maxAllocPerInputByte*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		re, err := collector.EncodeRecord(dec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		dec2, err := collector.DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("re-encoded record decodes differently")
		}
		if again, _ := collector.EncodeRecord(dec2); !bytes.Equal(again, re) {
			t.Fatalf("encoding not stable across a round trip")
		}
	})
}
