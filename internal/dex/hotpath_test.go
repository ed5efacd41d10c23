package dex

import (
	"testing"
)

// TestBuilderInternAllocs pins the steady-state allocation behavior of the
// Builder symbol pools: once a string/type/proto/field/method is interned,
// looking it up again must not allocate — the key is built in the reusable
// scratch buffer and resolved with an allocation-free map[string] lookup.
// A regression here (e.g. reintroducing string-concat key construction)
// multiplies across every instruction of every collected method.
func TestBuilderInternAllocs(t *testing.T) {
	b := NewBuilder()
	b.String("hello")
	b.Type("Ljava/lang/String;")
	b.Proto("V", "I", "Ljava/lang/String;")
	b.Field("La/B;", "field", "I")
	b.Method("La/B;", "method", "V", "I", "Ljava/lang/String;")

	cases := []struct {
		name string
		fn   func()
	}{
		{"String", func() { b.String("hello") }},
		{"Type", func() { b.Type("Ljava/lang/String;") }},
		{"Proto", func() { b.Proto("V", "I", "Ljava/lang/String;") }},
		{"Field", func() { b.Field("La/B;", "field", "I") }},
		{"Method", func() { b.Method("La/B;", "method", "V", "I", "Ljava/lang/String;") }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("Builder.%s steady-state lookup allocates %v times per op, want 0", tc.name, n)
		}
	}
}

func TestSortPermSortedReturnsNil(t *testing.T) {
	vals := []string{"a", "b", "c", "d"}
	perm := sortPerm(len(vals), func(i, j int) bool { return vals[i] < vals[j] })
	if perm != nil {
		t.Fatalf("sortPerm on sorted input = %v, want nil (identity)", perm)
	}
	// permAt must treat the nil permutation as identity.
	for i := uint32(0); i < uint32(len(vals)); i++ {
		if got := permAt(nil, i); got != i {
			t.Fatalf("permAt(nil, %d) = %d, want %d", i, got, i)
		}
	}
}

func TestSortPermUnsorted(t *testing.T) {
	vals := []string{"c", "a", "d", "b"}
	perm := sortPerm(len(vals), func(i, j int) bool { return vals[i] < vals[j] })
	if perm == nil {
		t.Fatal("sortPerm on unsorted input = nil, want a permutation")
	}
	out := make([]string, len(vals))
	for old, s := range vals {
		out[perm[old]] = s
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("applied perm = %v, want %v", out, want)
		}
	}
	for i := uint32(0); i < uint32(len(vals)); i++ {
		if got := permAt(perm, i); got != perm[i] {
			t.Fatalf("permAt(perm, %d) = %d, want %d", i, got, perm[i])
		}
	}
}

// TestSortPermSingleAndEmpty covers the degenerate sizes the index tables hit
// for tiny DEX files.
func TestSortPermSingleAndEmpty(t *testing.T) {
	if perm := sortPerm(0, func(i, j int) bool { return false }); perm != nil {
		t.Fatalf("sortPerm(0) = %v, want nil", perm)
	}
	if perm := sortPerm(1, func(i, j int) bool { return false }); perm != nil {
		t.Fatalf("sortPerm(1) = %v, want nil", perm)
	}
}

// TestBuilderSortedInputStable verifies the already-sorted fast path of
// Finish produces the same file as a shuffled-input build: indices are
// canonical either way.
func TestBuilderSortedInputStable(t *testing.T) {
	build := func(order []string) []byte {
		b := NewBuilder()
		for _, s := range order {
			b.String(s)
		}
		cls := b.Class("La/A;", AccPublic, "Ljava/lang/Object;")
		cls.Method("go", "V", nil, AccPublic|AccNative, nil)
		f, err := b.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		data, err := f.Write()
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		return data
	}
	sorted := build([]string{"alpha", "beta", "gamma"})
	shuffled := build([]string{"gamma", "alpha", "beta"})
	if string(sorted) != string(shuffled) {
		t.Fatal("sorted-input fast path and shuffled input produced different files")
	}
}
