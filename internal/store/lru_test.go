package store

import (
	"bytes"
	"testing"
)

// residentBytes sums the sizes of the trees resident in c.
func residentBytes(c *MethodCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, el := range c.byKey {
		n += int64(len(el.Value.(*lruEntry[[]byte]).v))
	}
	return n
}

func TestMethodCacheBytesTrackReplaceAndEvict(t *testing.T) {
	c, err := OpenMethodCache("", 100)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, wantLen int) {
		t.Helper()
		if got, want := c.Bytes(), residentBytes(c); got != want {
			t.Errorf("%s: Bytes() = %d, resident trees sum to %d", step, got, want)
		}
		if c.Bytes() > 100 {
			t.Errorf("%s: Bytes() = %d over the 100-byte capacity", step, c.Bytes())
		}
		if c.Len() != wantLen {
			t.Errorf("%s: Len() = %d, want %d", step, c.Len(), wantLen)
		}
	}
	put := func(i, size int) {
		t.Helper()
		if err := c.Put(testKey(i), bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	put(1, 30)
	put(2, 30)
	check("two puts", 2)
	put(1, 10) // shrink a resident entry
	check("shrinking replace", 2)
	if c.Bytes() != 40 {
		t.Errorf("Bytes() = %d after replacing 30 bytes by 10, want 40", c.Bytes())
	}
	put(2, 95) // grow past the capacity: the cold entry (key 1) goes
	check("growing replace", 1)
	if c.Evicted() != 1 {
		t.Errorf("Evicted() = %d, want 1", c.Evicted())
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("cold entry survived a replace that overflowed the capacity")
	}
	put(3, 5)
	check("put after evict", 2)
}

func TestOversizedEntryStaysResidentAlone(t *testing.T) {
	c, err := OpenMethodCache("", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(1), []byte("small")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{7}, 64)
	if err := c.Put(testKey(2), big); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Bytes() != int64(len(big)) {
		t.Errorf("Len() = %d, Bytes() = %d, want the 64-byte entry alone", c.Len(), c.Bytes())
	}
	if got, ok := c.Get(testKey(2)); !ok || !bytes.Equal(got, big) {
		t.Error("entry larger than the capacity was not kept")
	}
}

func TestPutKeepReturnsResidentValue(t *testing.T) {
	c := newLRU(4, func(string) int64 { return 1 })
	if got := c.put("k", "first", false); got != "first" {
		t.Fatalf("put = %q, want first", got)
	}
	if got := c.put("k", "second", true); got != "first" {
		t.Errorf("put with keep = %q, want the resident first", got)
	}
	if got, _ := c.get("k"); got != "first" {
		t.Errorf("get after put with keep = %q, want first", got)
	}
	if got := c.put("k", "third", false); got != "third" {
		t.Errorf("put = %q, want third", got)
	}
	if got, _ := c.get("k"); got != "third" {
		t.Errorf("get after replace = %q, want third", got)
	}
	if c.Len() != 1 || c.resident() != 1 {
		t.Errorf("Len() = %d, resident() = %d, want 1 and 1", c.Len(), c.resident())
	}
}

func TestStoreEvictsByCount(t *testing.T) {
	s, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1 << 20, 1, 4 << 20}
	for i, size := range sizes {
		key := testKey(i)
		if _, _, err := s.GetOrReveal(key, func() (*Artifact, error) {
			return &Artifact{Revealed: make([]byte, size)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 || s.Evicted() != 1 {
		t.Errorf("Len() = %d, Evicted() = %d, want 2 and 1", s.Len(), s.Evicted())
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Error("oldest artifact survived past the entry capacity")
	}
	for _, i := range []int{1, 2} {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Errorf("artifact %d evicted within the entry capacity", i)
		}
	}
	if s.Misses() != int64(len(sizes)) {
		t.Errorf("Misses() = %d, want %d reveals", s.Misses(), len(sizes))
	}
}
