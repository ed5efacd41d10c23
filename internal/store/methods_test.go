package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestSpillKeyForContentAddressed(t *testing.T) {
	a := SpillKeyFor([]byte("record-a"))
	b := SpillKeyFor([]byte("record-b"))
	if a == b {
		t.Fatalf("distinct payloads share a spill key %s", a)
	}
	if a != SpillKeyFor([]byte("record-a")) {
		t.Fatalf("spill key not deterministic")
	}
	if !ValidKey(a) {
		t.Fatalf("spill key %q not a valid store key", a)
	}
	if a == MethodKeyFor("opts", "record-a") {
		t.Fatalf("spill keyspace collides with the method-tree keyspace")
	}
}

// TestMethodCacheEvictionStorm hammers a near-zero-capacity memory-only
// cache from many goroutines: every insert evicts, every Get races a
// concurrent eviction of the same key. The required behavior is the spill
// tier's contract — a Get may miss (the caller falls back to its retained
// bytes) but must never return wrong bytes, and the accounting must never
// go negative. Run with -race for the full value.
func TestMethodCacheEvictionStorm(t *testing.T) {
	c, err := OpenMethodCache("", 1) // evict on every insert past the first
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const rounds = 200
	payload := func(w, i int) []byte {
		return []byte(fmt.Sprintf("worker-%d-record-%d", w, i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				data := payload(w, i)
				key := SpillKeyFor(data)
				if err := c.Put(key, data); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				// Read back every key this worker ever wrote; evicted ones
				// may miss, but a hit must carry the exact bytes.
				probe := payload(w, i/2)
				if got, ok := c.Get(SpillKeyFor(probe)); ok && string(got) != string(probe) {
					t.Errorf("cache returned wrong bytes for %q: %q", probe, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b := c.Bytes(); b < 0 {
		t.Fatalf("resident bytes negative after storm: %d", b)
	}
	if c.Len() < 1 {
		t.Fatalf("eviction emptied the cache below its one-entry floor")
	}
	if c.Evicted() == 0 {
		t.Fatalf("storm evicted nothing — capacity not exercised")
	}
}

// TestMethodCachePutReplacesForeignEntry: bytes planted at a key's disk
// path are served as they are (the cache does not interpret records), and
// one Put of the real record replaces them in memory and on disk, with the
// byte accounting following.
func TestMethodCachePutReplacesForeignEntry(t *testing.T) {
	dir := t.TempDir()
	key := MethodKeyFor("opts", "method")
	path := filepath.Join(dir, key[:2], key+".rec")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	foreign := []byte(`{"class":"Lx;","trees":[]}`)
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenMethodCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || !bytes.Equal(got, foreign) {
		t.Fatalf("planted entry: got %q, %v", got, ok)
	}
	good := []byte("R2 a record")
	if err := c.Put(key, good); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || !bytes.Equal(got, good) {
		t.Fatalf("after Put: got %q, %v; want the new bytes", got, ok)
	}
	if b := c.Bytes(); b != int64(len(good)) {
		t.Errorf("resident bytes %d after replacement, want %d", b, len(good))
	}
	reopened, err := OpenMethodCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.Get(key); !ok || !bytes.Equal(got, good) {
		t.Errorf("disk tier after Put: got %q, %v; want the new bytes", got, ok)
	}
}
