package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The method-level keyspace sits beside the whole-APK artifact keyspace: an
// entry is one method's canonicalized collection tree (a serialized
// collector.MethodRecord), addressed by the pair (options fingerprint,
// method fingerprint). Because the method fingerprint folds in the
// fingerprints of every resolved callee (see dexlego.MethodFingerprints),
// an unchanged key across app versions implies the method collects the same
// trees, which is what makes serving it from cache sound.
//
// Entries are value-addressed and immutable, so the cache needs no
// invalidation protocol: a changed method simply hashes to a different key
// and the stale entry ages out of the LRU.
//
// Both key namespaces carry the record format's version (v2: the binary
// codec of collector.EncodeRecord; v1 was JSON), and disk entries are
// named <key>.rec, so a record written in an older format is never looked
// up under a current key. Bytes planted at a current path anyway are
// rejected by DecodeRecord, and the caller treats that as a miss.

// DefaultMethodCacheBytes bounds the in-memory method-tree LRU when
// OpenMethodCache is given no explicit capacity.
const DefaultMethodCacheBytes int64 = 64 << 20

// MethodKeyFor derives the content address of one method's collection tree
// from the canonical options fingerprint (dexlego.Options.Fingerprint) and
// the method-body fingerprint (dexlego.MethodFingerprints). The options
// fingerprint participates because collection is options-dependent: a tree
// collected under force-execution is not the tree collected without it.
func MethodKeyFor(optionsFingerprint, methodFingerprint string) string {
	h := sha256.New()
	h.Write([]byte("methodtree/v2|"))
	h.Write([]byte(optionsFingerprint))
	h.Write([]byte{'|'})
	h.Write([]byte(methodFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// SpillKeyFor derives the content address of a mid-reveal spilled method
// record from the serialized bytes themselves. Unlike MethodKeyFor it needs
// no fingerprint pair: the spill tier holds records displaced from a live
// result to cap the reveal's heap, including methods outside the
// fingerprint map (dynamically loaded DEX), and content addressing makes
// every entry immutable — an evicted-then-refetched key can never observe
// different bytes.
func SpillKeyFor(data []byte) string {
	h := sha256.New()
	h.Write([]byte("spill/v2|"))
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// methodEntry is one resident method tree; data is immutable once inserted.
type methodEntry struct {
	key  string
	data []byte
}

// MethodCache is the per-method collection-tree cache: a byte-bounded
// in-memory LRU in front of an optional on-disk tier with the same
// two-level fan-out and atomic persistence as the artifact store. All
// methods are safe for concurrent use.
type MethodCache struct {
	dir      string // "" = memory-only
	capBytes int64

	mu      sync.Mutex
	byKey   map[string]*list.Element // -> *methodEntry inside lru
	lru     *list.List               // front = most recently used
	bytes   int64
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

// OpenMethodCache returns a method-tree cache persisting under dir (created
// if missing; "" keeps entries in memory only) holding at most capBytes of
// serialized trees in memory (<= 0 selects DefaultMethodCacheBytes).
func OpenMethodCache(dir string, capBytes int64) (*MethodCache, error) {
	if capBytes <= 0 {
		capBytes = DefaultMethodCacheBytes
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: method cache: %w", err)
		}
	}
	return &MethodCache{
		dir:      dir,
		capBytes: capBytes,
		byKey:    make(map[string]*list.Element),
		lru:      list.New(),
	}, nil
}

// Hits counts lookups served from memory or disk; Misses counts lookups
// that found nothing; Evicted counts LRU evictions (the disk tier keeps
// evicted entries).
func (c *MethodCache) Hits() int64    { return c.hits.Load() }
func (c *MethodCache) Misses() int64  { return c.misses.Load() }
func (c *MethodCache) Evicted() int64 { return c.evicted.Load() }

// Len returns the number of method trees resident in memory.
func (c *MethodCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the serialized size of the resident method trees.
func (c *MethodCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Get returns the serialized tree stored under key, consulting memory then
// disk. A disk hit is promoted into the LRU. Callers must not mutate the
// returned bytes.
func (c *MethodCache) Get(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		data := el.Value.(*methodEntry).data
		c.mu.Unlock()
		c.hits.Add(1)
		return data, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if data, err := os.ReadFile(c.treePath(key)); err == nil && len(data) > 0 {
			c.mu.Lock()
			if el, ok := c.byKey[key]; ok {
				// A Put landed while the file was read; its bytes win.
				c.lru.MoveToFront(el)
				data = el.Value.(*methodEntry).data
			} else {
				c.insertLocked(key, data)
			}
			c.mu.Unlock()
			c.hits.Add(1)
			return data, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores a serialized tree under key, persisting it to the disk tier
// before publishing it in memory. Entries are value-addressed, so storing
// under an existing key normally rewrites equal bytes; when they differ —
// the resident entry was promoted from a damaged or foreign file the
// caller could not decode — the new bytes replace it, so one store-back
// repairs the key in both tiers.
func (c *MethodCache) Put(key string, data []byte) error {
	if !ValidKey(key) {
		return ErrBadKey
	}
	if len(data) == 0 {
		return fmt.Errorf("store: refusing to cache an empty method tree")
	}
	if c.dir != "" {
		path := c.treePath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("store: method cache: %w", err)
		}
		if err := atomicWrite(path, data); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.insertLocked(key, data)
	c.mu.Unlock()
	return nil
}

// insertLocked publishes data under key, evicting cold entries past the
// byte budget. Evicted entries stay on disk for future promotion.
func (c *MethodCache) insertLocked(key string, data []byte) {
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*methodEntry)
		if !bytes.Equal(e.data, data) {
			c.bytes += int64(len(data)) - int64(len(e.data))
			el.Value = &methodEntry{key: key, data: data}
			c.evictLocked()
		}
		return
	}
	c.byKey[key] = c.lru.PushFront(&methodEntry{key: key, data: data})
	c.bytes += int64(len(data))
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the resident bytes
// fit the budget, always keeping the most recent one.
func (c *MethodCache) evictLocked() {
	for c.bytes > c.capBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		old := c.lru.Remove(back).(*methodEntry)
		delete(c.byKey, old.key)
		c.bytes -= int64(len(old.data))
		c.evicted.Add(1)
	}
}

// treePath maps a key into the two-level on-disk fan-out
// (<dir>/<key[:2]>/<key>.rec).
func (c *MethodCache) treePath(key string) string {
	return filepath.Join(c.dir, key[:2], key+".rec")
}
