package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
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

// MethodCache is the per-method collection-tree cache: a byte-bounded
// in-memory LRU in front of an optional on-disk tier with the same
// two-level fan-out and atomic persistence as the artifact store. Hits
// counts lookups served from memory or disk, Misses counts lookups that
// found nothing, and Evicted counts trees dropped from memory (the disk
// tier keeps them). All methods are safe for concurrent use.
type MethodCache struct {
	lru[[]byte]
	dir string // "" = memory-only
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
		lru: newLRU(capBytes, func(data []byte) int64 { return int64(len(data)) }),
		dir: dir,
	}, nil
}

// Bytes returns the serialized size of the resident method trees.
func (c *MethodCache) Bytes() int64 { return c.resident() }

// Get returns the serialized tree stored under key, consulting memory then
// disk. A disk hit is promoted into the LRU unless a Put landed while the
// file was read; that Put's bytes win. Callers must not mutate the
// returned bytes.
func (c *MethodCache) Get(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	if data, ok := c.get(key); ok {
		return data, true
	}
	if c.dir != "" {
		if data, err := os.ReadFile(c.treePath(key)); err == nil && len(data) > 0 {
			c.hits.Add(1)
			return c.put(key, data, true), true
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
	c.put(key, data, false)
	return nil
}

// treePath maps a key into the two-level on-disk fan-out
// (<dir>/<key[:2]>/<key>.rec).
func (c *MethodCache) treePath(key string) string {
	return filepath.Join(c.dir, key[:2], key+".rec")
}
