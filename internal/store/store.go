// Package store is the content-addressed artifact cache of the reveal
// service. The paper positions DexLego as a front-end producing revealed
// APKs for downstream static analyzers, so the valuable unit is the
// reveal artifact: produced once, read many times. A Store addresses each
// artifact by a SHA-256 key derived from the input APK's canonical content
// hash and the canonical Options fingerprint (see KeyFor), which is sound
// because a reveal is deterministic for a fixed (APK, Options) pair —
// DESIGN.md maps this assumption back to the paper.
//
// The store is two tiers: a bounded in-memory LRU of decoded artifacts in
// front of an unbounded on-disk layout (two-level fan-out directories,
// atomic write-then-rename persistence of the revealed APK and its
// pipeline.AppMetrics/obs snapshot and a SHA-256 of the APK, checked on
// load). The store does not deduplicate concurrent reveals of one key: the
// server's admission lease already keeps each key to one queued or running
// job.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dexlego/internal/pipeline"
)

// DefaultCacheEntries bounds the in-memory LRU when Open is given no
// explicit capacity.
const DefaultCacheEntries = 128

// keyHexLen is the length of a valid hex-encoded cache key.
const keyHexLen = sha256.Size * 2

// ErrBadKey rejects keys that are not 64 lowercase hex characters; the
// check is what makes keys safe to splice into filesystem paths.
var ErrBadKey = errors.New("store: cache key is not a sha-256 hex string")

// KeyFor derives the content address of a reveal artifact from the input
// APK's canonical content hash (apk.(*APK).ContentHash) and the canonical
// options fingerprint (dexlego.Options.Fingerprint).
func KeyFor(apkHash [32]byte, optionsFingerprint string) string {
	h := sha256.New()
	h.Write([]byte("artifact/v1|"))
	h.Write(apkHash[:])
	h.Write([]byte{'|'})
	h.Write([]byte(optionsFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether key has the shape KeyFor produces.
func ValidKey(key string) bool {
	if len(key) != keyHexLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Artifact is one cached reveal outcome. Artifacts are immutable once
// stored: readers may hold one across LRU evictions without coordination.
type Artifact struct {
	// Key is the content address the artifact is stored under.
	Key string `json:"key"`
	// Name labels the input (a sample name, file path, or content-derived
	// default) for reports.
	Name string `json:"name"`
	// Revealed is the revealed APK (classes.dex replaced by the
	// reassembled DEX), serialized by apk.(*APK).Bytes.
	Revealed []byte `json:"-"`
	// Metrics is the reveal's per-stage metrics including its obs
	// snapshot, persisted alongside the artifact.
	Metrics *pipeline.AppMetrics `json:"metrics"`
}

// Store is a two-tier content-addressed artifact cache. All methods are
// safe for concurrent use.
type Store struct {
	dir string // "" = memory-only
	cap int

	mu      sync.Mutex
	byKey   map[string]*list.Element // -> *Artifact inside lru
	lru     *list.List               // front = most recently used
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

// Open returns a store persisting under dir (created if missing; "" keeps
// artifacts in memory only) with an LRU of capEntries decoded artifacts
// (<= 0 selects DefaultCacheEntries).
func Open(dir string, capEntries int) (*Store, error) {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{
		dir:   dir,
		cap:   capEntries,
		byKey: make(map[string]*list.Element),
		lru:   list.New(),
	}, nil
}

// Hits counts lookups served without running a reveal (memory or disk);
// Misses counts reveals actually run; Evicted counts LRU evictions (the
// disk tier keeps evicted artifacts).
func (s *Store) Hits() int64    { return s.hits.Load() }
func (s *Store) Misses() int64  { return s.misses.Load() }
func (s *Store) Evicted() int64 { return s.evicted.Load() }

// Len returns the number of artifacts resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Get returns the artifact stored under key, consulting memory then disk,
// without ever running a reveal. A disk hit is promoted into the LRU.
func (s *Store) Get(key string) (*Artifact, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		art := el.Value.(*Artifact) // read under mu: insertLocked rewrites Value
		s.mu.Unlock()
		s.hits.Add(1)
		return art, true
	}
	s.mu.Unlock()
	art, err := s.loadDisk(key)
	if err != nil || art == nil {
		return nil, false
	}
	s.mu.Lock()
	s.insertLocked(key, art)
	s.mu.Unlock()
	s.hits.Add(1)
	return art, true
}

// GetOrReveal returns the artifact for key: from memory, then disk, and
// only then by running reveal, persisting the fresh artifact before
// publishing it. The bool reports whether the caller was served from the
// store rather than by running reveal. A failed reveal caches nothing: the
// next request retries. GetOrReveal does not deduplicate concurrent callers
// of one key; the server's admission lease keeps each key to one queued or
// running job.
func (s *Store) GetOrReveal(key string, reveal func() (*Artifact, error)) (*Artifact, bool, error) {
	if !ValidKey(key) {
		return nil, false, ErrBadKey
	}
	if art, ok := s.Get(key); ok {
		return art, true, nil
	}
	art, err := reveal()
	if err != nil {
		return nil, false, err
	}
	if art == nil || len(art.Revealed) == 0 {
		return nil, false, errors.New("store: reveal produced an empty artifact")
	}
	art.Key = key
	if err := s.persist(art); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	s.insertLocked(key, art)
	s.mu.Unlock()
	s.misses.Add(1)
	return art, false, nil
}

// insertLocked publishes art under key in the LRU, evicting from the cold
// end past capacity. Evicted artifacts stay valid for readers holding them
// (they are immutable) and stay on disk for future promotion.
func (s *Store) insertLocked(key string, art *Artifact) {
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		el.Value = art
		return
	}
	s.byKey[key] = s.lru.PushFront(art)
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		old := s.lru.Remove(back).(*Artifact)
		delete(s.byKey, old.Key)
		s.evicted.Add(1)
	}
}

// apkPath/metaPath map a key into the two-level on-disk fan-out
// (<dir>/<key[:2]>/<key>.{apk,json}), keeping directories small at
// corpus scale.
func (s *Store) apkPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+".apk")
}

func (s *Store) metaPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// diskMeta is an artifact's on-disk metadata: the artifact's own fields
// plus the SHA-256 of its revealed bytes, which loadDisk checks before it
// serves the bytes.
type diskMeta struct {
	*Artifact
	SHA256 string `json:"sha256"`
}

func revealedDigest(revealed []byte) string {
	sum := sha256.Sum256(revealed)
	return hex.EncodeToString(sum[:])
}

// loadDisk reads one persisted artifact; (nil, nil) is a clean miss. A
// torn or corrupt entry, including one whose revealed bytes do not match
// the digest in its metadata or whose metadata has no digest, is a miss,
// never an error: the reveal re-creates it.
func (s *Store) loadDisk(key string) (*Artifact, error) {
	if s.dir == "" {
		return nil, nil
	}
	revealed, err := os.ReadFile(s.apkPath(key))
	if err != nil {
		return nil, nil
	}
	meta, err := os.ReadFile(s.metaPath(key))
	if err != nil {
		return nil, nil
	}
	art := &Artifact{Revealed: revealed}
	m := diskMeta{Artifact: art}
	if err := json.Unmarshal(meta, &m); err != nil || art.Key != key ||
		m.SHA256 != revealedDigest(revealed) {
		return nil, nil
	}
	return art, nil
}

// persist writes the artifact with write-then-rename atomicity: a crash
// mid-write leaves a *.tmp* file, never a half-visible artifact. The
// metadata lands last, so an artifact is visible only once complete.
func (s *Store) persist(art *Artifact) error {
	if s.dir == "" {
		return nil
	}
	dir := filepath.Dir(s.apkPath(art.Key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(s.apkPath(art.Key), art.Revealed); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(diskMeta{art, revealedDigest(art.Revealed)}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode metadata: %w", err)
	}
	return atomicWrite(s.metaPath(art.Key), meta)
}

// atomicWrite writes data to a temp file in path's directory and renames
// it into place.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	return nil
}
