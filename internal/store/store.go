// Package store is the content-addressed artifact cache of the reveal
// service. The paper positions DexLego as a front-end producing revealed
// APKs for downstream static analyzers, so the valuable unit is the
// reveal artifact: produced once, read many times. A Store addresses each
// artifact by a SHA-256 key derived from the input APK's canonical content
// hash and the canonical Options fingerprint (see KeyFor), which is sound
// because a reveal is deterministic for a fixed (APK, Options) pair —
// DESIGN.md maps this assumption back to the paper.
//
// The store is two tiers: one in-memory LRU of decoded artifacts in front
// of an unbounded disk tier holding the revealed APK and its
// pipeline.AppMetrics/obs snapshot as two files. The MethodCache is built
// from the same two tiers: the memory tier (lru.go), bounded by a
// per-entry cost (one artifact costs 1, one method tree its size in
// bytes), and the disk tier (disk.go), which owns the fan-out layout, the
// write-then-rename publication and the SHA-256 frame every file is
// checked against on load. The store does not deduplicate concurrent
// reveals of one key: the server's admission lease already keeps each key
// to one queued or running job.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

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
	h.Write([]byte("artifact/v2|"))
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
	for _, c := range []byte(key) {
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

// Store is a two-tier content-addressed artifact cache: the memory tier
// holds at most its capacity of decoded artifacts, whatever their size.
// Hits counts lookups served from memory or disk, Misses counts reveals
// actually run (Get alone never counts one), Evicted counts artifacts
// dropped from memory (the disk tier keeps them), and Corrupt counts keys
// whose disk entry was rejected as damaged. All methods are safe for
// concurrent use.
type Store struct {
	lru[*Artifact]
	*disk
}

// Open returns a store persisting under dir (created if missing; "" keeps
// artifacts in memory only) with an LRU of capEntries decoded artifacts
// (<= 0 selects DefaultCacheEntries).
func Open(dir string, capEntries int) (*Store, error) {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	d, err := newDisk(dir)
	if err != nil {
		return nil, err
	}
	return &Store{
		lru:  newLRU(int64(capEntries), func(*Artifact) int64 { return 1 }),
		disk: d,
	}, nil
}

// Get returns the artifact stored under key, consulting memory then disk,
// without ever running a reveal. A disk hit is promoted into the LRU.
func (s *Store) Get(key string) (*Artifact, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	if art, ok := s.get(key); ok {
		return art, true
	}
	art := s.loadDisk(key)
	if art == nil {
		return nil, false
	}
	s.hits.Add(1)
	return s.put(key, art, true), true
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
	s.put(key, art, false)
	s.misses.Add(1)
	return art, false, nil
}

// loadDisk reads one persisted artifact; nil is a miss, never an error:
// the reveal re-creates the entry. The metadata is read first, so an APK
// without it (a crash between persist's two writes) is a clean miss; a
// metadata file that passes its digest but does not parse or names another
// key is counted in Corrupt.
func (s *Store) loadDisk(key string) *Artifact {
	meta, ok := s.read(key, ".json")
	if !ok {
		return nil
	}
	revealed, ok := s.read(key, ".apk")
	if !ok {
		return nil
	}
	art := &Artifact{Revealed: revealed}
	if err := json.Unmarshal(meta, art); err != nil || art.Key != key {
		s.reject(key)
		return nil
	}
	return art
}

// persist writes the APK, then its metadata, so an artifact is visible
// only once complete.
func (s *Store) persist(art *Artifact) error {
	if s.dir == "" {
		return nil
	}
	meta, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode metadata: %w", err)
	}
	if err := s.write(art.Key, ".apk", art.Revealed); err != nil {
		return err
	}
	return s.write(art.Key, ".json", meta)
}
