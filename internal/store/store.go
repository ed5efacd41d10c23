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
// of an unbounded on-disk layout (two-level fan-out directories, atomic
// write-then-rename persistence of the revealed APK and its
// pipeline.AppMetrics/obs snapshot and a SHA-256 of the APK, checked on
// load). The same memory tier (lru.go), bounded by a per-entry cost, also
// fronts the MethodCache: one artifact costs 1, one method tree its size
// in bytes. The store does not deduplicate concurrent reveals of one key:
// the server's admission lease already keeps each key to one queued or
// running job.
package store

import (
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

// Store is a two-tier content-addressed artifact cache: the memory tier
// holds at most its capacity of decoded artifacts, whatever their size.
// Hits counts lookups served from memory or disk, Misses counts reveals
// actually run (Get alone never counts one), and Evicted counts artifacts
// dropped from memory (the disk tier keeps them). All methods are safe for
// concurrent use.
type Store struct {
	lru[*Artifact]
	dir     string // "" = memory-only
	corrupt atomic.Int64
	damaged sync.Map // keys counted in corrupt, until persist repairs them
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
		lru: newLRU(int64(capEntries), func(*Artifact) int64 { return 1 }),
		dir: dir,
	}, nil
}

// Corrupt counts disk entries rejected as damaged: both files present, but
// the metadata does not parse, names another key, or carries no or a wrong
// digest of the APK. Each rejection is also a miss, so the reveal
// re-creates the entry. A damaged entry counts once however often it is
// read; once repaired, a later fault counts again.
func (s *Store) Corrupt() int64 { return s.corrupt.Load() }

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

// loadDisk reads one persisted artifact; nil is a miss, never an error:
// the reveal re-creates the entry. A file that cannot be read, as when
// absent, is a clean miss (a crash between persist's two writes leaves the
// APK without its metadata); an entry whose files both read but fail the
// checks is counted in Corrupt.
func (s *Store) loadDisk(key string) *Artifact {
	if s.dir == "" {
		return nil
	}
	revealed, err := os.ReadFile(s.apkPath(key))
	if err != nil {
		return nil
	}
	meta, err := os.ReadFile(s.metaPath(key))
	if err != nil {
		return nil
	}
	art := &Artifact{Revealed: revealed}
	m := diskMeta{Artifact: art}
	if err := json.Unmarshal(meta, &m); err != nil || art.Key != key ||
		m.SHA256 != revealedDigest(revealed) {
		if _, seen := s.damaged.LoadOrStore(key, struct{}{}); !seen {
			s.corrupt.Add(1)
		}
		return nil
	}
	return art
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
	if err := atomicWrite(s.metaPath(art.Key), meta); err != nil {
		return err
	}
	s.damaged.Delete(art.Key)
	return nil
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
