package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexlego/internal/pipeline"
)

// testKey derives a distinct valid cache key per index.
func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return KeyFor(sum, "opts/v1")
}

// payloadFor derives the artifact bytes every test expects under a key, so
// readers can verify integrity no matter which goroutine revealed it.
func payloadFor(key string) []byte {
	return []byte("revealed-" + key)
}

func artifactFor(key string) *Artifact {
	return &Artifact{
		Name:     "app-" + key[:8],
		Revealed: payloadFor(key),
		Metrics:  &pipeline.AppMetrics{Name: "app-" + key[:8], WallNS: 42},
	}
}

func TestKeyForShapeAndSensitivity(t *testing.T) {
	h1 := sha256.Sum256([]byte("apk-1"))
	h2 := sha256.Sum256([]byte("apk-2"))
	k := KeyFor(h1, "opts/v1|fuzz=false")
	if !ValidKey(k) {
		t.Fatalf("KeyFor produced invalid key %q", k)
	}
	if KeyFor(h1, "opts/v1|fuzz=false") != k {
		t.Error("KeyFor not deterministic")
	}
	if KeyFor(h2, "opts/v1|fuzz=false") == k {
		t.Error("different APK hash, same key")
	}
	if KeyFor(h1, "opts/v1|fuzz=true") == k {
		t.Error("different options fingerprint, same key")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("z", 64),
		strings.Repeat("A", 64), "../" + strings.Repeat("a", 61)} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if _, hit, err := s1.GetOrReveal(key, func() (*Artifact, error) {
		return artifactFor(key), nil
	}); err != nil || hit {
		t.Fatalf("first reveal: hit=%t err=%v", hit, err)
	}
	// A second store over the same directory serves the artifact from disk
	// without revealing.
	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	art, ok := s2.Get(key)
	if !ok {
		t.Fatal("reopened store missed a persisted artifact")
	}
	if string(art.Revealed) != string(payloadFor(key)) {
		t.Errorf("persisted payload corrupted: %q", art.Revealed)
	}
	if art.Metrics == nil || art.Metrics.WallNS != 42 {
		t.Errorf("persisted metrics lost: %+v", art.Metrics)
	}
	if art.Key != key || art.Name != "app-"+key[:8] {
		t.Errorf("persisted identity wrong: %+v", art)
	}
	// GetOrReveal on the reopened store counts a hit, not a reveal.
	if _, hit, err := s2.GetOrReveal(key, func() (*Artifact, error) {
		t.Error("reveal ran despite persisted artifact")
		return nil, nil
	}); err != nil || !hit {
		t.Errorf("disk-backed GetOrReveal: hit=%t err=%v", hit, err)
	}
	// No temp files survive the atomic writes.
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	// Each case damages one persisted entry; a fresh store must treat it as
	// a miss and re-reveal rather than serve garbage. Only an entry whose
	// files are both present counts in Corrupt: a crash between persist's
	// two writes leaves the APK alone, which is a clean miss.
	cases := []struct {
		name     string
		corrupt  func(apkPath, metaPath string) error
		rejected int64 // Corrupt() after one read of the entry
	}{
		{"broken metadata", func(_, metaPath string) error {
			return os.WriteFile(metaPath, []byte("{broken"), 0o644)
		}, 1},
		{"metadata never written", func(_, metaPath string) error {
			return os.Remove(metaPath)
		}, 0},
		{"flipped apk byte", func(apkPath, _ string) error {
			data, err := os.ReadFile(apkPath)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x01
			return os.WriteFile(apkPath, data, 0o644)
		}, 1},
		{"flipped metadata byte", func(_, metaPath string) error {
			data, err := os.ReadFile(metaPath)
			if err != nil {
				return err
			}
			i := strings.Index(string(data), `"name": "app-`)
			if i < 0 {
				return fmt.Errorf("no name field in %q", data)
			}
			data[i+len(`"name": "app-`)] ^= 0x01
			return os.WriteFile(metaPath, data, 0o644)
		}, 1},
		{"metadata without digest", func(_, metaPath string) error {
			// The metadata JSON itself, intact, but not framed by its digest.
			data, err := os.ReadFile(metaPath)
			if err != nil {
				return err
			}
			if !json.Valid(data[sha256.Size:]) {
				return fmt.Errorf("metadata payload is not JSON: %q", data)
			}
			return os.WriteFile(metaPath, data[sha256.Size:], 0o644)
		}, 1},
	}
	for _, c := range cases {
		dir := t.TempDir()
		s, err := Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		key := testKey(2)
		if _, _, err := s.GetOrReveal(key, func() (*Artifact, error) {
			return artifactFor(key), nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.corrupt(filepath.Join(dir, key[:2], key+".apk"), filepath.Join(dir, key[:2], key+".json")); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s2, err := Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s2.Get(testKey(3)); ok || s2.Corrupt() != 0 {
			t.Errorf("%s: clean miss: ok=%t corrupt=%d", c.name, ok, s2.Corrupt())
		}
		if _, ok := s2.Get(key); ok {
			t.Errorf("%s: corrupt entry served as a hit", c.name)
		}
		if s2.Corrupt() != c.rejected {
			t.Errorf("%s: Corrupt() = %d after one read, want %d", c.name, s2.Corrupt(), c.rejected)
		}
		if _, ok := s2.Get(key); ok || s2.Corrupt() != c.rejected {
			t.Errorf("%s: second read: ok=%t Corrupt() = %d, want the entry counted once", c.name, ok, s2.Corrupt())
		}
		revealed := false
		if _, hit, err := s2.GetOrReveal(key, func() (*Artifact, error) {
			revealed = true
			return artifactFor(key), nil
		}); err != nil || hit || !revealed {
			t.Errorf("%s: hit=%t revealed=%t err=%v", c.name, hit, revealed, err)
		}
		// The reveal's store-back repaired the entry.
		s3, err := Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s3.Get(key); !ok || s3.Corrupt() != 0 {
			t.Errorf("%s: repaired entry: ok=%t corrupt=%d", c.name, ok, s3.Corrupt())
		}
	}
}

// TestStoreDamagedFilesAreMisses flips each byte of a persisted
// artifact's APK and metadata in turn, digest and payload alike: a fresh
// store never serves the entry, counts it once however often it is read,
// and the reveal's store-back repairs it.
func TestStoreDamagedFilesAreMisses(t *testing.T) {
	dir := t.TempDir()
	key := testKey(5)
	reveal := func() (*Artifact, error) { return artifactFor(key), nil }
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetOrReveal(key, reveal); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".apk", ".json"} {
		path := filepath.Join(dir, key[:2], key+ext)
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range intact {
			damaged := append([]byte(nil), intact...)
			damaged[i] ^= 0x01
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			for read := 0; read < 2; read++ {
				if _, ok := s.Get(key); ok {
					t.Fatalf("%s byte %d flipped: damaged entry served", ext, i)
				}
			}
			if s.Corrupt() != 1 {
				t.Fatalf("%s byte %d flipped: Corrupt() = %d, want 1", ext, i, s.Corrupt())
			}
			if _, hit, err := s.GetOrReveal(key, reveal); err != nil || hit {
				t.Fatalf("%s byte %d flipped: hit=%t err=%v", ext, i, hit, err)
			}
			fresh, err := Open(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			if art, ok := fresh.Get(key); !ok || string(art.Revealed) != string(payloadFor(key)) || fresh.Corrupt() != 0 {
				t.Fatalf("%s byte %d flipped: repaired entry ok=%t corrupt=%d", ext, i, ok, fresh.Corrupt())
			}
		}
	}
}

func TestFailedRevealCachesNothing(t *testing.T) {
	s, err := Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	boom := fmt.Errorf("driver crashed")
	if _, _, err := s.GetOrReveal(key, func() (*Artifact, error) { return nil, boom }); err != boom {
		t.Fatalf("error not surfaced: %v", err)
	}
	// The next caller retries instead of seeing a cached failure.
	art, hit, err := s.GetOrReveal(key, func() (*Artifact, error) { return artifactFor(key), nil })
	if err != nil || hit || art == nil {
		t.Fatalf("retry after failure: art=%v hit=%t err=%v", art, hit, err)
	}
	if _, _, err := s.GetOrReveal(key, func() (*Artifact, error) {
		return &Artifact{}, nil
	}); err != nil {
		t.Fatal(err) // served from memory; empty-artifact reveal never runs
	}
	if _, _, err := s.GetOrReveal(testKey(4), func() (*Artifact, error) {
		return &Artifact{}, nil
	}); err == nil {
		t.Error("empty artifact must be rejected")
	}
	if _, _, err := s.GetOrReveal("../etc/passwd", nil); err != ErrBadKey {
		t.Errorf("bad key error = %v, want ErrBadKey", err)
	}
}

// TestLRUEvictionNeverCorruptsReaders churns a tiny LRU from many
// goroutines while readers verify every artifact they receive, proving —
// under -race — that eviction never invalidates an artifact mid-read:
// artifacts are immutable, eviction only drops the cache reference.
func TestLRUEvictionNeverCorruptsReaders(t *testing.T) {
	s, err := Open("", 2) // memory-only: eviction is real data loss
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	const readers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := testKey((seed + i) % keys)
				art, _, err := s.GetOrReveal(key, func() (*Artifact, error) {
					return artifactFor(key), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Hold the artifact across other goroutines' evictions and
				// verify it byte-for-byte.
				if string(art.Revealed) != string(payloadFor(key)) {
					t.Errorf("reader observed corrupted artifact for %s", key[:8])
					return
				}
				if art.Metrics == nil || art.Metrics.WallNS != 42 {
					t.Errorf("reader observed corrupted metrics for %s", key[:8])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if n := s.Len(); n > 2 {
		t.Errorf("LRU holds %d entries, cap 2", n)
	}
	if s.Evicted() == 0 {
		t.Error("test never exercised eviction")
	}
}

// TestGetRacingEvictionOfSameKey drives the server's fast-path read (Get,
// no reveal callback) against concurrent GetOrReveal-driven evictions of
// the very key being read: a served hit races the LRU churn that fresh
// reveals cause. The reader must win (a complete, byte-identical artifact,
// possibly re-promoted from disk) or take a clean miss; a torn artifact is
// the one unacceptable outcome.
func TestGetRacingEvictionOfSameKey(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory-only"
		dir := ""
		if disk {
			name = "disk-backed"
			dir = t.TempDir()
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(dir, 1) // cap 1: every insert evicts the previous key
			if err != nil {
				t.Fatal(err)
			}
			reveal := func(key string) {
				t.Helper()
				if _, _, err := s.GetOrReveal(key, func() (*Artifact, error) {
					return artifactFor(key), nil
				}); err != nil {
					t.Error(err)
				}
			}
			hot := testKey(0)
			reveal(hot)
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // churn: alternate the hot key with evictors
				defer wg.Done()
				for i := 1; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					reveal(testKey(i % 8))
				}
			}()
			const readers = 4
			const rounds = 500
			hits := int64(0)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						art, ok := s.Get(hot)
						if !ok {
							continue // clean miss: acceptable, the key was evicted
						}
						atomic.AddInt64(&hits, 1)
						if string(art.Revealed) != string(payloadFor(hot)) {
							t.Errorf("torn artifact: %d bytes", len(art.Revealed))
							return
						}
						if art.Key != hot || art.Metrics == nil || art.Metrics.WallNS != 42 {
							t.Error("torn artifact metadata")
							return
						}
					}
				}()
			}
			// Re-seed the hot key while readers run so both outcomes occur.
			for i := 0; i < 50; i++ {
				reveal(hot)
				time.Sleep(time.Millisecond)
			}
			close(done)
			wg.Wait()
			if disk && atomic.LoadInt64(&hits) == 0 {
				// The disk tier re-promotes evicted artifacts, so a
				// disk-backed store should have served at least one read.
				t.Error("disk-backed store never served the hot key")
			}
			if s.Evicted() == 0 {
				t.Error("test never exercised eviction")
			}
		})
	}
}
