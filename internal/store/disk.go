package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// disk is the on-disk tier shared by the artifact Store and the
// MethodCache, and the only code in the package that touches the
// filesystem. It files each entry under a two-level fan-out
// (<dir>/<key[:2]>/<key><ext>), which keeps directories small at corpus
// scale, and publishes it by write-then-rename: a crash mid-write leaves a
// *.tmp* file, never a half-visible entry. Every file is a frame, the
// SHA-256 of the payload followed by the payload, and read checks that
// digest, so no damaged byte is ever served: a damaged file is a miss,
// counted once in Corrupt until a write repairs its key. A disk with no
// directory keeps nothing: every read misses, every write succeeds.
type disk struct {
	dir     string // "" = memory-only
	corrupt atomic.Int64
	damaged sync.Map // keys counted in corrupt, until a write repairs them
}

// newDisk returns the disk tier rooted at dir, creating dir if missing.
func newDisk(dir string) (*disk, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &disk{dir: dir}, nil
}

// Corrupt counts keys whose disk entry was rejected as damaged: a file that
// reads but fails its digest, or whose payload its owner rejects. Each
// rejection is also a miss, so the caller re-creates the entry. A damaged
// key counts once however often it is read; once repaired, a later fault
// counts again.
func (d *disk) Corrupt() int64 { return d.corrupt.Load() }

func (d *disk) path(key, ext string) string {
	return filepath.Join(d.dir, key[:2], key+ext)
}

// read returns the payload filed under key and ext. A file that cannot be
// read, as when absent, is a clean miss; one that reads but fails its
// digest is rejected.
func (d *disk) read(key, ext string) ([]byte, bool) {
	if d.dir == "" {
		return nil, false
	}
	frame, err := os.ReadFile(d.path(key, ext))
	if err != nil {
		return nil, false
	}
	if len(frame) < sha256.Size || sha256.Sum256(frame[sha256.Size:]) != [sha256.Size]byte(frame) {
		d.reject(key)
		return nil, false
	}
	return frame[sha256.Size:], true
}

// reject counts key as damaged unless it is already counted.
func (d *disk) reject(key string) {
	if _, seen := d.damaged.LoadOrStore(key, struct{}{}); !seen {
		d.corrupt.Add(1)
	}
}

// write publishes payload under key and ext as one framed file, repairing
// the key.
func (d *disk) write(key, ext string, payload []byte) error {
	if d.dir == "" {
		return nil
	}
	path := d.path(key, ext)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	if _, err = tmp.Write(sum[:]); err == nil {
		_, err = tmp.Write(payload)
	}
	if err = errors.Join(err, tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	d.damaged.Delete(key)
	return nil
}
