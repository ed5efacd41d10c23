package server

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"

	dexlego "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// stubReveals configures a server whose reveals are stubs counted in n.
func stubReveals(n *atomic.Int64) func(*Config) {
	return func(c *Config) {
		c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
			n.Add(1)
			return stubResult(pkg.Manifest.Package), nil
		}
	}
}

// indexed reports how many body digests the server holds.
func indexed(srv *Server) int {
	srv.bodies.mu.Lock()
	defer srv.bodies.mu.Unlock()
	return len(srv.bodies.m)
}

// storedZip re-encodes an APK archive with every entry stored, not
// deflated: other bytes, the same APK.
func storedZip(t *testing.T, body []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		w, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: zip.Store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRepeatBodyHitsByDigest: a repeat upload is resolved from its body
// digest and served as the same store hit, under the key, job name and
// trace identity its first submission got.
func TestRepeatBodyHitsByDigest(t *testing.T) {
	var reveals atomic.Int64
	srv, hs := newTestServer(t, stubReveals(&reveals))
	body := buildBodyAPK(t, "repeat")
	resp, first := postReveal(t, hs.URL, "?wait=1", body)
	if resp.StatusCode != http.StatusOK || first.State != StateDone || first.CacheHit {
		t.Fatalf("first POST = %d %+v, want a done miss", resp.StatusCode, first)
	}
	if n := indexed(srv); n != 1 {
		t.Fatalf("index holds %d digests after one upload, want 1", n)
	}
	resp, second := postReveal(t, hs.URL, "?wait=1", body)
	if resp.StatusCode != http.StatusOK || second.State != StateDone || !second.CacheHit {
		t.Fatalf("repeat POST = %d %+v, want a done hit", resp.StatusCode, second)
	}
	if second.Key != first.Key || second.Name != first.Name || second.Trace != first.Trace {
		t.Errorf("repeat = (%s, %s, %s), first = (%s, %s, %s)",
			second.Key, second.Name, second.Trace, first.Key, first.Name, first.Trace)
	}
	pkg, err := apk.Read(body)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ParseOptions(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if want := store.KeyFor(pkg.ContentHash(), opts.Fingerprint()); first.Key != want {
		t.Errorf("key %s, want the content-hash key %s", first.Key, want)
	}
	if want := nameFor(pkg.ContentHash()); first.Name != want {
		t.Errorf("name %s, want %s", first.Name, want)
	}
	if n := reveals.Load(); n != 1 {
		t.Errorf("reveals = %d, want 1", n)
	}
	// Options still split the key: the same body forced is another key.
	resp, forced := postReveal(t, hs.URL, "?force=1&wait=1", body)
	if resp.StatusCode != http.StatusOK || forced.CacheHit || forced.Key == first.Key {
		t.Errorf("forced repeat = %d %+v, want a miss under another key", resp.StatusCode, forced)
	}
}

// TestReencodedAPKSameKey: the same APK zipped with stored entries has
// other bytes, so another digest, but the same content hash: it is the
// same key and a store hit.
func TestReencodedAPKSameKey(t *testing.T) {
	var reveals atomic.Int64
	srv, hs := newTestServer(t, stubReveals(&reveals))
	body := buildBodyAPK(t, "rezipped")
	stored := storedZip(t, body)
	if bytes.Equal(body, stored) {
		t.Fatal("the stored re-encoding equals the deflated body")
	}
	_, first := postReveal(t, hs.URL, "?wait=1", body)
	resp, second := postReveal(t, hs.URL, "?wait=1", stored)
	if resp.StatusCode != http.StatusOK || !second.CacheHit || second.Key != first.Key {
		t.Fatalf("re-encoded POST = %d %+v, want a hit on %s", resp.StatusCode, second, first.Key)
	}
	if n := reveals.Load(); n != 1 {
		t.Errorf("reveals = %d, want 1", n)
	}
	if n := indexed(srv); n != 2 {
		t.Errorf("index holds %d digests, want one per encoding", n)
	}
}

// TestNonAPKBodyNeverIndexed: a body that does not parse is refused each
// time and never recorded, so its digest cannot stand for a key.
func TestNonAPKBodyNeverIndexed(t *testing.T) {
	var reveals atomic.Int64
	srv, hs := newTestServer(t, stubReveals(&reveals))
	for i := 0; i < 2; i++ {
		if resp, _ := postReveal(t, hs.URL, "?wait=1", []byte("not an apk")); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("garbage POST %d = %d, want 400", i, resp.StatusCode)
		}
	}
	if n := indexed(srv); n != 0 {
		t.Errorf("index holds %d digests after refused bodies, want 0", n)
	}
}

// TestSampleIgnoresBodyIndex: ?sample= names the input, so a body sent
// beside it neither resolves through the index nor enters it.
func TestSampleIgnoresBodyIndex(t *testing.T) {
	var reveals atomic.Int64
	srv, hs := newTestServer(t, stubReveals(&reveals))
	body := buildBodyAPK(t, "beside")
	_, upload := postReveal(t, hs.URL, "?wait=1", body)
	resp, sample := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", body)
	if resp.StatusCode != http.StatusOK || sample.CacheHit || sample.Name != "SelfModifying1" || sample.Key == upload.Key {
		t.Fatalf("sample POST = %d %+v, want the sample's own miss", resp.StatusCode, sample)
	}
	if n := indexed(srv); n != 1 {
		t.Errorf("index holds %d digests, want only the upload's", n)
	}
}

// TestBodyIndexBounded: more distinct uploads than the bound leave the
// index at or under it.
func TestBodyIndexBounded(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	for i := 0; i < maxBodyDigests+8; i++ {
		pkg := apk.New(fmt.Sprintf("b%d", i), "1.0", "Lb/Main;")
		body, err := pkg.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.resolve(url.Values{}, body); err != nil {
			t.Fatal(err)
		}
		if n := indexed(srv); n > maxBodyDigests {
			t.Fatalf("index holds %d digests after %d uploads, bound %d", n, i+1, maxBodyDigests)
		}
	}
	// The upload just recorded is still known after the clear.
	last := apk.New(fmt.Sprintf("b%d", maxBodyDigests+7), "1.0", "Lb/Main;")
	body, err := last.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.bodies.get(sha256.Sum256(body)); !ok {
		t.Error("the latest upload's digest was lost")
	}
}

// TestDigestHitAfterEvictionParses: a known digest whose artifact the
// store has evicted falls back to parsing and completes a fresh reveal.
func TestDigestHitAfterEvictionParses(t *testing.T) {
	st, err := store.Open("", 1)
	if err != nil {
		t.Fatal(err)
	}
	var reveals atomic.Int64
	_, hs := newTestServer(t, func(c *Config) {
		c.Store = st
		stubReveals(&reveals)(c)
	})
	a, b := buildBodyAPK(t, "evictA"), buildBodyAPK(t, "evictB")
	_, first := postReveal(t, hs.URL, "?wait=1", a)
	postReveal(t, hs.URL, "?wait=1", b) // evicts a's artifact
	resp, again := postReveal(t, hs.URL, "?wait=1", a)
	if resp.StatusCode != http.StatusOK || again.State != StateDone || again.CacheHit || again.RevealedBytes == 0 {
		t.Fatalf("evicted repeat = %d %+v, want a done fresh reveal", resp.StatusCode, again)
	}
	if again.Key != first.Key || again.Name != first.Name {
		t.Errorf("evicted repeat = (%s, %s), first = (%s, %s)", again.Key, again.Name, first.Key, first.Name)
	}
	if n := reveals.Load(); n != 3 {
		t.Errorf("reveals = %d, want 3", n)
	}
}

// TestRepeatHitAllocs bounds a repeat upload's store hit, request and
// recorder included, for a version-chain link like those the served
// benchmark posts. Parsing the body (inflate, manifest parse, content hash)
// takes the hit past the bound, so a hit path that parses again fails it.
func TestRepeatHitAllocs(t *testing.T) {
	var reveals atomic.Int64
	srv, hs := newTestServer(t, stubReveals(&reveals))
	apps, err := workload.VersionChain(workload.ChainConfig{Methods: 24, Links: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := apps[0].APK.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, st := postReveal(t, hs.URL, "?wait=1", body); st.State != StateDone {
		t.Fatalf("first POST = %+v", st)
	}
	h := srv.Handler()
	hit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reveal?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat POST = %d", rec.Code)
		}
	}
	hit()
	n := testing.AllocsPerRun(100, hit)
	t.Logf("a repeat hit allocates %.0f times", n)
	if n > 120 {
		t.Errorf("a repeat hit allocates %.0f times, want at most 120", n)
	}
}
