package apk

import "testing"

// FuzzAPK feeds arbitrary bytes to Read: reading must never panic, and any
// package Read accepts must serialize with Bytes to an archive that reads
// back to the same ContentHash. The artifact store keys reveals by that
// hash, so an accepted upload that changed identity on a round trip would
// be cached under a name it no longer has.
func FuzzAPK(f *testing.F) {
	a := New("com.fuzz", "1.0", "Lcom/fuzz/Main;")
	a.SetDex([]byte{0x64, 0x65, 0x78, 0x0a})
	a.AddAsset("payload.bin", []byte{1, 2, 3})
	a.AddNativeLib("libshell.so", []byte("elf"))
	valid, err := a.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:12]) // local file header cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(data)
		if err != nil {
			return
		}
		out, err := got.Bytes()
		if err != nil {
			t.Fatalf("Bytes of an accepted package: %v", err)
		}
		again, err := Read(out)
		if err != nil {
			t.Fatalf("re-read of serialized package: %v", err)
		}
		if again.ContentHash() != got.ContentHash() {
			t.Fatalf("ContentHash changed across Bytes/Read: manifest %+v -> %+v",
				got.Manifest, again.Manifest)
		}
	})
}
