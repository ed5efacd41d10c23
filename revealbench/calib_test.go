package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestCalibProbe(t *testing.T) {
	if os.Getenv("CALIB") == "" {
		t.Skip()
	}
	runtime.GOMAXPROCS(1)
	inst, err := setupOneshot(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := inst.(*oneshot)
	newProber()
	st := &probeState
	f, _ := os.Create(os.Getenv("CALIB"))
	defer f.Close()
	big := make([]byte, 256<<10)
	t00 := time.Now()
	end := t00.Add(90 * time.Second)
	var pos uint32
	sink := 0
	for time.Now().Before(end) {
		t0 := time.Now()
		for j := 0; j < len(o.apps); j++ {
			o.op(0)
		}
		pass := time.Since(t0)
		var c [5]time.Duration
		t1 := time.Now()
		for i := 0; i < 4000; i++ {
			pos = st.chase[pos]
		}
		c[0] = time.Since(t1)
		t1 = time.Now()
		for i := 0; i < 2000; i++ {
			sink += st.index[st.keys[(int(pos)+i*7)%probeKeys]]
		}
		c[1] = time.Since(t1)
		t1 = time.Now()
		for i := 0; i < 4; i++ {
			s := sha256.Sum256(big)
			sink += int(s[0])
		}
		c[2] = time.Since(t1)
		t1 = time.Now()
		m := map[int][]byte{}
		for k := 0; k < 5000; k++ {
			m[k] = make([]byte, 32)
		}
		c[3] = time.Since(t1)
		t1 = time.Now()
		x := 1
		for k := 0; k < 200000; k++ {
			x = x*31 + k ^ (x >> 3)
		}
		sink += x
		c[4] = time.Since(t1)
		fmt.Fprintf(f, "%d %d %d %d %d %d %d\n", time.Since(t00).Milliseconds(), pass.Microseconds(), c[0].Microseconds(), c[1].Microseconds(), c[2].Microseconds(), c[3].Microseconds(), c[4].Microseconds())
	}
	_ = sink
}
