// Package cfbench implements the CF-Bench stand-in of the paper's Fig. 6
// and the ActivityManager launch timing of Table VIII. The Java score
// measures bytecode interpretation throughput, the native score measures
// JNI-side work, and the overall score averages the two after normalizing
// their units — the same shape CF-Bench reports. Running the identical
// workloads with and without DexLego's collection hooks yields the
// slowdown ratios.
package cfbench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
)

// Scores are benchmark scores in operations per millisecond (higher is
// better); Overall is the mean of Java and the unit-normalized Native.
type Scores struct {
	Java    float64
	Native  float64
	Overall float64
}

// Comparison pairs the unmodified-runtime scores with the instrumented
// ones.
type Comparison struct {
	Unmodified Scores
	DexLego    Scores
	// java and native are the medians of the per-round paired ratios (see
	// Run); overall follows from them.
	java, native float64
}

// Slowdowns returns the Java, native and overall slowdown factors. Java
// and native are the medians of the per-round instrumented/unmodified time
// ratios, not the ratios of the displayed best scores: each per-round
// ratio compares two calls timed back to back, so a burst of host load
// inflates both sides of it rather than one configuration's best. Overall
// is the ratio of the two configurations' Overall scores at those
// component ratios — their harmonic mean, which lies between them.
func (c Comparison) Slowdowns() (java, native, overall float64) {
	return c.java, c.native, 2 / (1/c.java + 1/c.native)
}

// benchAPK builds the benchmark application: a bytecode spin loop and a
// native spin entry.
func benchAPK() (*apk.APK, error) {
	p := dexgen.New()
	cls := p.Class("Lbench/Work;", "")
	// spin(n): n iterations of mixed 32-bit arithmetic.
	cls.Static("spin", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(0, 0x1234)
		a.Const(1, 0)
		a.Label("loop")
		a.If(0x35 /* if-ge */, 1, a.P(0), "done")
		a.BinopLit8(0x0da /* mul-int/lit8 */, 0, 0, 31)
		a.BinopLit8(0x0d8 /* add-int/lit8 */, 0, 0, 7)
		a.BinopLit8(0x0df /* xor-int/lit8 */, 0, 0, 55)
		a.AddLit(1, 1, 1)
		a.Goto("loop")
		a.Label("done")
		a.Return(0)
	})
	cls.Native("nativeSpin", "I", "I")
	return p.BuildAPK("bench.cf", "1.0", "")
}

func installBenchNatives(rt *art.Runtime) {
	rt.RegisterNative("Lbench/Work;->nativeSpin(I)I",
		func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			n := int(args[0].Int)
			x := uint32(0x9e3779b9)
			for i := 0; i < n; i++ {
				x = x*1664525 + 1013904223
				x ^= x >> 13
			}
			return art.IntVal(int64(int32(x))), nil
		})
}

// Config sizes the benchmark workloads.
type Config struct {
	JavaIters   int // bytecode loop iterations per round
	NativeIters int // native loop iterations per round
	Rounds      int
}

// DefaultConfig returns workload sizes that run in well under a second per
// mode on commodity hardware.
func DefaultConfig() Config {
	return Config{JavaIters: 60_000, NativeIters: 4_000_000, Rounds: 5}
}

// Run executes the CF-Bench pair: the unmodified runtime and one with
// DexLego's JIT collection attached. The two configurations alternate round
// by round, each round alternating which goes first, so a burst of host
// load lands on both rather than on whichever was measuring; each score is
// its configuration's best round, and the slowdowns are medians of the
// per-round paired ratios (Comparison.Slowdowns). Like launch, the rounds
// start on a collected heap and run with the Go collector paused (they
// allocate well under a MiB), so no configuration is timed collecting
// garbage left by set-up or by the other one.
func Run(cfg Config) (Comparison, error) {
	if cfg.Rounds < 1 {
		return Comparison{}, fmt.Errorf("cfbench: rounds must be positive")
	}
	pkg, err := benchAPK()
	if err != nil {
		return Comparison{}, err
	}
	var rts [2]*art.Runtime // unmodified, instrumented
	for c := range rts {
		rt := art.NewRuntime(art.DefaultPhone())
		rt.MaxSteps = 1 << 62
		installBenchNatives(rt)
		if c == 1 {
			rt.AddHooks(collector.New().Hooks())
		}
		if err := rt.LoadAPK(pkg); err != nil {
			return Comparison{}, err
		}
		rts[c] = rt
	}
	var best [2]Scores
	var javaRatios, nativeRatios []float64
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One untimed warm-up pair first: the predecoded-program cache is
	// process-global, so the first configuration to run would otherwise
	// absorb its build cost.
	for r := -1; r < cfg.Rounds; r++ {
		// The two calls of each pair run back to back: java of one
		// configuration, java of the other, then native in reverse order.
		var javaMS, nativeMS [2]float64 // unmodified, instrumented
		for k := 0; k < 2; k++ {
			c := (r + k) & 1
			if javaMS[c], err = timedCall(rts[c], "spin", cfg.JavaIters); err != nil {
				return Comparison{}, err
			}
		}
		for k := 0; k < 2; k++ {
			c := (r + k + 1) & 1
			if nativeMS[c], err = timedCall(rts[c], "nativeSpin", cfg.NativeIters); err != nil {
				return Comparison{}, err
			}
		}
		if r < 0 {
			continue
		}
		for c := range best {
			best[c].Java = max(best[c].Java, float64(cfg.JavaIters)/javaMS[c])
			best[c].Native = max(best[c].Native, float64(cfg.NativeIters)/nativeMS[c])
		}
		javaRatios = append(javaRatios, javaMS[1]/javaMS[0])
		nativeRatios = append(nativeRatios, nativeMS[1]/nativeMS[0])
	}
	base, lego := best[0], best[1]
	// Normalize native units so the unmodified runtime's Java and native
	// scores coincide, then Overall is their mean (CF-Bench style).
	norm := base.Java / base.Native
	base.Native *= norm
	lego.Native *= norm
	base.Overall = (base.Java + base.Native) / 2
	lego.Overall = (lego.Java + lego.Native) / 2
	return Comparison{Unmodified: base, DexLego: lego,
		java: median(javaRatios), native: median(nativeRatios)}, nil
}

// median returns the median of xs, sorting it.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// LaunchSample is a mean/std launch-time measurement. Mean is an
// upper-trimmed mean: the slowest quarter of runs is dropped before
// averaging. Launch times have a hard floor (the interpreter's work) but no
// ceiling — a run that loses the CPU to another process only ever reads
// high — so high outliers are host artifacts, not interpreter
// cost, and a plain mean lets a single preempted run skew the
// instrumented/original ratio by several x. Std still covers all runs, as a
// dispersion report.
type LaunchSample struct {
	Mean time.Duration
	Std  time.Duration
}

// LaunchPair is one application's paired launch-time measurement.
type LaunchPair struct {
	Orig    LaunchSample
	DexLego LaunchSample
	// Slowdown is the median of the per-run DexLego/original ratios. Each
	// ratio compares two launches timed back to back, so a burst of host
	// load inflates both sides of it rather than one side of a ratio of
	// means.
	Slowdown float64
}

// MeasureLaunchPair times LaunchActivity over the given number of runs on a
// fresh runtime per launch (cold start), interleaving the original and the
// DexLego-instrumented configuration run by run.
func MeasureLaunchPair(pkg *apk.APK, runs int) (LaunchPair, error) {
	if runs < 1 {
		return LaunchPair{}, fmt.Errorf("cfbench: runs must be positive")
	}
	var orig, lego, ratios []float64
	// One untimed warm-up pair: the framework template and the shared
	// predecoded-program cache are process-global, so whichever
	// configuration runs first would otherwise absorb their build cost and
	// skew the instrumented/original ratio (it can even drop below 1x).
	for i := -1; i < runs; i++ {
		var d [2]float64 // original, instrumented
		for k := 0; k < 2; k++ {
			// Alternate which configuration launches first.
			c := (i + k) & 1
			t, err := launch(pkg, c == 1)
			if err != nil {
				return LaunchPair{}, err
			}
			d[c] = float64(t)
		}
		if i >= 0 {
			orig = append(orig, d[0])
			lego = append(lego, d[1])
			ratios = append(ratios, d[1]/d[0])
		}
	}
	return LaunchPair{
		Orig:     summarize(orig),
		DexLego:  summarize(lego),
		Slowdown: median(ratios),
	}, nil
}

// launch times one cold LoadAPK + LaunchActivity. The launch starts on a
// collected heap and runs with the Go collector paused: a sub-millisecond
// launch otherwise times whichever GC cycles the heap left by earlier
// launches happens to trigger, and an instrumented launch leaves several
// times the garbage of an original one. That is host pacing, not launch
// work, and it swung paired ratios from under 2x to over 12x under load.
func launch(pkg *apk.APK, withCollector bool) (time.Duration, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := art.NewRuntime(art.DefaultPhone())
	rt.MaxSteps = 1 << 62
	if withCollector {
		col := collector.New()
		rt.AddHooks(col.Hooks())
	}
	start := time.Now()
	if err := rt.LoadAPK(pkg); err != nil {
		return 0, err
	}
	if _, err := rt.LaunchActivity(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// timedCall runs one static bench method with argument n and returns its
// wall time in milliseconds.
func timedCall(rt *art.Runtime, name string, n int) (float64, error) {
	start := time.Now()
	_, err := rt.Call("Lbench/Work;", name, "(I)I", nil, []art.Value{art.IntVal(int64(n))})
	return time.Since(start).Seconds() * 1000, err
}

// summarize reduces launch durations (ns) to a LaunchSample; it sorts them.
func summarize(durations []float64) LaunchSample {
	var sum float64
	for _, d := range durations {
		sum += d
	}
	mean := sum / float64(len(durations))
	var varsum float64
	for _, d := range durations {
		varsum += (d - mean) * (d - mean)
	}
	std := math.Sqrt(varsum / float64(len(durations)))
	sort.Float64s(durations)
	kept := durations[:len(durations)-len(durations)/4]
	sum = 0
	for _, d := range kept {
		sum += d
	}
	return LaunchSample{
		Mean: time.Duration(sum / float64(len(kept))),
		Std:  time.Duration(std),
	}
}
