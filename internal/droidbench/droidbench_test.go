package droidbench_test

import (
	"errors"
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/taint"

	root "dexlego"
)

func TestSuiteComposition(t *testing.T) {
	total, malware := droidbench.Counts()
	if total != 134 {
		t.Errorf("suite size = %d, want 134", total)
	}
	if malware != 111 {
		t.Errorf("malware count = %d, want 111", malware)
	}
	contributed := 0
	names := map[string]bool{}
	for _, s := range droidbench.Suite() {
		if names[s.Name] {
			t.Errorf("duplicate sample name %s", s.Name)
		}
		names[s.Name] = true
		if s.Contributed {
			contributed++
		}
		if s.Leaky && s.LeakCount == 0 {
			t.Errorf("%s: leaky sample with zero leak count", s.Name)
		}
	}
	if contributed != 15 {
		t.Errorf("contributed samples = %d, want 15", contributed)
	}
	for _, name := range []string{
		"Button1", "Button3", "EmulatorDetection1", "ImplicitFlow1", "PrivateDataLeak3",
	} {
		if droidbench.ByName(name) == nil {
			t.Errorf("Table IV sample %s missing", name)
		}
	}
	if droidbench.ByName("NoSuchSample") != nil {
		t.Error("ByName returned a ghost")
	}
}

// TestAllSamplesBuildAndRun executes every sample end to end under the
// default DexLego driver: build, load, drive, and ensure the runtime
// finishes without infrastructure errors.
func TestAllSamplesBuildAndRun(t *testing.T) {
	for _, s := range droidbench.Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rt := art.NewRuntime(art.DefaultPhone())
			s.InstallNatives(rt)
			if err := rt.LoadAPK(pkg); err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := root.DefaultDriver(rt); err != nil {
				var thrown *art.ThrownError
				if errors.As(err, &thrown) {
					t.Fatalf("app threw: %v", err)
				}
				t.Fatalf("drive: %v", err)
			}
			// Ground-truth sanity: leaky samples that advertise dynamic
			// observability must produce a tainted sink event (except the
			// categories whose leaks are invisible to dynamic taint:
			// implicit flows, the tablet gate, severed round trips and
			// native-internal leaks are checked separately).
			switch s.Category {
			case "direct", "interproc", "field", "staticfield", "loop",
				"array", "builder", "callback", "switch", "catch",
				"lifecycle", "branching", "widget", "reflection-call",
				"reflection-field", "adv-reflection", "dynamic-loading":
				leaky := false
				for _, ev := range rt.Sinks() {
					if ev.Leaky() {
						leaky = true
					}
				}
				if !leaky {
					t.Errorf("no tainted sink event observed at runtime")
				}
			case "clean", "aliasing", "widget-confusion", "rare-lifecycle",
				"implicit-noise", "unreachable", "dead-callback":
				for _, ev := range rt.Sinks() {
					if ev.Leaky() {
						t.Errorf("benign sample produced tainted sink: %+v", ev)
					}
				}
			}
		})
	}
}

// TestRevealAllSamples runs the full DexLego pipeline on every sample and
// checks the revealed DEX parses and reloads.
func TestRevealAllSamples(t *testing.T) {
	for _, s := range droidbench.Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := root.Reveal(pkg, root.Options{Natives: s.Natives()})
			if err != nil {
				t.Fatalf("reveal: %v", err)
			}
			if res.RevealedDex == nil || len(res.RevealedDex.Classes) == 0 {
				t.Fatal("empty revealed dex")
			}
			rt := art.NewRuntime(art.DefaultPhone())
			s.InstallNatives(rt)
			if err := rt.LoadAPK(res.Revealed); err != nil {
				t.Fatalf("revealed apk does not reload: %v", err)
			}
		})
	}
}

// TestSpotVerdicts checks a few hand-picked samples against the expected
// per-tool verdicts on the ORIGINAL APK.
func TestSpotVerdicts(t *testing.T) {
	cases := []struct {
		name       string
		fd, ds, hd bool
	}{
		{"DirectLeak1", true, true, true},
		{"ImplicitFlow1", false, false, true},
		{"Widget1", false, true, true},
		{"Reflection1", false, true, true},
		{"Reflection5", false, false, true},
		{"AdvReflection1", false, false, false},
		{"DexLoading1", false, false, false},
		{"SelfModifying1", false, false, false},
		{"TabletReflection1", false, false, false},
		{"Clean1", false, false, false},
		{"Aliasing1", true, true, false},
		{"WidgetConfusion1", false, true, false},
		{"LowMemory1", true, false, false},
		{"ImplicitNoise1", false, false, true},
		{"UnreachableFlow1", true, true, true},
		{"DeadCallback1", true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := droidbench.ByName(tc.name)
			if s == nil {
				t.Fatal("sample missing")
			}
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			data, err := pkg.Dex()
			if err != nil {
				t.Fatal(err)
			}
			f, err := dex.Read(data)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{
				"FlowDroid": tc.fd, "DroidSafe": tc.ds, "HornDroid": tc.hd,
			}
			for _, p := range taint.Profiles() {
				res, err := taint.Analyze([]*dex.File{f}, p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Leaky() != want[p.Name] {
					t.Errorf("%s on original = %v, want %v (flows: %v)",
						p.Name, res.Leaky(), want[p.Name], res.Flows)
				}
			}
		})
	}
}

// TestForceExecutionFalsePositiveTradeoff demonstrates the limitation the
// paper states in Section VII: the coverage improvement module "may
// introduce additional false positives on the unreachable code paths caused
// by unrealistic input". Revealing UnreachableFlow1 with the default driver
// drops its dead-branch flow (removing the static FP); revealing it under
// force execution collects the forced dead branch and the FP returns.
func TestForceExecutionFalsePositiveTradeoff(t *testing.T) {
	s := droidbench.ByName("UnreachableFlow1")
	if s == nil || s.Leaky {
		t.Fatal("UnreachableFlow1 must exist and be benign")
	}
	pkg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := root.Reveal(pkg, root.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := root.Reveal(pkg, root.Options{ForceExecution: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range taint.Profiles() {
		rPlain, err := taint.Analyze([]*dex.File{plain.RevealedDex}, tool)
		if err != nil {
			t.Fatal(err)
		}
		rForced, err := taint.Analyze([]*dex.File{forced.RevealedDex}, tool)
		if err != nil {
			t.Fatal(err)
		}
		if rPlain.Leaky() {
			t.Errorf("%s: plain reveal kept the dead-code FP", tool.Name)
		}
		if !rForced.Leaky() {
			t.Errorf("%s: force-executed reveal should reintroduce the FP (the paper's coverage/precision trade-off)", tool.Name)
		}
	}
}
