// OpenMetrics exposition: a typed metric registry rendered in the
// OpenMetrics/Prometheus text format, plus a strict parser of that format
// used by tests and the CI service-smoke scrape as a lint.
//
// The registry reuses the lock-free primitives of this package (Counter,
// Gauge, Histogram) as its sample backing, so instrumented hot paths pay
// the same few-nanosecond cost whether a sample is scraped or not. Lazy
// variants (CounterFunc, GaugeFunc, HistogramFunc) read a value at scrape
// time, which lets the server expose counters it already maintains as
// atomics without double accounting.
//
// Durations are exposed in nanoseconds (metric names carry the
// _nanoseconds suffix) because the underlying histograms bucket raw int64
// observations; rendering converts nothing, so a scraped value is exactly
// the recorded one.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType is the OpenMetrics type of a metric family.
type MetricType uint8

// The supported metric types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return fmt.Sprintf("metrictype(%d)", uint8(t))
}

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricNameRE validates metric and label names (the OpenMetrics subset we
// emit; no colons, which are reserved for recording rules).
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// series is one labeled sample stream inside a family. Exactly one of the
// value fields is set, matching the family's type.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	intFn   func() int64
	histFn  func() HistSnapshot
}

// family is one named metric family: a type, help text, and its series in
// registration order.
type family struct {
	name   string
	help   string
	typ    MetricType
	series []*series
	byKey  map[string]*series
}

// Registry is a typed metric registry rendered as one OpenMetrics
// exposition. Registration panics on malformed names or type conflicts —
// metrics are wired at construction time, so a bad registration is a
// programming error, not an operational condition. Registered Counter,
// Gauge and Histogram handles are lock-free and safe for concurrent use;
// WriteOpenMetrics may run concurrently with observation.
type Registry struct {
	prefix string

	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry whose metric names are prefixed
// with prefix + "_" (e.g. "dexlego").
func NewRegistry(prefix string) *Registry {
	if prefix != "" && !metricNameRE.MatchString(prefix) {
		panic(fmt.Sprintf("obs: bad metric prefix %q", prefix))
	}
	return &Registry{prefix: prefix, byName: make(map[string]*family)}
}

// register resolves (or creates) the family and appends one series.
func (r *Registry) register(name, help string, typ MetricType, labels []Label, s *series) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: bad metric name %q", name))
	}
	full := name
	if r.prefix != "" {
		full = r.prefix + "_" + name
	}
	for _, l := range labels {
		if !metricNameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: metric %s: bad label name %q", full, l.Key))
		}
	}
	s.labels = labels
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[full]
	if !ok {
		f = &family{name: full, help: help, typ: typ, byKey: make(map[string]*series)}
		r.byName[full] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", full, f.typ, typ))
	}
	if _, dup := f.byKey[key]; dup {
		panic(fmt.Sprintf("obs: metric %s%s registered twice", full, key))
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
}

// Counter registers a counter series and returns its lock-free handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, TypeCounter, labels, &series{counter: c})
	return c
}

// CounterFunc registers a counter series whose value is read at scrape
// time; fn must be monotonically non-decreasing and safe for concurrent
// use.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, TypeCounter, labels, &series{intFn: fn})
}

// Gauge registers a gauge series and returns its lock-free handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, TypeGauge, labels, &series{gauge: g})
	return g
}

// GaugeFunc registers a gauge series whose value is read at scrape time;
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, TypeGauge, labels, &series{intFn: fn})
}

// Histogram registers a histogram series and returns its lock-free handle
// (log2-bucketed, see Histogram).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.register(name, help, TypeHistogram, labels, &series{hist: h})
	return h
}

// HistogramFunc registers a histogram series whose snapshot is read at
// scrape time; fn must be safe for concurrent use.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot, labels ...Label) {
	r.register(name, help, TypeHistogram, labels, &series{histFn: fn})
}

// escapeLabelValue applies the OpenMetrics label value escaping.
func escapeLabelValue(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// renderLabels renders `{k="v",...}` ("" when unlabeled).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	sb.WriteByte('}')
	return sb.String()
}

// renderLabelsWith renders labels plus one extra pair (the histogram le).
func renderLabelsWith(labels []Label, key, value string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: key, Value: value})
	return renderLabels(all)
}

// WriteOpenMetrics renders every registered family in registration order as
// one OpenMetrics text exposition, terminated by "# EOF".
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		for _, s := range f.series {
			labels := renderLabels(s.labels)
			switch f.typ {
			case TypeCounter:
				fmt.Fprintf(bw, "%s_total%s %d\n", f.name, labels, s.intValue())
			case TypeGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, s.intValue())
			case TypeHistogram:
				snap := s.histValue()
				var cum int64
				for _, b := range snap.Buckets {
					cum += b.Count
					if b.LeNS == math.MaxInt64 {
						continue // folded into the +Inf bucket below
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n",
						f.name, renderLabelsWith(s.labels, "le", strconv.FormatInt(b.LeNS, 10)), cum)
				}
				// A torn snapshot under concurrent observation can leave
				// Count one short of the bucket sum; publish the max so the
				// exposition is always internally consistent (cumulative
				// buckets, +Inf == _count).
				total := snap.Count
				if cum > total {
					total = cum
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n",
					f.name, renderLabelsWith(s.labels, "le", "+Inf"), total)
				fmt.Fprintf(bw, "%s_sum%s %d\n", f.name, labels, snap.SumNS)
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labels, total)
			}
		}
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

func (s *series) intValue() int64 {
	switch {
	case s.counter != nil:
		return s.counter.Load()
	case s.gauge != nil:
		return s.gauge.Load()
	case s.intFn != nil:
		return s.intFn()
	}
	return 0
}

func (s *series) histValue() HistSnapshot {
	switch {
	case s.hist != nil:
		return s.hist.Snapshot()
	case s.histFn != nil:
		return s.histFn()
	}
	return HistSnapshot{}
}

// --- exposition parsing / linting --------------------------------------------

// ExpoSample is one parsed sample line of an exposition.
type ExpoSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ExpoFamily is one parsed metric family with its samples in file order.
type ExpoFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []ExpoSample
}

// Exposition is a parsed, validated OpenMetrics text exposition.
type Exposition struct {
	Families []*ExpoFamily
	byName   map[string]*ExpoFamily
}

// Family returns the named family (nil when absent).
func (e *Exposition) Family(name string) *ExpoFamily { return e.byName[name] }

// Value returns the value of the sample with exactly the given labels under
// the family that owns sample name `sample` (the suffixed name, e.g.
// "dexlego_jobs_submitted_total").
func (e *Exposition) Value(sample string, labels ...Label) (float64, bool) {
	for _, f := range e.Families {
		for _, s := range f.Samples {
			if s.Name != sample || len(s.Labels) != len(labels) {
				continue
			}
			match := true
			for _, l := range labels {
				if s.Labels[l.Key] != l.Value {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// sampleFamily maps a sample name to its family name given the family type.
func sampleFamily(name, typ string) (string, bool) {
	switch typ {
	case "counter":
		return strings.TrimSuffix(name, "_total"), strings.HasSuffix(name, "_total")
	case "gauge":
		return name, true
	case "histogram":
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				return strings.TrimSuffix(name, suf), true
			}
		}
		return "", false
	}
	return "", false
}

// parseSampleLine splits `name{labels} value` into its parts.
func parseSampleLine(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	labels = map[string]string{}
	if brace >= 0 {
		name = rest[:brace]
		end := strings.IndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		var perr error
		labels, perr = parseLabelSet(rest[brace+1 : end])
		if perr != nil {
			return "", nil, 0, perr
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample has no value")
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !metricNameRE.MatchString(name) {
		return "", nil, 0, fmt.Errorf("bad sample name %q", name)
	}
	// A sample may carry a trailing timestamp; we emit none and reject any.
	if strings.ContainsAny(rest, " \t") {
		return "", nil, 0, fmt.Errorf("unexpected trailing fields in %q", rest)
	}
	v, perr := strconv.ParseFloat(rest, 64)
	if perr != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q", rest)
	}
	return name, labels, v, nil
}

// parseLabelSet parses `k="v",k2="v2"` honoring escapes.
func parseLabelSet(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value in %q", s)
		}
		key := s[:eq]
		if !metricNameRE.MatchString(key) {
			return nil, fmt.Errorf("bad label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s value is not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %s", key)
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("duplicate label %s", key)
		}
		labels[key] = val.String()
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("malformed label separator in %q", s)
			}
			s = s[1:]
		}
	}
	return labels, nil
}

// labelsKey canonicalizes a label map (minus `le`) for grouping histogram
// series.
func labelsKey(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%q,", k, labels[k])
	}
	return sb.String()
}

// ParseExposition parses and lints an OpenMetrics text exposition: every
// family must declare its TYPE before samples, sample names must carry the
// type's suffix (_total for counters; _bucket/_sum/_count for histograms),
// histogram buckets must be cumulative with a +Inf bucket equal to _count,
// counters must be non-negative, duplicate samples are rejected, and the
// exposition must end with "# EOF". Errors carry the 1-based line number.
func ParseExposition(r io.Reader) (*Exposition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	e := &Exposition{byName: make(map[string]*ExpoFamily)}
	seen := make(map[string]bool) // duplicate sample guard: name + labels
	lineNo := 0
	sawEOF := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		fail := func(format string, args ...any) (*Exposition, error) {
			return nil, fmt.Errorf("openmetrics: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if sawEOF {
			return fail("content after # EOF")
		}
		if line == "" {
			return fail("blank line is not valid OpenMetrics")
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 2 && fields[1] == "EOF" {
				sawEOF = true
				continue
			}
			if len(fields) < 3 {
				return fail("malformed metadata line %q", line)
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return fail("malformed TYPE line %q", line)
				}
				name, typ := fields[2], fields[3]
				if !metricNameRE.MatchString(name) {
					return fail("bad family name %q", name)
				}
				if typ != "counter" && typ != "gauge" && typ != "histogram" {
					return fail("unsupported family type %q", typ)
				}
				if _, dup := e.byName[name]; dup {
					return fail("duplicate TYPE for family %s", name)
				}
				f := &ExpoFamily{Name: name, Type: typ}
				e.byName[name] = f
				e.Families = append(e.Families, f)
			case "HELP":
				name := fields[2]
				f := e.byName[name]
				if f == nil {
					return fail("HELP before TYPE for family %s", name)
				}
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			default:
				return fail("unknown metadata keyword %q", fields[1])
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fail("%v", err)
		}
		var f *ExpoFamily
		for _, cand := range e.Families {
			if famName, ok := sampleFamily(name, cand.Type); ok && famName == cand.Name {
				f = cand
				break
			}
		}
		if f == nil {
			return fail("sample %s has no declared family (or the wrong suffix for its type)", name)
		}
		if f != e.Families[len(e.Families)-1] {
			return fail("sample %s is interleaved outside its family block", name)
		}
		if (f.Type == "counter" || f.Type == "histogram") && (value < 0 || math.IsNaN(value)) {
			return fail("%s sample %s has invalid value %v", f.Type, name, value)
		}
		key := name + labelsKey(labels, "")
		if seen[key] {
			return fail("duplicate sample %s", name)
		}
		seen[key] = true
		if f.Type == "histogram" && strings.HasSuffix(name, "_bucket") {
			if _, ok := labels["le"]; !ok {
				return fail("histogram bucket %s is missing the le label", name)
			}
		}
		f.Samples = append(f.Samples, ExpoSample{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	for _, f := range e.Families {
		if f.Type != "histogram" {
			continue
		}
		if err := lintHistogram(f); err != nil {
			return nil, fmt.Errorf("openmetrics: family %s: %w", f.Name, err)
		}
	}
	return e, nil
}

// lintHistogram checks bucket monotonicity and _count/_sum consistency per
// label set of one histogram family.
func lintHistogram(f *ExpoFamily) error {
	type hstate struct {
		lastLe    float64
		lastCum   float64
		infBucket float64
		sawInf    bool
		count     float64
		sawCount  bool
		sawSum    bool
	}
	states := make(map[string]*hstate)
	stateOf := func(labels map[string]string) *hstate {
		k := labelsKey(labels, "le")
		st, ok := states[k]
		if !ok {
			st = &hstate{lastLe: math.Inf(-1)}
			states[k] = st
		}
		return st
	}
	for _, s := range f.Samples {
		st := stateOf(s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			leStr := s.Labels["le"]
			le := math.Inf(1)
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("bad le %q", leStr)
				}
				le = v
			}
			if le <= st.lastLe {
				return fmt.Errorf("bucket le %q out of order", leStr)
			}
			if s.Value < st.lastCum {
				return fmt.Errorf("bucket counts not cumulative at le %q", leStr)
			}
			st.lastLe, st.lastCum = le, s.Value
			if math.IsInf(le, 1) {
				st.sawInf, st.infBucket = true, s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			st.sawCount, st.count = true, s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			st.sawSum = true
		}
	}
	for k, st := range states {
		if !st.sawInf {
			return fmt.Errorf("series %s has no +Inf bucket", k)
		}
		if !st.sawCount || !st.sawSum {
			return fmt.Errorf("series %s is missing _count or _sum", k)
		}
		if st.infBucket != st.count {
			return fmt.Errorf("series %s +Inf bucket %v != _count %v", k, st.infBucket, st.count)
		}
	}
	return nil
}
