package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"planet/internal/metrics"
)

// Label is one name=value pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label at a call site.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricType distinguishes exposition behavior per family.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing series.
type Counter = metrics.Counter

// Gauge is a series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add moves the gauge by delta (lock-free CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Histogram records duration samples; it exposes as a Prometheus histogram
// (cumulative `_bucket{le="..."}` series + _sum + _count) in seconds.
type Histogram = metrics.Histogram

// series is one labeled instance within a family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	gfn    func() float64
	hist   *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string

	mu     sync.RWMutex
	series map[string]*series
}

// Registry is a named collection of metric families. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use, and instrument handles returned by Counter/Gauge/Histogram may be
// retained and used lock-free on hot paths.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName checks the Prometheus metric/label name grammar (letters,
// digits, underscores, colons; no leading digit).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// familyFor returns (creating if needed) the family, enforcing that every
// registration of a name agrees on type and label names. Mismatches are
// programmer errors and panic.
func (r *Registry) familyFor(name, help string, typ metricType, labels []Label) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	names := make([]string, len(labels))
	for i, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Name, name))
		}
		names[i] = l.Name
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: typ,
				labelNames: names, series: make(map[string]*series)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	if len(f.labelNames) != len(names) {
		panic(fmt.Sprintf("obs: metric %s label arity changed: %v vs %v", name, names, f.labelNames))
	}
	for i := range names {
		if names[i] != f.labelNames[i] {
			panic(fmt.Sprintf("obs: metric %s label names changed: %v vs %v", name, names, f.labelNames))
		}
	}
	return f
}

// seriesKey joins label values into a map key.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Value)
		b.WriteByte(0x1f)
	}
	return b.String()
}

// seriesFor returns (creating via mk if needed) the series for labels.
func (f *family) seriesFor(labels []Label, mk func() *series) *series {
	key := seriesKey(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s == nil {
		s = mk()
		s.labels = append([]Label(nil), labels...)
		f.series[key] = s
	}
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, typeCounter, labels)
	return f.seriesFor(labels, func() *series { return &series{ctr: &Counter{}} }).ctr
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.familyFor(name, help, typeGauge, labels)
	return f.seriesFor(labels, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — the natural fit for values another subsystem already tracks.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, typeGauge, labels)
	f.seriesFor(labels, func() *series { return &series{gfn: fn} })
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	f := r.familyFor(name, help, typeHistogram, labels)
	return f.seriesFor(labels, func() *series {
		return &series{hist: metrics.NewHistogram()}
	}).hist
}

// Value reads one series' current value: counts for counters, the gauge
// value for gauges, and the sample count for histograms. The second result
// reports whether the series exists.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return 0, false
	}
	f.mu.RLock()
	s := f.series[seriesKey(labels)]
	f.mu.RUnlock()
	if s == nil {
		return 0, false
	}
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value()), true
	case s.gauge != nil:
		return s.gauge.Value(), true
	case s.gfn != nil:
		return s.gfn(), true
	case s.hist != nil:
		return float64(s.hist.Count()), true
	}
	return 0, false
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatLabels renders {a="x",b="y"}; extra, when non-empty, is appended
// as-is (used for bucket le labels).
func formatLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// escapeLabel already applied exposition-format escaping; %q
		// would double-escape, so quote by hand.
		fmt.Fprintf(&b, "%s=\"%s\"", l.Name, escapeLabel(l.Value))
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so the
// output is diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		list := make([]*series, 0, len(keys))
		for _, k := range keys {
			list = append(list, f.series[k])
		}
		f.mu.RUnlock()

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range list {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series of f.
func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels, ""), s.ctr.Value())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, formatLabels(s.labels, ""), s.gauge.Value())
		return err
	case s.gfn != nil:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, formatLabels(s.labels, ""), s.gfn())
		return err
	case s.hist != nil:
		// Cumulative buckets, then the mandatory +Inf bucket, _sum, and
		// _count — the shape prometheus.WriteHistogram parsers require.
		// Racy snapshot: a sample landing between reads can make the bucket
		// cumulative exceed the count snapshot, so +Inf (which must equal
		// _count) takes the larger of the two.
		buckets := s.hist.CumulativeBuckets()
		var cum uint64
		for _, b := range buckets {
			lbl := formatLabels(s.labels, fmt.Sprintf("le=\"%g\"", b.UpperBound.Seconds()))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, b.Count); err != nil {
				return err
			}
			cum = b.Count
		}
		count := s.hist.Count()
		if count < cum {
			count = cum
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			formatLabels(s.labels, `le="+Inf"`), count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name,
			formatLabels(s.labels, ""), s.hist.Sum().Seconds()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(s.labels, ""), count)
		return err
	}
	return nil
}
