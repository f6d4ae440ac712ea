package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// LabeledSummaries formats a set of named histogram summaries as an aligned
// table, sorted by label, for experiment output.
func LabeledSummaries(m map[string]Summary, scale float64) string {
	labels := make([]string, 0, len(m))
	for k := range m {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %12s %12s %12s %12s\n", "series", "n", "mean", "p50", "p95", "p99")
	for _, l := range labels {
		s := m[l].Scale(scale)
		fmt.Fprintf(&b, "%-24s %8d %12s %12s %12s %12s\n",
			l, s.Count, round(s.Mean), round(s.P50), round(s.P95), round(s.P99))
	}
	return b.String()
}

// Scale returns a copy of s with every duration multiplied by f. The bench
// harness uses it to convert time-compressed measurements back to WAN
// milliseconds.
func (s Summary) Scale(f float64) Summary {
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return Summary{
		Count: s.Count,
		Mean:  scale(s.Mean), Min: scale(s.Min), Max: scale(s.Max),
		P50: scale(s.P50), P95: scale(s.P95), P99: scale(s.P99),
	}
}
