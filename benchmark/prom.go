package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSeries is one scraped sample: metric name, label set, value.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is one parsed /v1/metrics body.
type promScrape []promSeries

// parseProm parses Prometheus text exposition. Comment lines and lines it
// cannot parse are skipped: a scrape is a measurement aid, and one odd line
// must not void the run.
func parseProm(text string) promScrape {
	var out promScrape
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := parsePromValue(line[sp+1:])
		if err != nil {
			continue
		}
		head := strings.TrimSpace(line[:sp])
		s := promSeries{name: head, value: v}
		if ob := strings.IndexByte(head, '{'); ob >= 0 && strings.HasSuffix(head, "}") {
			s.name = head[:ob]
			s.labels = parsePromLabels(head[ob+1 : len(head)-1])
		}
		out = append(out, s)
	}
	return out
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parsePromLabels parses `a="x",b="y"`; values here never contain escaped
// quotes (routes, regions, outcomes, numbers).
func parsePromLabels(s string) map[string]string {
	labels := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		labels[strings.TrimSpace(part[:eq])] = strings.Trim(part[eq+1:], `"`)
	}
	return labels
}

// matches reports whether the series carries every label in want.
func (s promSeries) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds the values of every series called name whose labels include want.
func (p promScrape) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range p {
		if s.name == name && s.matches(want) {
			t += s.value
		}
	}
	return t
}

// promHist is a cumulative histogram: upper bounds ascending (the last may be
// +Inf) and the cumulative count at each.
type promHist struct {
	le  []float64
	cum []float64
}

// hist collects name_bucket series matching want into one cumulative
// histogram, adding counts of series that share an upper bound (several
// regions, say). planetd prints only the bounds it has filled, so two series
// rarely list the same bounds: each is read as a step function over the
// union of bounds.
func (p promScrape) hist(name string, want map[string]string) promHist {
	groups := make(map[string]map[float64]float64)
	bounds := make(map[float64]bool)
	for _, s := range p {
		if s.name != name+"_bucket" || !s.matches(want) {
			continue
		}
		le, err := parsePromValue(s.labels["le"])
		if err != nil {
			continue
		}
		var id []string
		for k, v := range s.labels {
			if k != "le" {
				id = append(id, k+"="+v)
			}
		}
		sort.Strings(id)
		g := strings.Join(id, ",")
		if groups[g] == nil {
			groups[g] = make(map[float64]float64)
		}
		groups[g][le] = s.value
		bounds[le] = true
	}
	h := promHist{}
	for b := range bounds {
		h.le = append(h.le, b)
	}
	sort.Float64s(h.le)
	h.cum = make([]float64, len(h.le))
	for _, g := range groups {
		var last float64
		for i, b := range h.le {
			if v, ok := g[b]; ok {
				last = v
			}
			h.cum[i] += last
		}
	}
	return h
}

// at returns the cumulative count at bound b, reading the histogram as a
// step function.
func (h promHist) at(b float64) float64 {
	var v float64
	for i, le := range h.le {
		if le > b {
			break
		}
		v = h.cum[i]
	}
	return v
}

// sub returns h minus an earlier scrape of the same histogram: the
// observations that arrived between the two.
func (h promHist) sub(earlier promHist) promHist {
	out := promHist{le: h.le, cum: make([]float64, len(h.cum))}
	for i, b := range h.le {
		out.cum[i] = h.cum[i] - earlier.at(b)
	}
	return out
}

// count is the total number of observations.
func (h promHist) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile estimates the q-quantile (0..1) by linear interpolation inside
// the bucket that holds it, as Prometheus's histogram_quantile does. A
// quantile that falls in the +Inf bucket reports the highest finite bound.
func (h promHist) quantile(q float64) float64 {
	total := h.count()
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCum := 0.0, 0.0
	for i, le := range h.le {
		if h.cum[i] >= rank && h.cum[i] > prevCum {
			if math.IsInf(le, 1) {
				return prevLe
			}
			return prevLe + (le-prevLe)*(rank-prevCum)/(h.cum[i]-prevCum)
		}
		if !math.IsInf(le, 1) {
			prevLe = le
		}
		prevCum = h.cum[i]
	}
	return prevLe
}
