package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// counters is a flat view of a program's published metrics, from
// either surface (the -metrics JSON snapshot or the Prometheus text of
// /metrics). A key is the family name, or name{k="v",...} with labels
// sorted by key; get sums a family over its labels.
type counters map[string]float64

func labelKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the family's value summed over every label combination.
func (c counters) get(name string) float64 {
	var sum float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// add accumulates another process's counters (a pass may be several
// child processes).
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// parseSnapshot reads the JSON a child writes with -metrics FILE.
// Histograms contribute name_sum and name_count.
func parseSnapshot(data []byte) (counters, error) {
	var fams []struct {
		Name    string `json:"name"`
		Type    string `json:"type"`
		Samples []struct {
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
			Count  uint64            `json:"count"`
			Sum    float64           `json:"sum"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(data, &fams); err != nil {
		return nil, fmt.Errorf("metrics snapshot: %w", err)
	}
	out := counters{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if f.Type == "histogram" {
				out[labelKey(f.Name+"_sum", s.Labels)] += s.Sum
				out[labelKey(f.Name+"_count", s.Labels)] += float64(s.Count)
				continue
			}
			out[labelKey(f.Name, s.Labels)] += s.Value
		}
	}
	return out, nil
}

// parseProm reads Prometheus text exposition (GET /metrics). Bucket
// series are skipped; _sum and _count lines come through as they are.
func parseProm(data []byte) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics text: %q: %w", line, err)
		}
		key := strings.TrimSpace(line[:i])
		if strings.Contains(key, "_bucket{") {
			continue
		}
		out[key] += v
	}
	return out, sc.Err()
}

var (
	tagHeader = regexp.MustCompile(`^\s*(\S+): Total (\S+)$`)
	tagLine   = regexp.MustCompile(`^\s*(\S+) \(\s*[\d.]+%\): (\S+)$`)
)

// parsePprofTags reads `go tool pprof -tags` output and returns the CPU
// seconds under each value of the given tag, e.g. stage -> {replay:
// 1.5, decode: 0.15, capture: 0.08}.
func parsePprofTags(out []byte, tag string) (map[string]float64, error) {
	vals := map[string]float64{}
	in := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if m := tagHeader.FindStringSubmatch(line); m != nil {
			in = m[1] == tag
			continue
		}
		if !in {
			continue
		}
		m := tagLine.FindStringSubmatch(line)
		if m == nil {
			if strings.TrimSpace(line) == "" {
				in = false
			}
			continue
		}
		secs, err := parsePprofDuration(m[1])
		if err != nil {
			return nil, err
		}
		vals[m[2]] += secs
	}
	return vals, sc.Err()
}

// parsePprofDuration converts pprof's scaled durations ("150.0ms",
// "1.5s", "2.1mins") to seconds.
func parsePprofDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		secs   float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("pprof duration %q: %w", s, err)
			}
			return v * u.secs, nil
		}
	}
	return 0, fmt.Errorf("pprof duration %q: unknown unit", s)
}
