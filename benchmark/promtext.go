package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// samples is one scrape of a process's /metrics page: series (name plus
// its label set, exactly as printed) to value.
type samples map[string]float64

// parseMetrics reads the Prometheus text format s3serve prints: comment
// lines are skipped, every other line is `series value`. Label values may
// contain spaces, so the value is whatever follows the last space.
func parseMetrics(r io.Reader) (samples, error) {
	out := make(samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after − before for every series of after; a series the first
// scrape lacked counts from 0. Gauges are read from the second scrape
// directly, not through delta.
func (after samples) delta(before samples) samples {
	out := make(samples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds up every series of the family `name` whose label set contains
// all of the given `key="value"` fragments (none selects the whole
// family), so one call totals a counter over its endpoints or reasons.
func (s samples) sum(name string, labels ...string) float64 {
	var total float64
series:
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(k, l) {
				continue series
			}
		}
		total += v
	}
	return total
}
