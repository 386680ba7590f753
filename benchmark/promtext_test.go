package main

import (
	"strings"
	"testing"
)

const pageBefore = `# HELP s3_http_shed_total POST /search requests shed by admission control (429).
# TYPE s3_http_shed_total counter
s3_http_shed_total{reason="queue_full"} 1
s3_http_shed_total{reason="timeout"} 0
s3_search_rounds_sum 30
s3_search_rounds_count 3
s3_coord_rpc_bytes_total{direction="sent",endpoint="rounds"} 700
s3_coord_rpc_bytes_total{direction="recv",endpoint="rounds"} 21000
s3_coord_breaker_state{worker="http://127.0.0.1:1/a b"} 0
s3_proxcache_entries 2
`

const pageAfter = `s3_http_shed_total{reason="queue_full"} 4
s3_http_shed_total{reason="timeout"} 2
s3_search_rounds_sum 130
s3_search_rounds_count 7
s3_coord_rpc_bytes_total{direction="sent",endpoint="rounds"} 1700
s3_coord_rpc_bytes_total{direction="sent",endpoint="beginset"} 300
s3_coord_rpc_bytes_total{direction="recv",endpoint="rounds"} 22000
s3_proxcache_entries 5
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(pageBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(pageAfter))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := before[`s3_coord_breaker_state{worker="http://127.0.0.1:1/a b"}`]; !ok || v != 0 {
		t.Errorf("a label value with a space was not kept whole: %v", before)
	}
	d := after.delta(before)
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"s3_http_shed_total", nil, 5},
		{"s3_http_shed_total", []string{`reason="timeout"`}, 2},
		{"s3_search_rounds_sum", nil, 100},
		{"s3_search_rounds", nil, 0},                                     // a prefix of a name is not the name
		{"s3_coord_rpc_bytes_total", []string{`direction="sent"`}, 1300}, // a series new in the second scrape counts from 0
		{"s3_coord_rpc_bytes_total", []string{`direction="recv"`, `endpoint="rounds"`}, 1000},
	} {
		if got := d.sum(c.name, c.labels...); got != c.want {
			t.Errorf("delta sum(%s %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if got := after.sum("s3_proxcache_entries"); got != 5 {
		t.Errorf("gauge read from the second scrape = %v, want 5", got)
	}
	if _, err := parseMetrics(strings.NewReader("s3_x notanumber\n")); err == nil {
		t.Error("a malformed value was accepted")
	}
}
