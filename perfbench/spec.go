package main

// endToEndSpec is the end_to_end list of BENCHMARK.json: each metric's
// unit, direction and the share of the parent's median by which it may
// worsen. The tests hold the two in step.
var endToEndSpec = []struct {
	name, unit, better string
	bound              float64
}{
	{"vthroughput_kops", "kops/s", "higher", 0.05},
	{"vlat_p50_ns", "ns", "lower", 0.05},
	{"vlat_p99_ns", "ns", "lower", 0.1},
	{"vlat_p999_ns", "ns", "lower", 0.2},
	{"cpu_us_per_op", "us", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"media_bytes_per_op", "B/op", "lower", 0.05},
	{"max_rss_mb", "MiB", "lower", 0.1},
}

// endToEndBound returns a metric's bound (0 for an unknown name).
func endToEndBound(name string) float64 {
	for _, m := range endToEndSpec {
		if m.name == name {
			return m.bound
		}
	}
	return 0
}
