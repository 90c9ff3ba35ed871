package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// OpSnap is one operation's latency summary inside a Snapshot. Buckets carry
// the raw histogram so Diff can recompute interval quantiles; the JSON form
// exposes only the derived summary.
type OpSnap struct {
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MeanNS  int64   `json:"mean_ns"`
	P50NS   int64   `json:"p50_ns"`
	P99NS   int64   `json:"p99_ns"`
	Buckets []int64 `json:"-"`
}

func (o OpSnap) finish() OpSnap {
	if o.Count > 0 {
		o.MeanNS = o.SumNS / o.Count
	} else {
		o.MeanNS = 0
	}
	o.P50NS = quantile(o.Buckets, o.Count, 0.50)
	o.P99NS = quantile(o.Buckets, o.Count, 0.99)
	return o
}

// Snapshot is a point-in-time copy of a recorder's state, suitable for
// diffing, JSON export and text rendering.
type Snapshot struct {
	Counters map[string]int64  `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
	Ops      map[string]OpSnap `json:"ops"`
}

// Snapshot captures the recorder's current totals. On a nil recorder it
// returns an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Ops:      map[string]OpSnap{},
	}
	if r == nil {
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counterTotal(c); v != 0 {
			s.Counters[c.Name()] = v
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if v := r.gauges[g].Load(); v != 0 {
			s.Gauges[g.Name()] = v
		}
	}
	for op := Op(0); op < numOps; op++ {
		count, sum, buckets := r.hists[op].snapshot()
		if count == 0 {
			continue
		}
		s.Ops[op.Name()] = OpSnap{Count: count, SumNS: sum, Buckets: buckets}.finish()
	}
	return s
}

// Diff returns the activity between prev and s: counters and histograms are
// subtracted bucket-wise; gauges (high-water marks) keep s's values, since
// they do not subtract meaningfully.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Ops:      map[string]OpSnap{},
	}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, cur := range s.Ops {
		old := prev.Ops[name]
		n := OpSnap{Count: cur.Count - old.Count, SumNS: cur.SumNS - old.SumNS}
		if n.Count <= 0 {
			continue
		}
		n.Buckets = make([]int64, len(cur.Buckets))
		copy(n.Buckets, cur.Buckets)
		for i := range old.Buckets {
			if i < len(n.Buckets) {
				n.Buckets[i] -= old.Buckets[i]
			}
		}
		d.Ops[name] = n.finish()
	}
	return d
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// layerOrder fixes the text rendering order of counter groups.
var layerOrder = []string{"nvm", "mpk", "kernfs", "fslibs", "zofs"}

// WriteText renders the snapshot as a per-layer counter table followed by a
// per-op latency table.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tcounter\tvalue")
	byLayer := map[string][]string{}
	add := func(name string) {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] = append(byLayer[layer], name)
	}
	for name := range s.Counters {
		add(name)
	}
	for name := range s.Gauges {
		add(name)
	}
	for _, layer := range layerOrder {
		names := byLayer[layer]
		sort.Strings(names)
		for _, name := range names {
			v, ok := s.Counters[name]
			if !ok {
				v = s.Gauges[name]
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\n", layer, strings.TrimPrefix(name, layer+"."), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(s.Ops) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tcount\tmean ns\tp50 ns\tp99 ns")
	names := make([]string, 0, len(s.Ops))
	for name := range s.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := s.Ops[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", name, o.Count, o.MeanNS, o.P50NS, o.P99NS)
	}
	return tw.Flush()
}
