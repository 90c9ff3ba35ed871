package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"zofs/internal/obsfs"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// RunHotpath measures the zero-copy hot path against the scan-and-copy
// baseline: the default ZoFS configuration (device access windows,
// directory lookup cache, batched page allocation) versus ZoFS-copypath
// with all three disabled. Three single-thread cells over one shared
// directory large enough to exercise both the inline dentry area and the
// bucket chains:
//
//	create — empty-file creates (allocator + dentry insert path)
//	lookup — stat by path (directory lookup path)
//	read4k — open + 4KB pread + close (open/read path)
//
// Throughput is simulated (virtual-time) kops/s. Results are printed and
// recorded, before/after with speedups, in BENCH_hotpath.json.
func RunHotpath(w io.Writer, opts Options) error {
	opts.fill()
	n := hotpathFiles(opts)
	cells := []string{"create", "lookup", "read4k"}
	base, err := hotpathRun(sysfactory.ZoFSCopyPath, opts, n)
	if err != nil {
		return fmt.Errorf("hotpath %s: %w", sysfactory.ZoFSCopyPath.Name, err)
	}
	opt, err := hotpathRun(sysfactory.ZoFS, opts, n)
	if err != nil {
		return fmt.Errorf("hotpath %s: %w", sysfactory.ZoFS.Name, err)
	}

	fmt.Fprintf(w, "Hot path: %s vs %s, %d files in one directory (simulated kops/s)\n",
		sysfactory.ZoFS.Name, sysfactory.ZoFSCopyPath.Name, n)
	t := tw(w)
	fmt.Fprintln(t, "Cell\tCopy path\tZero copy\tSpeedup")
	type cellOut struct {
		Cell          string  `json:"cell"`
		BaselineKops  float64 `json:"baseline_kops"`
		OptimizedKops float64 `json:"optimized_kops"`
		Speedup       float64 `json:"speedup"`
	}
	out := struct {
		Experiment string    `json:"experiment"`
		Baseline   string    `json:"baseline"`
		Optimized  string    `json:"optimized"`
		Files      int       `json:"files"`
		Quick      bool      `json:"quick"`
		Cells      []cellOut `json:"cells"`
	}{
		Experiment: "hotpath",
		Baseline:   sysfactory.ZoFSCopyPath.Name,
		Optimized:  sysfactory.ZoFS.Name,
		Files:      n,
		Quick:      opts.Quick,
	}
	for _, c := range cells {
		b, o := base[c].kops(), opt[c].kops()
		sp := o / b
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.2fx\n", c, b, o, sp)
		out.Cells = append(out.Cells, cellOut{Cell: c, BaselineKops: round1(b), OptimizedKops: round1(o), Speedup: round2(sp)})
	}
	if err := t.Flush(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_hotpath.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote BENCH_hotpath.json")
	return nil
}

// hotpathFiles is the hot-path cells' file count: enough names in one
// directory that some buckets overflow into chain pages (inline capacity is
// 16 dentries per first-level slot).
func hotpathFiles(opts Options) int {
	if opts.Quick {
		return 4096
	}
	return 12288
}

func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }
func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// cellCost is one cell's integer outcome: operations completed and the
// virtual nanoseconds they took.
type cellCost struct {
	Ops       int64
	VirtualNS int64
}

// kops is the cell's simulated throughput in kops/s.
func (c cellCost) kops() float64 { return float64(c.Ops) / float64(c.VirtualNS) * 1e6 }

// hotpathRun runs all three cells on one fresh instance.
func hotpathRun(sys sysfactory.System, opts Options, n int) (map[string]cellCost, error) {
	in, err := sys.New(opts.DeviceBytes)
	if err != nil {
		return nil, err
	}
	return hotpathRunOn(in, nil, n)
}

// hotpathRunOn runs the three hot-path cells on an instance the caller
// built (and may have instrumented, e.g. enabled byte-flow accounting on).
// rec, when non-nil, receives per-op telemetry from the obsfs wrap — the
// series gate passes one so the cumulative histograms and the windowed
// series observe the identical op stream.
func hotpathRunOn(in *sysfactory.Instance, rec *telemetry.Recorder, n int) (map[string]cellCost, error) {
	th := in.Proc.NewThread()
	// With span collection active the wrapper opens a root span per op; with
	// everything off (and no telemetry recorder passed) this returns in.FS
	// unchanged.
	fs := obsfs.Wrap(in.FS, rec)
	if err := fs.Mkdir(th, "/hot", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/hot/f-%06d", i)
	}
	since := func(start int64) cellCost {
		return cellCost{Ops: int64(n), VirtualNS: th.Clk.Now() - start}
	}
	res := map[string]cellCost{}

	// Cell 1: small-file create.
	start := th.Clk.Now()
	for _, nm := range names {
		h, err := fs.Create(th, nm, 0o644)
		if err != nil {
			return nil, err
		}
		h.Close(th)
	}
	res["create"] = since(start)

	// Populate 4KB of content for the read cell (untimed).
	buf := make([]byte, 4096)
	for _, nm := range names {
		h, err := fs.Open(th, nm, vfs.O_RDWR)
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
	}

	// Cell 2: lookup (stat by path, strided so neighbours don't share
	// hash buckets).
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		if _, err := fs.Stat(th, names[i*7919%n]); err != nil {
			return nil, err
		}
	}
	res["lookup"] = since(start)

	// Cell 3: open + 4KB read + close.
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		h, err := fs.Open(th, names[i*104729%n], vfs.O_RDONLY)
		if err != nil {
			return nil, err
		}
		if _, err := h.ReadAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
	}
	res["read4k"] = since(start)
	return res, nil
}
