package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"zofs/internal/lockprof"
	"zofs/internal/series"
	"zofs/internal/spans"
)

// timelineRows bounds the timeline panel to the latest windows.
const timelineRows = 12

// ---- top ------------------------------------------------------------------

// top redraws the published span snapshot's latency-attribution tables —
// per-op component shares, the critical-path summary and the contention
// tables — in place, top(1)-style, with a virtual-time timeline of the
// latest series windows (op counts, p99s, SLO burn) below. -once renders one
// frame, -json emits one machine-readable frame (snapshot plus windows).
func cmdTop(args []string) error {
	fs := flags("top")
	dir := fs.String("dir", "results", "directory published by zofs-bench -obs")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "render one frame and exit")
	jsonOut := fs.Bool("json", false, "emit one frame as JSON (spans snapshot + series windows) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *jsonOut:
		return renderTopJSON(*dir)
	case *once:
		return renderTop(*dir, false)
	}
	return watch("top", *interval, func() error { return renderTop(*dir, true) })
}

// watch redraws a frame forever; errors (usually a publisher that has not
// written yet) are shown and retried.
func watch(name string, interval time.Duration, frame func() error) error {
	for {
		if err := frame(); err != nil {
			fmt.Printf("zofs-obs %s: %v (waiting)\n", name, err)
		}
		time.Sleep(interval)
	}
}

// readJSON parses the JSON document at path.
func readJSON[T any](path string) (*T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// loadSnapshot reads the published spans.json and its modification time.
func loadSnapshot(dir string) (*spans.Snapshot, time.Time, error) {
	path := filepath.Join(dir, "spans.json")
	snap, err := readJSON[spans.Snapshot](path)
	if err != nil {
		return nil, time.Time{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	return snap, st.ModTime(), nil
}

// loadWindows reads dir/series.jsonl; with optional set, a missing file is
// nil windows and no error.
func loadWindows(dir string, optional bool) ([]series.Window, error) {
	wins, err := readJSONL(filepath.Join(dir, "series.jsonl"), series.ReadJSONL)
	if optional && os.IsNotExist(err) {
		return nil, nil
	}
	return wins, err
}

func renderTop(dir string, clear bool) error {
	snap, mod, snapErr := loadSnapshot(dir)
	wins, winErr := loadWindows(dir, true)
	if snapErr != nil && wins == nil {
		// Nothing published at all — report the primary feed's error.
		return snapErr
	}
	if clear {
		fmt.Print("\x1b[2J\x1b[H")
	}
	if snap != nil {
		fmt.Printf("zofs-obs top — %s (published %s ago)\n\n", filepath.Join(dir, "spans.json"),
			time.Since(mod).Round(100*time.Millisecond))
		if err := snap.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if winErr != nil {
		return winErr
	}
	if len(wins) > 0 {
		fmt.Println()
		return writeTimeline(os.Stdout, wins)
	}
	return nil
}

// writeTimeline renders the latest windows: per-window op volume, the
// slowest op kind by p99, and the worst windowed SLO burn.
func writeTimeline(w io.Writer, wins []series.Window) error {
	fmt.Fprintf(w, "timeline (virtual time, %d windows total)\n", len(wins))
	if len(wins) > timelineRows {
		wins = wins[len(wins)-timelineRows:]
	}
	t := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(t, "window\tstart ms\tops\tworst op\tp99 ns\tmax burn")
	for _, win := range wins {
		var total int64
		worstOp, worstP99 := "-", int64(0)
		var maxBurn float64
		names := make([]string, 0, len(win.Ops))
		for name := range win.Ops {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ow := win.Ops[name]
			total += ow.Count
			if ow.P99NS > worstP99 {
				worstOp, worstP99 = name, ow.P99NS
			}
			if ow.SLOBurn > maxBurn {
				maxBurn = ow.SLOBurn
			}
		}
		fmt.Fprintf(t, "%d\t%.3f\t%d\t%s\t%d\t%.2f\n",
			win.Index, float64(win.StartNS)/1e6, total, worstOp, worstP99, maxBurn)
	}
	return t.Flush()
}

// renderTopJSON emits one combined machine-readable frame.
func renderTopJSON(dir string) error {
	snap, _, snapErr := loadSnapshot(dir)
	wins, err := loadWindows(dir, true)
	if err != nil {
		return err
	}
	if snap == nil && wins == nil {
		return fmt.Errorf("nothing published in %s: %v", dir, snapErr)
	}
	doc := struct {
		Spans   *spans.Snapshot `json:"spans,omitempty"`
		Windows []series.Window `json:"windows,omitempty"`
	}{snap, wins}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", raw)
	return err
}

// ---- locks ----------------------------------------------------------------

// locks renders the published lock-profiler report: the named-lock
// contention table, the hold-while-waiting wait-for edges, lock-order
// inversions and the busiest waiters. -dot exports the wait-for graph for
// Graphviz with inversion-implicated lock classes highlighted. (Its
// OpenMetrics rendering is the published locks.prom.)
func cmdLocks(args []string) error {
	fs := flags("locks")
	dir := fs.String("dir", "results", "directory published by zofs-bench -obs")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "render one frame and exit")
	dot := fs.String("dot", "", "write the wait-for graph as Graphviz DOT to this file ('-' for stdout) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dot != "" {
		rep, err := readJSON[lockprof.Report](filepath.Join(*dir, "locks.json"))
		if err != nil {
			return err
		}
		return writeFile(*dot, rep.WriteDOT)
	}
	if *once {
		return renderLocks(*dir, false)
	}
	return watch("locks", *interval, func() error { return renderLocks(*dir, true) })
}

func renderLocks(dir string, clear bool) error {
	rep, err := readJSON[lockprof.Report](filepath.Join(dir, "locks.json"))
	if err != nil {
		return err
	}
	if clear {
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("zofs-obs locks · %s · %s\n\n", filepath.Join(dir, "locks.json"), time.Now().Format("15:04:05"))
	}
	return rep.WriteText(os.Stdout)
}
