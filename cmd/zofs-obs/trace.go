package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// trace drives the persistence flight recorder (internal/pmemtrace); each
// of its three commands lists its flags with -h.
//
// record drives a small fig7-style workload against one or all of the §6
// comparison file systems with the flight recorder on, spills every device
// event to a JSONL log (one log per system: "-o base.jsonl" becomes
// "base-<system>.jsonl" when recording several), appends the telemetry
// op-trace spans, and prints the crash-consistency audit per system.
//
// audit replays a recorded log through the auditor: lost-update lines at
// crash points, redundant flushes/fences, epoch shape. With -max-lost it
// exits non-zero when more lines were lost than allowed, making it usable
// as a CI gate.
//
// export writes one Chrome trace-event timeline (chrome://tracing,
// Perfetto) from whatever it is given: a log's device events (instants plus
// a dirty-line counter track) and op spans, causal-span roots with their
// child layer spans from a zofs-bench -obs spans.jsonl (these replace the
// log's op spans), per-thread lock-wait slices from waits.jsonl, and the
// series window boundaries and worst-op exemplars of a -obs directory.
func cmdTrace(args []string) error {
	if len(args) == 0 {
		return usageErr("zofs-obs trace record|audit|export [flags]")
	}
	switch args[0] {
	case "record":
		return traceRecord(args[1:])
	case "audit":
		return traceAudit(args[1:])
	case "export":
		return traceExport(args[1:])
	}
	return usageErr("zofs-obs trace record|audit|export [flags]")
}

// ---- record ---------------------------------------------------------------

type recordOpts struct {
	workload   string
	threads    int
	ops        int
	size       int
	fsyncEvery int
	deviceMB   int64
	image      string
}

func traceRecord(args []string) error {
	fs := flags("trace record")
	workload := fs.String("workload", "append", "append | create | crash")
	system := fs.String("system", "all", "file system to drive, or \"all\" (the fig7 comparison set)")
	out := fs.String("o", "trace.jsonl", "output JSONL event log (suffixed per system when recording several)")
	chrome := fs.String("chrome", "", "also export Chrome trace-event JSON to this path (same suffix rule)")
	threads := fs.Int("threads", 2, "simulated threads")
	ops := fs.Int("ops", 50, "operations per thread")
	size := fs.Int("size", 4096, "append size in bytes")
	fsyncEvery := fs.Int("fsync-every", 8, "fsync after every K appends (0 = never)")
	deviceMB := fs.Int64("device-mb", 256, "device size in MiB")
	image := fs.String("image", "", "crash workload only: save the post-crash device image here (feed to zofs-fsck -trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErr("zofs-obs trace record [flags]")
	}
	opts := recordOpts{workload: *workload, threads: *threads, ops: *ops,
		size: *size, fsyncEvery: *fsyncEvery, deviceMB: *deviceMB, image: *image}
	if *image != "" && *workload != "crash" {
		return fmt.Errorf("-image is only meaningful with -workload crash")
	}

	var systems []sysfactory.System
	if *workload == "crash" {
		// The crash workload needs dirty-line tracking to revert unflushed
		// stores; it runs on a purpose-built ZoFS stack.
		systems = []sysfactory.System{{Name: "ZoFS"}}
	} else if *system == "all" {
		systems = sysfactory.Comparison
	} else {
		for _, s := range sysfactory.Comparison {
			if strings.EqualFold(s.Name, *system) {
				systems = []sysfactory.System{s}
			}
		}
		if len(systems) == 0 {
			return fmt.Errorf("unknown system %q (want one of the fig7 set or \"all\")", *system)
		}
	}

	for _, sys := range systems {
		path := suffixed(*out, sys.Name, len(systems) > 1)
		if err := recordOne(sys, opts, path); err != nil {
			return fmt.Errorf("record %s: %v", sys.Name, err)
		}
		fmt.Printf("== %s -> %s ==\n", sys.Name, path)
		events, ops, err := loadLog(path)
		if err != nil {
			return err
		}
		pmemtrace.Audit(events, ops).WriteText(os.Stdout)
		if *chrome != "" {
			cpath := suffixed(*chrome, sys.Name, len(systems) > 1)
			tl := spans.Timeline{Roots: spans.TraceRoots(ops), Events: events}
			if err := writeFile(cpath, func(w io.Writer) error { return spans.WriteChromeTrace(w, tl) }); err != nil {
				return fmt.Errorf("export %s: %v", cpath, err)
			}
			fmt.Printf("chrome trace: %s\n", cpath)
		}
		fmt.Println()
	}
	return nil
}

// suffixed inserts "-<system>" before the extension when multi is set.
func suffixed(path, system string, multi bool) string {
	if !multi {
		return path
	}
	dot := strings.LastIndex(path, ".")
	if dot <= strings.LastIndex(path, "/") {
		return path + "-" + system
	}
	return path[:dot] + "-" + system + path[dot:]
}

// recordOne runs one workload against one system with a fresh recorder
// spilling to path, then appends the telemetry op spans.
func recordOne(sys sysfactory.System, opts recordOpts, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	rec := telemetry.Enable()
	defer telemetry.Disable()
	tr := pmemtrace.Enable(pmemtrace.Config{Spill: f})
	defer pmemtrace.Disable()

	if opts.workload == "crash" {
		err = runCrashWorkload(opts)
	} else {
		err = runWorkload(sys, opts, rec)
	}
	if err != nil {
		return err
	}
	if err := tr.FlushSpill(); err != nil {
		return err
	}
	return pmemtrace.WriteSpansJSONL(f, rec.TraceEvents())
}

func runWorkload(sys sysfactory.System, opts recordOpts, rec *telemetry.Recorder) error {
	in, err := sys.New(opts.deviceMB << 20)
	if err != nil {
		return err
	}
	wfs := obsfs.Wrap(in.FS, rec)
	buf := make([]byte, opts.size)
	for i := range buf {
		buf[i] = byte(i)
	}
	for t := 0; t < opts.threads; t++ {
		th := in.Proc.NewThread()
		switch opts.workload {
		case "append":
			// The fig7 DWAL pattern — private-file appends — plus periodic
			// fsync, which is where kernel FSs pay their writeback tax.
			h, err := wfs.Create(th, fmt.Sprintf("/app-%d", t), 0o644)
			if err != nil {
				return err
			}
			for i := 0; i < opts.ops; i++ {
				if _, err := h.Append(th, buf); err != nil {
					return err
				}
				if opts.fsyncEvery > 0 && (i+1)%opts.fsyncEvery == 0 {
					if err := h.Sync(th); err != nil {
						return err
					}
				}
			}
			if err := h.Close(th); err != nil {
				return err
			}
		case "create":
			// The fig7 MWCL pattern — private-directory file creates.
			dir := fmt.Sprintf("/dir-%d", t)
			if err := wfs.Mkdir(th, dir, 0o755); err != nil {
				return err
			}
			for i := 0; i < opts.ops; i++ {
				h, err := wfs.Create(th, fmt.Sprintf("%s/f%d", dir, i), 0o644)
				if err != nil {
					return err
				}
				if err := h.Close(th); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown workload %q", opts.workload)
		}
	}
	return nil
}

// runCrashWorkload appends on a persistence-tracked ZoFS stack, injects a
// device crash mid-stream, and records the power failure — the resulting
// log shows every line the crash lost.
func runCrashWorkload(opts recordOpts) error {
	dev := nvm.NewDevice(opts.deviceMB << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		return err
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return err
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	if err := k.FSMount(th); err != nil {
		return err
	}
	f := zofs.New(k, zofs.Options{})
	if err := f.EnsureRootDir(th); err != nil {
		return err
	}
	var h vfs.Handle
	if h, err = f.Create(th, "/crash-victim", coffer.Mode(0o644)); err != nil {
		return err
	}
	buf := make([]byte, opts.size)
	// Let half the workload land, then fail on a later persisting store.
	for i := 0; i < opts.ops/2; i++ {
		if _, err := h.Append(th, buf); err != nil {
			return err
		}
	}
	dev.FailAfter(int64(opts.ops)/4 + 1)
	func() {
		defer func() {
			if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
				panic(r)
			}
		}()
		for i := 0; i < opts.ops; i++ {
			if _, err := h.Append(th, buf); err != nil {
				return
			}
		}
	}()
	dev.FailAfter(0)
	dev.Crash()
	if opts.image != "" {
		out, err := os.Create(opts.image)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := dev.SaveImage(out); err != nil {
			return err
		}
	}
	return nil
}

// ---- audit ----------------------------------------------------------------

func traceAudit(args []string) error {
	fs := flags("trace audit")
	maxLost := fs.Int("max-lost", -1, "exit non-zero if more than N lost lines are found (-1 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageErr("zofs-obs trace audit [-max-lost N] <trace.jsonl>")
	}
	events, ops, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := pmemtrace.Audit(events, ops)
	rep.WriteText(os.Stdout)
	if *maxLost >= 0 && len(rep.LostLines) > *maxLost {
		return fmt.Errorf("%d lost lines exceed -max-lost %d", len(rep.LostLines), *maxLost)
	}
	return nil
}

// ---- export ---------------------------------------------------------------

func traceExport(args []string) error {
	fs := flags("trace export")
	out := fs.String("o", "chrome.json", "output Chrome trace-event JSON path")
	spanLog := fs.String("spans", "", "causal-span roots from this spans.jsonl (zofs-bench -obs), in place of the log's op spans")
	waitLog := fs.String("waits", "", "per-thread lock-wait slices from this waits.jsonl (zofs-bench -obs)")
	seriesDir := fs.String("series", "", "window boundaries and worst-op exemplars from this zofs-bench -obs directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 || (fs.NArg() == 0 && *spanLog == "" && *waitLog == "" && *seriesDir == "") {
		return usageErr("zofs-obs trace export [-o chrome.json] [-spans spans.jsonl] [-waits waits.jsonl] [-series dir] [trace.jsonl]")
	}
	var tl spans.Timeline
	if fs.NArg() == 1 {
		events, ops, err := loadLog(fs.Arg(0))
		if err != nil {
			return err
		}
		tl.Events, tl.Roots = events, spans.TraceRoots(ops)
	}
	if *spanLog != "" {
		roots, err := readJSONL(*spanLog, spans.ReadRootsJSONL)
		if err != nil {
			return fmt.Errorf("-spans: %v", err)
		}
		tl.Roots = roots
	}
	if *waitLog != "" {
		waits, err := readJSONL(*waitLog, decodeAll[lockprof.BlockedInterval])
		if err != nil {
			return fmt.Errorf("-waits: %v", err)
		}
		tl.Waits = waits
	}
	if *seriesDir != "" {
		if err := loadMarks(*seriesDir, &tl); err != nil {
			return fmt.Errorf("-series: %v", err)
		}
	}
	if err := writeFile(*out, func(w io.Writer) error { return spans.WriteChromeTrace(w, tl) }); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d events, %d spans, %d lock waits, %d windows, %d exemplars)\n",
		*out, len(tl.Events), len(tl.Roots), len(tl.Waits), len(tl.Windows), len(tl.Exemplars))
	return nil
}

// loadMarks adds a zofs-bench -obs directory's window boundaries
// (series.jsonl) and worst-op exemplars (exemplars.jsonl, optional) to tl.
func loadMarks(dir string, tl *spans.Timeline) error {
	wins, err := loadWindows(dir, false)
	if err != nil {
		return err
	}
	for _, w := range wins {
		m := spans.WindowMark{Index: w.Index, StartNS: w.StartNS}
		for _, ow := range w.Ops {
			m.Ops += ow.Count
		}
		tl.Windows = append(tl.Windows, m)
	}
	tl.Exemplars, err = readJSONL(filepath.Join(dir, "exemplars.jsonl"), spans.ReadExemplarsJSONL)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// ---- shared ---------------------------------------------------------------

// readJSONL opens path and parses it with read.
func readJSONL[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// decodeAll reads a stream of JSON values, one T each.
func decodeAll[T any](r io.Reader) ([]T, error) {
	var out []T
	dec := json.NewDecoder(r)
	for {
		var v T
		if err := dec.Decode(&v); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, v)
	}
}

func loadLog(path string) ([]pmemtrace.Event, []telemetry.TraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return pmemtrace.ReadJSONL(f)
}
