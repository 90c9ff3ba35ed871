package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"zofs/internal/byteflow"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

// RunWA is the write-amplification and byte-conservation gate. For every
// (system, workload) cell it builds a fresh instance with byte-flow
// accounting enabled, runs the workload, and reconciles the three layers of
// the byte flow — application bytes, FS-issued bytes (split by class) and
// media bytes — asserting:
//
//  1. Exact class conservation: the per-class issued bytes sum to the
//     independently counted issued total, byte for byte.
//  2. Flow ordering on write cells: media >= issued >= app. The FS never
//     issues fewer bytes than the app handed it, and every issued byte
//     reaches media (nt-stores directly, cached stores via flushed lines).
//
// That accounting leaves virtual time untouched is RunNeutral's gate.
//
// The per-cell WA table (ZoFS, ZoFS-copypath and the baselines) is printed
// and recorded in BENCH_wa.json — the command-line answer to "how many
// media bytes does one application byte cost".
func RunWA(w io.Writer, opts Options) error {
	opts.fill()
	n := 1024
	if opts.Quick {
		n = 256
	}
	systems := []sysfactory.System{
		sysfactory.ZoFS, sysfactory.ZoFSCopyPath,
		sysfactory.PMFS, sysfactory.NOVA, sysfactory.Ext4DAX,
	}

	type cellOut struct {
		System      string           `json:"system"`
		Workload    string           `json:"workload"`
		AppBytes    int64            `json:"app_bytes"`
		IssuedBytes int64            `json:"issued_bytes"`
		MediaBytes  int64            `json:"media_bytes"`
		WA          float64          `json:"wa,omitempty"`
		Flushes     int64            `json:"flushes"`
		Fences      int64            `json:"fences"`
		ByClass     map[string]int64 `json:"issued_by_class"`
	}
	out := struct {
		Experiment string    `json:"experiment"`
		Files      int       `json:"files"`
		Quick      bool      `json:"quick"`
		Cells      []cellOut `json:"cells"`
	}{Experiment: "wa", Files: n, Quick: opts.Quick}

	var failures []string
	fmt.Fprintf(w, "Write amplification: media bytes per app byte, %d files per cell\n", n)
	t := tw(w)
	fmt.Fprintln(t, "System\tWorkload\tApp\tIssued\tMedia\tWA\tdata\tdentry\tinode\tjournal\talloc\tother")
	for _, sys := range systems {
		for _, wl := range waWorkloads {
			flow, err := waCell(sys, opts, wl, n)
			if err != nil {
				return fmt.Errorf("wa %s/%s: %w", sys.Name, wl.name, err)
			}
			if err := flow.Conserved(); err != nil {
				failures = append(failures, fmt.Sprintf("cell %s/%s: %v", sys.Name, wl.name, err))
			}
			if flow.App > 0 && flow.MediaBytes() < flow.Total {
				failures = append(failures, fmt.Sprintf("cell %s/%s: media %d bytes < issued %d bytes",
					sys.Name, wl.name, flow.MediaBytes(), flow.Total))
			}
			fmt.Fprintf(t, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				sys.Name, wl.name, human(flow.App), human(flow.Total), human(flow.MediaBytes()),
				waStr(flow), human(flow.Issued[byteflow.ClassData]), human(flow.Issued[byteflow.ClassDentry]),
				human(flow.Issued[byteflow.ClassInode]), human(flow.Issued[byteflow.ClassJournal]),
				human(flow.Issued[byteflow.ClassAlloc]), human(flow.Issued[byteflow.ClassOther]))
			co := cellOut{
				System: sys.Name, Workload: wl.name,
				AppBytes: flow.App, IssuedBytes: flow.Total, MediaBytes: flow.MediaBytes(),
				WA: round2(flow.WA()), Flushes: flow.Flushes, Fences: flow.Fences,
				ByClass: map[string]int64{},
			}
			for _, c := range byteflow.Classes() {
				if flow.Issued[c] != 0 {
					co.ByClass[c.String()] = flow.Issued[c]
				}
			}
			out.Cells = append(out.Cells, co)
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}

	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_wa.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote BENCH_wa.json")
	if len(failures) > 0 {
		return fmt.Errorf("wa gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(w, "wa gate: conservation and flow ordering checks passed")
	return nil
}

func waStr(f *byteflow.Flow) string {
	if f.App <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", f.WA())
}

// waWorkload is one measured cell: setup runs unaccounted (the ledger is
// reset after it), run is the accounted phase.
type waWorkload struct {
	name  string
	setup func(fs vfs.FileSystem, th *proc.Thread, names []string) error
	run   func(fs vfs.FileSystem, th *proc.Thread, names []string) error
}

var waWorkloads = []waWorkload{
	{
		// Metadata-only: app bytes stay zero, the whole flow is dentry,
		// inode and allocator traffic.
		name: "create",
		run: func(fs vfs.FileSystem, th *proc.Thread, names []string) error {
			for _, nm := range names {
				h, err := fs.Create(th, nm, 0o644)
				if err != nil {
					return err
				}
				h.Close(th)
			}
			return nil
		},
	},
	{
		// In-place 4KB overwrite of warm files: the WA floor — block
		// pointers exist, no allocation on ZoFS's in-place path; CoW
		// baselines pay their logs here.
		name:  "overwrite4k",
		setup: waWriteFiles(4096),
		run: func(fs vfs.FileSystem, th *proc.Thread, names []string) error {
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte(i)
			}
			for _, nm := range names {
				h, err := fs.Open(th, nm, vfs.O_RDWR)
				if err != nil {
					return err
				}
				if _, err := h.WriteAt(th, buf, 0); err != nil {
					return err
				}
				h.Close(th)
			}
			return nil
		},
	},
	{
		// Small appends to empty files: allocation plus sub-block payloads,
		// the WA-heavy cell (a 256B payload still dirties whole lines and
		// drags inode size/mtime updates with it).
		name:  "append256",
		setup: waWriteFiles(0),
		run: func(fs vfs.FileSystem, th *proc.Thread, names []string) error {
			buf := make([]byte, 256)
			for i := range buf {
				buf[i] = byte(i)
			}
			for _, nm := range names {
				h, err := fs.Open(th, nm, vfs.O_RDWR)
				if err != nil {
					return err
				}
				for k := 0; k < 4; k++ {
					if _, err := h.Append(th, buf); err != nil {
						return err
					}
				}
				h.Close(th)
			}
			return nil
		},
	},
}

// waWriteFiles returns a setup phase that creates every file and writes
// size bytes of content (size 0 just creates).
func waWriteFiles(size int) func(fs vfs.FileSystem, th *proc.Thread, names []string) error {
	return func(fs vfs.FileSystem, th *proc.Thread, names []string) error {
		buf := make([]byte, size)
		for _, nm := range names {
			h, err := fs.Create(th, nm, 0o644)
			if err != nil {
				return err
			}
			if size > 0 {
				if _, err := h.WriteAt(th, buf, 0); err != nil {
					h.Close(th)
					return err
				}
			}
			h.Close(th)
		}
		return nil
	}
}

// waCell builds a fresh accounting-enabled instance, runs setup, zeroes the
// ledger and returns the measured phase's flow.
func waCell(sys sysfactory.System, opts Options, wl waWorkload, n int) (*byteflow.Flow, error) {
	in, err := sys.New(opts.DeviceBytes)
	if err != nil {
		return nil, err
	}
	in.Dev.EnableAccounting()
	th := in.Proc.NewThread()
	// The wrapper is where app bytes are credited (once, uniformly for
	// every system), so the accounted phase must go through it.
	fs := obsfs.Wrap(in.FS, nil)
	if err := fs.Mkdir(th, "/wa", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/wa/f-%06d", i)
	}
	if wl.setup != nil {
		if err := wl.setup(fs, th, names); err != nil {
			return nil, err
		}
	}
	in.Dev.ResetAccounting()
	if err := wl.run(fs, th, names); err != nil {
		return nil, err
	}
	return in.Dev.FlowSnapshot(), nil
}
