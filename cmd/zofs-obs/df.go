package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"zofs/internal/byteflow"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// df reports where the bytes went: per-coffer space accounting (used /
// free-listed / batch-cached pages, fragmentation), the byte-flow
// reconciliation (application bytes vs FS-issued bytes by class vs media
// bytes, with the write-amplification factor), and the page-wear heatmap.
//
// Without -image it builds a fresh ZoFS instance, enables byte-flow
// accounting and runs a small mixed workload (create, write, append,
// unlink) so the flow, wear and space reports have something to say. With
// -image it mounts the given device image and reports its persistent space
// accounting; the flow and wear ledgers only cover what the mount itself
// wrote, so they are near-empty by construction.
//
// -heatmap writes one JSON object per worn page (the byteflow.PageWear
// schema: page, coffer, writes, bytes, flushes) — JSONL, ready for jq or a
// plotting script. -om writes the flow/space series in OpenMetrics form and
// validates them. -validate re-checks the two accounting invariants — exact
// byte conservation across classes and the three-way space reconciliation
// (kernel table vs allocator inventory vs page census).
func cmdDF(args []string) error {
	fs := flags("df")
	image := fs.String("image", "", "report on an existing device image instead of a fresh demo instance")
	files := fs.Int("files", 512, "files the demo workload touches (fresh-instance mode)")
	heatmap := fs.String("heatmap", "", "write the page-wear heatmap as JSONL to this file")
	topN := fs.Int("top", 8, "hottest pages to print (0 = none)")
	om := fs.String("om", "", "write the flow/space OpenMetrics series to this file")
	validate := fs.Bool("validate", false, "verify byte conservation and space accounting; exit 1 on violation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErr("zofs-obs df [flags]")
	}

	var dev *nvm.Device
	if *image != "" {
		f, err := os.Open(*image)
		if err != nil {
			return err
		}
		dev, err = nvm.LoadImage(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load: %v", err)
		}
		dev.EnableAccounting()
	} else {
		dev = nvm.New(nvm.Config{Size: 256 << 20})
		// Accounting goes on before mkfs so formatting traffic is in the
		// ledger too; mkfs tags every write with an explicit class, so the
		// residual ("other") must reconcile to exactly zero.
		dev.EnableAccounting()
		if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
			return fmt.Errorf("mkfs: %v", err)
		}
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return fmt.Errorf("mount: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		return fmt.Errorf("fsmount: %v", err)
	}
	zfs := zofs.New(k, zofs.Options{})
	if *image == "" {
		if err := zfs.EnsureRootDir(th); err != nil {
			return fmt.Errorf("root: %v", err)
		}
		if err := demoWorkload(zfs, th, *files); err != nil {
			return fmt.Errorf("workload: %v", err)
		}
	}

	// The flow and space panels render through the span snapshot's text and
	// OpenMetrics exporters (an otherwise-empty snapshot).
	snap := spans.Snapshot{Flow: dev.FlowSnapshot(), Space: zfs.SpaceReport()}
	flow := snap.Flow
	wear := zfs.WearReport()

	if err := snap.WritePanels(os.Stdout); err != nil {
		return err
	}
	if *topN > 0 && len(wear) > 0 {
		fmt.Println()
		printHottest(wear, *topN)
	}

	if *heatmap != "" {
		err := writeFile(*heatmap, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, pw := range wear {
				if err := enc.Encode(pw); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("-heatmap: %v", err)
		}
		fmt.Printf("\nwrote %d page-wear records to %s\n", len(wear), *heatmap)
	}
	if *om != "" {
		// The written file must validate.
		err := writeFile(*om, func(w io.Writer) error { return spans.WriteOpenMetrics(w, snap) })
		if err == nil {
			err = validateFile(*om)
		}
		if err != nil {
			return fmt.Errorf("-om: %v", err)
		}
		fmt.Printf("wrote OpenMetrics series to %s\n", *om)
	}

	if *validate {
		var errs []error
		if err := flow.Conserved(); err != nil {
			errs = append(errs, fmt.Errorf("conservation: %w", err))
		}
		// Every writer carries an explicit class now, mkfs included; any
		// bytes in the residual mean a new unclassified writer crept in.
		if *image == "" && flow.Issued[byteflow.ClassOther] != 0 {
			errs = append(errs, fmt.Errorf("%d bytes in class %q — unclassified writer",
				flow.Issued[byteflow.ClassOther], byteflow.ClassOther))
		}
		if err := zfs.VerifySpace(); err != nil {
			errs = append(errs, fmt.Errorf("space: %w", err))
		}
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		fmt.Println("\nvalidate: byte conservation and space accounting reconcile")
	}
	return nil
}

// demoWorkload gives the ledgers something to report: create, fill, append,
// then delete a quarter of the files. App bytes are credited by the obsfs
// wrapper, same as the benchmarks.
func demoWorkload(inner vfs.FileSystem, th *proc.Thread, n int) error {
	fs := obsfs.Wrap(inner, nil)
	if err := fs.Mkdir(th, "/demo", 0o755); err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		nm := fmt.Sprintf("/demo/f-%06d", i)
		h, err := fs.Create(th, nm, 0o644)
		if err != nil {
			return err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			h.Close(th)
			return err
		}
		if i%2 == 0 {
			if _, err := h.Append(th, buf[:256]); err != nil {
				h.Close(th)
				return err
			}
		}
		h.Close(th)
	}
	for i := 0; i < n; i += 4 {
		if err := fs.Unlink(th, fmt.Sprintf("/demo/f-%06d", i)); err != nil {
			return err
		}
	}
	return nil
}

func printHottest(wear []byteflow.PageWear, n int) {
	hot := make([]byteflow.PageWear, len(wear))
	copy(hot, wear)
	// Partial selection sort: n is small.
	for i := 0; i < n && i < len(hot); i++ {
		best := i
		for j := i + 1; j < len(hot); j++ {
			if hot[j].Writes > hot[best].Writes {
				best = j
			}
		}
		hot[i], hot[best] = hot[best], hot[i]
	}
	if n > len(hot) {
		n = len(hot)
	}
	fmt.Printf("hottest pages (%d of %d worn):\n", n, len(wear))
	t := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(t, "page\tcoffer\twrites\tbytes\tflushes")
	for _, pw := range hot[:n] {
		fmt.Fprintf(t, "%d\t%d\t%d\t%d\t%d\n", pw.Page, pw.Coffer, pw.Writes, pw.Bytes, pw.Flushes)
	}
	t.Flush()
}
