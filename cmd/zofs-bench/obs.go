package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"zofs/internal/lockprof"
	"zofs/internal/series"
	"zofs/internal/spans"
)

// -obs: one collection run feeds every observer front end. The directory
// receives spans.jsonl (streamed root spans), spans.json/.prom (the enriched
// span snapshot), exemplars.jsonl, series.jsonl/.prom, locks.json/.prom and
// waits.jsonl, republished every publishInterval so zofs-obs top and locks
// can watch a run live.

const publishInterval = 500 * time.Millisecond

// observe enables the span collector (with worst-op exemplar rings and a
// spans.jsonl sink), the windowed series and the lock profiler, and starts
// the periodic publisher. The returned stop function ends collection,
// publishes the final files and prints each observer's summary.
func observe(dir string) (stop func() error, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jf, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	col := spans.Enable(spans.Config{JSONL: jf, ExemplarK: spans.DefaultExemplarK})
	sc := series.Enable(series.Config{})
	reg := lockprof.Enable(lockprof.Config{})

	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(publishInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// A missed refresh must not kill the benchmark; the final
				// publish reports errors.
				_ = publish(dir, col, sc, reg)
			}
		}
	}()

	return func() error {
		close(done)
		<-finished
		spans.Disable()
		series.Disable()
		lockprof.Disable()
		err := col.FlushSink()
		if cerr := jf.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = publish(dir, col, sc, reg)
		}
		if err != nil {
			return err
		}
		fmt.Printf("==== span attribution (%d spans -> %s) ====\n", col.Finished(), dir)
		col.Snapshot().WriteText(os.Stdout)
		fmt.Printf("==== tail series (%d observations, %d windows -> %s) ====\n",
			sc.Total(), len(sc.Windows()), dir)
		rep := reg.Snapshot()
		fmt.Printf("==== lock contention (%d acquires -> %s) ====\n", rep.Acquires, dir)
		return rep.WriteText(os.Stdout)
	}, nil
}

// publish writes every observer's current state into dir.
func publish(dir string, col *spans.Collector, sc *series.Collector, reg *lockprof.Registry) error {
	rep := reg.Snapshot()
	snap := col.Snapshot()
	spans.Enrich(&snap)
	// The span snapshot (and zofs-obs top, which renders it) carries the
	// contention panel.
	snap.Locks = &rep
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"spans.json", func(w io.Writer) error { return writeJSON(w, &snap) }},
		{"spans.prom", func(w io.Writer) error { return spans.WriteOpenMetrics(w, snap) }},
		{"exemplars.jsonl", col.WriteExemplarsJSONL},
		{"series.jsonl", sc.WriteJSONL},
		{"series.prom", sc.WriteOpenMetrics},
		{"locks.json", func(w io.Writer) error { return writeJSON(w, &rep) }},
		{"locks.prom", func(w io.Writer) error { return lockprof.WriteOpenMetrics(w, rep) }},
		{"waits.jsonl", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, b := range reg.Blocked() {
				if err := enc.Encode(b); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, f := range files {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if err := writeAtomic(filepath.Join(dir, f.name), buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// writeAtomic writes data under a temporary name and renames it over path,
// so a reader polling the directory never sees a half-written file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
