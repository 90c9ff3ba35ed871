package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/obsfs"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
)

// realExports runs a small ZoFS workload with spans, series and the lock
// profiler on and writes each family's OpenMetrics export into dir, plus a
// byte-flow export through the df subcommand.
func realExports(t *testing.T, dir string) map[string]string {
	t.Helper()
	col := spans.Enable(spans.Config{})
	sc := series.Enable(series.Config{})
	reg := lockprof.Enable(lockprof.Config{})
	defer func() {
		spans.Disable()
		series.Disable()
		lockprof.Disable()
	}()
	in, err := sysfactory.ZoFS.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	fs := obsfs.Wrap(in.FS, nil)
	buf := make([]byte, 4096)
	for i := 0; i < 32; i++ {
		h, err := fs.Create(th, fmt.Sprintf("/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}

	paths := map[string]string{}
	write := func(family string, render func(io.Writer) error) {
		paths[family] = filepath.Join(dir, family+".prom")
		if err := writeFile(paths[family], render); err != nil {
			t.Fatal(err)
		}
	}
	write("spans", func(w io.Writer) error { return spans.WriteOpenMetrics(w, col.Snapshot()) })
	write("series", sc.WriteOpenMetrics)
	write("lockprof", func(w io.Writer) error { return lockprof.WriteOpenMetrics(w, reg.Snapshot()) })
	paths["byteflow"] = filepath.Join(dir, "byteflow.prom")
	if code := run([]string{"df", "-files", "16", "-top", "0", "-om", paths["byteflow"]}); code != 0 {
		t.Fatalf("df -om exited %d", code)
	}
	return paths
}

// TestValidate: one real export per family validates, and one document per
// family with a broken invariant is rejected with a non-zero exit for that
// invariant's reason.
func TestValidate(t *testing.T) {
	dir := t.TempDir()
	for family, path := range realExports(t, dir) {
		if code := run([]string{"validate", path}); code != 0 {
			t.Errorf("real %s export rejected (exit %d)", family, code)
		}
	}

	broken := []struct {
		family, why, doc string
	}{
		{"spans", "component shares", `# TYPE zofs_ops counter
zofs_ops_total{op="create"} 2
# TYPE zofs_op_latency_ns summary
zofs_op_latency_ns_sum{op="create"} 100
zofs_op_latency_ns_count{op="create"} 2
# TYPE zofs_op_component_share gauge
zofs_op_component_share{op="create",component="media"} 40.0000
zofs_op_component_share{op="create",component="other"} 40.0000
# EOF
`},
		{"lockprof", "edges into", `# TYPE zofs_lockprof_wait_ns counter
zofs_lockprof_wait_ns_total 100
# TYPE zofs_lockprof_lock_wait_ns counter
zofs_lockprof_lock_wait_ns_total{lock="kernfs.paths"} 100
# TYPE zofs_lockprof_edge_wait_ns counter
zofs_lockprof_edge_wait_ns_total{held="zofs.inode/1",wanted="kernfs.paths"} 150
# EOF
`},
		{"series", "breaches", `# TYPE zofs_series_observations counter
zofs_series_observations_total 4
# TYPE zofs_series_op_ops counter
zofs_series_op_ops_total{op="create"} 4
# TYPE zofs_slo_events counter
zofs_slo_events_total{op="create"} 4
# TYPE zofs_slo_breaches counter
zofs_slo_breaches_total{op="create"} 5
# EOF
`},
		{"byteflow", "byte-flow", `# TYPE zofs_issued_bytes counter
zofs_issued_bytes_total 4096
# TYPE zofs_issued_class_bytes counter
zofs_issued_class_bytes_total{class="data"} 4096
zofs_issued_class_bytes_total{class="inode"} 64
# EOF
`},
	}
	for _, b := range broken {
		path := filepath.Join(dir, "broken-"+b.family+".prom")
		if err := os.WriteFile(path, []byte(b.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"validate", path}); code == 0 {
			t.Errorf("broken %s export accepted", b.family)
		}
		if err := validateFile(path); err == nil || !strings.Contains(err.Error(), b.why) {
			t.Errorf("broken %s export: error %v, want one about %q", b.family, err, b.why)
		}
	}
}
