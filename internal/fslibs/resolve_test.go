package fslibs

import (
	"errors"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/simclock"
	"zofs/internal/vfs"
)

// parseCost is the virtual cost of one backward path parse of p.
func parseCost(k *kernfs.KernFS, p string) int64 {
	clk := simclock.NewClock()
	k.ResolveLongest(clk, p)
	return clk.Now()
}

// twin builds a library over a fresh device holding /a/b/f and /a/c in the
// root coffer, from restarted PID/TID counters: two twins are in the same
// state, so one op's virtual cost can be compared exactly between them.
func twin(t *testing.T) (*kernfs.KernFS, *Lib, *proc.Thread) {
	t.Helper()
	proc.ResetIDs()
	_, k, l, th := newLib(t)
	for _, d := range []string{"/a", "/a/b", "/a/c"} {
		if err := l.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fd, err := l.Create(th, "/a/b/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l.Close(th, fd)
	for i := 0; i < 2; i++ { // warm the directory caches
		if _, err := l.Stat(th, "/a/b/f"); err != nil {
			t.Fatal(err)
		}
	}
	return k, l, th
}

// TestDispatchParsesOnce checks that a dispatched call pays for one
// backward parse: against the same call made on the µFS directly, it adds
// the dispatcher's parse of P and one CPUSmallOp re-check for each µFS walk
// the record answers, and drops those walks' own parses.
func TestDispatchParsesOnce(t *testing.T) {
	const p = "/a/b/f"
	cases := []struct {
		name   string
		path   string   // P, the path the dispatcher parses
		reused []string // the µFS walks the record answers
		direct func(l *Lib, th *proc.Thread) error
		lib    func(l *Lib, th *proc.Thread) error
	}{
		{"stat", p, []string{p},
			func(l *Lib, th *proc.Thread) error { _, err := l.ZoFS().Stat(th, p); return err },
			func(l *Lib, th *proc.Thread) error { _, err := l.Stat(th, p); return err }},
		{"unlink", p, []string{"/a/b"},
			func(l *Lib, th *proc.Thread) error { return l.ZoFS().Unlink(th, p) },
			func(l *Lib, th *proc.Thread) error { return l.Unlink(th, p) }},
		{"create", "/a/b/g", []string{"/a/b"},
			func(l *Lib, th *proc.Thread) error { _, err := l.ZoFS().Create(th, "/a/b/g", 0o644); return err },
			func(l *Lib, th *proc.Thread) error { _, err := l.Create(th, "/a/b/g", 0o644); return err }},
		// The destination directory /a/c is not between Q = / and P, so
		// its walk parses afresh.
		{"rename", p, []string{"/a/b"},
			func(l *Lib, th *proc.Thread) error { return l.ZoFS().Rename(th, p, "/a/c/g") },
			func(l *Lib, th *proc.Thread) error { return l.Rename(th, p, "/a/c/g") }},
		{"rename-in-dir", p, []string{"/a/b", "/a/b"},
			func(l *Lib, th *proc.Thread) error { return l.ZoFS().Rename(th, p, "/a/b/g") },
			func(l *Lib, th *proc.Thread) error { return l.Rename(th, p, "/a/b/g") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, l, th := twin(t)
			t0 := th.Clk.Now()
			if err := tc.direct(l, th); err != nil {
				t.Fatal(err)
			}
			direct := th.Clk.Now() - t0

			k, l, th = twin(t)
			t0 = th.Clk.Now()
			if err := tc.lib(l, th); err != nil {
				t.Fatal(err)
			}
			got := th.Clk.Now() - t0 - direct

			want := parseCost(k, tc.path)
			for _, d := range tc.reused {
				want += perfmodel.CPUSmallOp - parseCost(k, d)
			}
			if got != want {
				t.Fatalf("dispatched - direct = %d ns, want %d", got, want)
			}
			if th.Resolved != (proc.Resolution{}) {
				t.Fatalf("record left on the thread: %+v", th.Resolved)
			}
		})
	}
}

// TestOwnCofferFileThroughDispatcher drives a file whose permission gives
// it its own coffer (Q = P): the µFS walks of its parent must not take the
// record, whose coffer is the file's.
func TestOwnCofferFileThroughDispatcher(t *testing.T) {
	_, k, l, th := newLib(t)
	l.Mkdir(th, "/d", 0o755)
	l.Mkdir(th, "/e", 0o755)
	base := len(k.Coffers())
	for _, f := range []string{"/d/p", "/d/q"} {
		fd, err := l.Create(th, f, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		l.Close(th, fd)
	}
	if got := len(k.Coffers()); got != base+2 {
		t.Fatalf("%d coffers, want %d: 0600 files should be coffer roots", got, base+2)
	}
	if err := l.Rename(th, "/d/p", "/e/p"); err != nil {
		t.Fatalf("rename own-coffer file: %v", err)
	}
	if _, err := l.Stat(th, "/e/p"); err != nil {
		t.Fatalf("stat renamed file: %v", err)
	}
	if _, err := l.Stat(th, "/d/p"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old name after rename: %v", err)
	}
	for _, f := range []string{"/e/p", "/d/q"} {
		if err := l.Unlink(th, f); err != nil {
			t.Fatalf("unlink %s: %v", f, err)
		}
		if _, err := l.Stat(th, f); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("stat %s after unlink: %v", f, err)
		}
	}
	if got := len(k.Coffers()); got != base {
		t.Fatalf("%d coffers after unlink, want %d", got, base)
	}
}

// probeFS is a µFS stub that records the dispatcher's record as each Stat
// sees it, and can fault or answer with a symlink.
type probeFS struct {
	vfs.FileSystem
	seen    []proc.Resolution
	fault   bool
	symlink string
}

func (f *probeFS) Stat(th *proc.Thread, path string) (vfs.FileInfo, error) {
	f.seen = append(f.seen, th.Resolved)
	if f.fault {
		panic(nvm.Fault{Cause: "probe"})
	}
	if f.symlink != "" {
		to := f.symlink
		f.symlink = ""
		return vfs.FileInfo{}, &vfs.SymlinkError{Path: to}
	}
	return vfs.FileInfo{}, nil
}

func TestDispatchRecordLifetime(t *testing.T) {
	const probeType coffer.Type = 9
	_, k, l, th := newLib(t)
	id, err := k.CofferNew(th, k.RootCoffer(), "/probe", probeType, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := &probeFS{}
	l.RegisterFS(probeType, fs)

	if _, err := l.Stat(th, "/probe/x/y"); err != nil {
		t.Fatal(err)
	}
	if r := fs.seen[0]; r.Path != "/probe/x/y" || r.Prefix != "/probe" || r.ID != id {
		t.Fatalf("record during the call = %+v", r)
	}
	if th.Resolved != (proc.Resolution{}) {
		t.Fatalf("record left after return: %+v", th.Resolved)
	}

	// A symlink hop replaces the record with the new path's parse.
	fs.seen, fs.symlink = nil, "/probe/z"
	if _, err := l.Stat(th, "/probe/x/y"); err != nil {
		t.Fatal(err)
	}
	if len(fs.seen) != 2 || fs.seen[1].Path != "/probe/z" || fs.seen[1].Prefix != "/probe" {
		t.Fatalf("records across a symlink hop = %+v", fs.seen)
	}

	// A fault inside the µFS unwinds through guard and leaves no record.
	fs.seen, fs.fault = nil, true
	if _, err := l.Stat(th, "/probe/x"); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("faulting stat = %v, want ErrIO", err)
	}
	if len(fs.seen) != 1 || fs.seen[0].Path != "/probe/x" {
		t.Fatalf("record during the faulting call = %+v", fs.seen)
	}
	if th.Resolved != (proc.Resolution{}) {
		t.Fatalf("record left after a fault: %+v", th.Resolved)
	}
}

// TestDispatchStatAllocs bounds the dispatcher's own heap allocations on
// Stat, what Lib.Stat allocates beyond the µFS's Stat: 9 per call, none of
// them for the parse record, which lives by value on the thread.
func TestDispatchStatAllocs(t *testing.T) {
	_, _, l, th := newLib(t)
	l.Mkdir(th, "/a", 0o755)
	l.Mkdir(th, "/a/b", 0o755)
	fd, _ := l.Create(th, "/a/b/f", 0o644)
	l.Close(th, fd)
	z := l.ZoFS()
	direct := testing.AllocsPerRun(100, func() { z.Stat(th, "/a/b/f") })
	lib := testing.AllocsPerRun(100, func() { l.Stat(th, "/a/b/f") })
	if lib-direct > 9 {
		t.Fatalf("Lib.Stat allocates %.0f/op, FS.Stat %.0f/op: dispatcher adds %.0f, want <= 9",
			lib, direct, lib-direct)
	}
}
