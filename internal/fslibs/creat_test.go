package fslibs

import (
	"errors"
	"testing"

	"zofs/internal/logfs"
	"zofs/internal/proc"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// TestCreatSemantics pins the open(2) flag combinations that reach a µFS's
// Create through the dispatcher, on both coffer types: creat() through a
// final-component symlink truncates the link's target, O_CREAT without
// O_TRUNC keeps existing content, O_CREAT|O_EXCL refuses an existing name,
// and creat() on a directory fails with ErrIsDir.
func TestCreatSemantics(t *testing.T) {
	for _, root := range []string{"", "/logs"} {
		name := "ZoFS"
		if root != "" {
			name = "LogFS"
		}
		t.Run(name, func(t *testing.T) {
			_, k, l, th := newLib(t)
			if root != "" {
				if _, err := k.CofferNew(th, k.RootCoffer(), root, logfs.TypeLogFS, 0o755, 0, 0, 3); err != nil {
					t.Fatal(err)
				}
			}
			write := func(path, data string) {
				t.Helper()
				fd, err := l.Open(th, path, vfs.O_CREATE|vfs.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := l.Write(th, fd, []byte(data)); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(th, fd); err != nil {
					t.Fatal(err)
				}
			}
			size := func(path string) int64 {
				t.Helper()
				fi, err := l.Stat(th, path)
				if err != nil {
					t.Fatalf("stat %s: %v", path, err)
				}
				return fi.Size
			}

			// creat() through a symlink truncates the target; the link stays.
			write(root+"/target", "old content")
			if err := l.Symlink(th, root+"/target", root+"/link"); err != nil {
				t.Fatal(err)
			}
			fd, err := l.Create(th, root+"/link", 0o644)
			if err != nil {
				t.Fatalf("creat through symlink: %v", err)
			}
			if _, err := l.Write(th, fd, []byte("new")); err != nil {
				t.Fatal(err)
			}
			l.Close(th, fd)
			if got := size(root + "/target"); got != 3 {
				t.Fatalf("target size after creat through link = %d, want 3", got)
			}
			if tgt, err := l.Readlink(th, root+"/link"); err != nil || tgt != root+"/target" {
				t.Fatalf("link after creat = %q, %v; want it untouched", tgt, err)
			}

			// O_CREAT without O_TRUNC keeps what is there.
			write(root+"/keep", "keep me")
			fd, err = l.Open(th, root+"/keep", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			l.Close(th, fd)
			if got := size(root + "/keep"); got != 7 {
				t.Fatalf("O_CREAT without O_TRUNC left size %d, want 7", got)
			}

			// O_CREAT|O_EXCL refuses an existing name, and leaves it alone.
			if _, err := l.Open(th, root+"/keep", vfs.O_CREATE|vfs.O_EXCL|vfs.O_TRUNC|vfs.O_RDWR, 0o644); !errors.Is(err, vfs.ErrExist) {
				t.Fatalf("O_EXCL on an existing file = %v, want ErrExist", err)
			}
			if got := size(root + "/keep"); got != 7 {
				t.Fatalf("refused O_EXCL open changed size to %d", got)
			}

			// creat() on a directory.
			if err := l.Mkdir(th, root+"/dir", 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Create(th, root+"/dir", 0o644); !errors.Is(err, vfs.ErrIsDir) {
				t.Fatalf("creat on a directory = %v, want ErrIsDir", err)
			}
		})
	}
}

// TestCreateUnlinkReclaims is the create/close/unlink cycle of metadata
// churn: every handle Create opens is the one Close releases, so no inode
// stays registered as open, each unlink reclaims its inode, and the space
// report's used count returns to where it started.
func TestCreateUnlinkReclaims(t *testing.T) {
	rec := telemetry.New()
	dev, k, l, th := newLib(t)
	dev.SetRecorder(rec)
	z := l.ZoFS()
	// One name throughout: the directory's hash pages are mapped by the
	// warm-up cycle, so every later allocation is an inode.
	const path = "/churn/f"
	cycle := func() {
		t.Helper()
		fd, err := l.Create(th, path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(th, fd); err != nil {
			t.Fatal(err)
		}
		if err := l.Unlink(th, path); err != nil {
			t.Fatal(err)
		}
	}
	used := func() int64 {
		for _, cs := range z.SpaceReport() {
			if cs.ID == uint64(k.RootCoffer()) {
				return cs.Used
			}
		}
		t.Fatal("no space row for the root coffer")
		return 0
	}
	counter := func(name string) int64 { return rec.Snapshot().Counters[name] }

	if err := l.Mkdir(th, "/churn", 0o755); err != nil {
		t.Fatal(err)
	}
	cycle()
	z.DrainReclaim(th)
	used0 := used()
	alloc0, freed0 := counter("zofs.pages_alloc"), counter("zofs.pages_freed")

	const n = 200
	for i := 0; i < n; i++ {
		cycle()
	}
	if got := zofs.OpenInodes(dev); got != 0 {
		t.Fatalf("%d inodes still registered open after every handle closed", got)
	}
	if got := used(); got != used0 {
		t.Fatalf("used pages %d after %d create/unlink cycles, started at %d", got, n, used0)
	}
	z.DrainReclaim(th)
	alloc, freed := counter("zofs.pages_alloc")-alloc0, counter("zofs.pages_freed")-freed0
	if alloc != n || freed != n {
		t.Fatalf("%d cycles allocated %d and freed %d pages, want %d each", n, alloc, freed, n)
	}
	if err := z.VerifySpace(); err != nil {
		t.Fatal(err)
	}
}

// TestCreatExistingFileInReadOnlyDir truncates, with creat(), a file the
// caller may write in a directory it may not: POSIX asks for write access
// to the file only. The file is its own coffer (its permission differs from
// its parent's), so the dispatcher must not insist on mapping the parent
// writable. Creating a new name there must still be refused.
func TestCreatExistingFileInReadOnlyDir(t *testing.T) {
	dev, k, l, th := newLib(t)
	if err := l.Mkdir(th, "/pub", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err := l.Open(th, "/pub/shared", vfs.O_CREATE|vfs.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	l.Write(th, fd, []byte("root wrote this"))
	l.Close(th, fd)

	uth := proc.NewProcess(dev, 1000, 1000).NewThread()
	ul, err := Mount(k, uth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd, err = ul.Create(uth, "/pub/shared", 0o644)
	if err != nil {
		t.Fatalf("creat on a writable file in a read-only directory: %v", err)
	}
	ul.Close(uth, fd)
	if fi, err := ul.Stat(uth, "/pub/shared"); err != nil || fi.Size != 0 {
		t.Fatalf("after creat: %+v, %v; want an empty file", fi, err)
	}
	if _, err := ul.Create(uth, "/pub/new", 0o644); err == nil {
		t.Fatal("creat of a new name in a read-only directory succeeded")
	}
}
