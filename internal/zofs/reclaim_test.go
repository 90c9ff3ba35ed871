package zofs

import (
	"fmt"
	"testing"
	"time"

	"zofs/internal/kernfs"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

// mapWords reads a file's indirect and double-indirect pointer words
// uncharged.
func mapWords(dev *nvm.Device, ino int64) (ind, dind uint64) {
	var w [16]byte
	dev.ReadNoCharge(ino*pageSize+inoIndirectOff, w[:])
	return u64at(w[:], 0), u64at(w[:], 8)
}

// rootUsed returns the root coffer's used-page count from the space report.
func rootUsed(t *testing.T, f *FS) int64 {
	t.Helper()
	root := uint64(f.kern.RootCoffer())
	for _, cs := range f.SpaceReport() {
		if cs.ID == root {
			return cs.Used
		}
	}
	t.Fatal("no space row for the root coffer")
	return 0
}

// assertNoRepairs runs offline recovery over every coffer and fails on any
// repair: a consistent file system leaves fsck nothing to fix.
func assertNoRepairs(t *testing.T, k *kernfs.KernFS, th *proc.Thread) {
	t.Helper()
	stats, err := FsckAll(k, th)
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range stats {
		if len(st.Repairs) != 0 {
			t.Fatalf("fsck repaired coffer %d: %+v", id, st.Repairs)
		}
	}
}

// TestShrinkFreesMapPages grows files through the indirect and into the
// double-indirect range, shrinks them, and checks that pointer pages no
// live block needs are freed with their words zeroed: the invariant that
// lets the deferred reclaim skip the indirect words. A shrunk-and-unlinked
// file's recycled inode page must come back all zero (the debug pool
// asserts it on every metadata allocation), and fsck must find nothing to
// repair — before this, a file truncated below the indirect range kept its
// pointer page for fsck to drop as stale.
func TestShrinkFreesMapPages(t *testing.T) {
	SetDebugPool(true)
	defer SetDebugPool(false)
	dev, k, f, th := newTestFS(t, Options{})
	const blocks = inoDirectCnt + ptrsPerPage + 10 // into the double-indirect range
	data := make([]byte, blocks*pageSize)
	for i := range data {
		data[i] = byte(i/pageSize) | 1
	}
	grow := func(path string) int64 {
		t.Helper()
		h, err := f.Create(th, path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, data, 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
		fi, err := f.Stat(th, path)
		if err != nil {
			t.Fatal(err)
		}
		if ind, dind := mapWords(dev, fi.Inode); ind == 0 || dind == 0 {
			t.Fatalf("%s: %d blocks but map words %d/%d", path, blocks, ind, dind)
		}
		return fi.Inode
	}

	kept := grow("/kept")
	// Below the double-indirect range, then below the indirect range.
	if err := f.Truncate(th, "/kept", (inoDirectCnt+5)*pageSize); err != nil {
		t.Fatal(err)
	}
	if ind, dind := mapWords(dev, kept); ind == 0 || dind != 0 {
		t.Fatalf("after shrink to %d blocks: map words %d/%d, want indirect only", inoDirectCnt+5, ind, dind)
	}
	if err := f.Truncate(th, "/kept", 3*pageSize); err != nil {
		t.Fatal(err)
	}
	if ind, dind := mapWords(dev, kept); ind != 0 || dind != 0 {
		t.Fatalf("after shrink to 3 blocks: map words %d/%d, want none", ind, dind)
	}

	// Map the name's directory pages first, so used counts only the file.
	if _, err := f.Create(th, "/gone", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(th, "/gone"); err != nil {
		t.Fatal(err)
	}
	f.DrainReclaim(th)
	used := rootUsed(t, f)
	gone := grow("/gone")
	if err := f.Truncate(th, "/gone", 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(th, "/gone"); err != nil {
		t.Fatal(err)
	}
	f.DrainReclaim(th)
	buf := make([]byte, pageSize)
	dev.ReadNoCharge(gone*pageSize, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("reclaimed inode page %d byte %d = %#x", gone, i, b)
		}
	}
	if got := rootUsed(t, f); got != used {
		t.Fatalf("used pages %d after grow/shrink/unlink, started at %d", got, used)
	}
	// Recreate on the recycled pages: every metadata page handed out is
	// checked all-zero by the debug pool.
	for i := 0; i < 4; i++ {
		h, err := f.Create(th, fmt.Sprintf("/again%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, data[:(inoDirectCnt+2)*pageSize], 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}
	if err := f.VerifySpace(); err != nil {
		t.Fatal(err)
	}
	assertNoRepairs(t, k, th)
}

// TestFailedWriteUnmapsPastSize fails a write part-way (its second block
// lies past the largest mappable index) after the first block has already
// pulled in a data page, a double-indirect page and a second-level page.
// Nothing past the committed size may stay mapped: the pages go back to the
// allocator, the words are zeroed, and the file reclaims to nothing.
func TestFailedWriteUnmapsPastSize(t *testing.T) {
	SetDebugPool(true)
	defer SetDebugPool(false)
	dev, k, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/edge", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	used := rootUsed(t, f)
	if _, err := h.WriteAt(th, make([]byte, 2*pageSize), (maxBlocks-1)*pageSize); err == nil {
		t.Fatal("write past the largest block index succeeded")
	}
	h.Close(th)
	fi, err := f.Stat(th, "/edge")
	if err != nil {
		t.Fatal(err)
	}
	if ind, dind := mapWords(dev, fi.Inode); fi.Size != 0 || ind != 0 || dind != 0 {
		t.Fatalf("after the failed write: size %d, map words %d/%d", fi.Size, ind, dind)
	}
	if got := rootUsed(t, f); got != used {
		t.Fatalf("failed write left %d used pages, started at %d", got, used)
	}
	assertNoRepairs(t, k, th)
}

// TestCrashDropsReclaimQueue crashes with unlinked files still queued for
// deferred reclamation. The queue is volatile: recovery's in-use traversal
// must find the queued inodes unreferenced and reclaim every one of their
// pages, and the remounted file system must allocate cleanly.
func TestCrashDropsReclaimQueue(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	const files, blocks = 8, 3
	for i := 0; i < files; i++ {
		h, err := f.Create(th, fmt.Sprintf("/q%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, make([]byte, blocks*pageSize), 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}
	for i := 0; i < files; i++ {
		if err := f.Unlink(th, fmt.Sprintf("/q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	m := f.mounts[k.RootCoffer()]
	ts := m.threadSlotsFor(th.TID)
	if len(ts.reclaim) != files {
		t.Fatalf("%d inodes queued, want %d", len(ts.reclaim), files)
	}
	var queued int64
	for _, ino := range ts.reclaim {
		queued += int64(len(queuedPages(dev, ino)))
	}
	if queued != files*(1+blocks) {
		t.Fatalf("queue holds %d pages, want %d", queued, files*(1+blocks))
	}
	var cached int64
	for _, cs := range f.SpaceReport() {
		if cs.ID == uint64(k.RootCoffer()) {
			cached = cs.Cached
		}
	}
	if cached < queued {
		t.Fatalf("space report caches %d pages, fewer than the %d queued", cached, queued)
	}

	dev.Crash()
	ResetShared(dev)
	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k2.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	f2 := New(k2, Options{})
	st, err := f2.RecoverCoffer(th2, k2.RootCoffer())
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesReclaimed < cached {
		t.Fatalf("recovery reclaimed %d pages, want at least the %d cached and queued", st.PagesReclaimed, cached)
	}
	if len(st.Repairs) != 0 {
		t.Fatalf("recovery repaired %+v", st.Repairs)
	}
	if err := f2.VerifySpace(); err != nil {
		t.Fatal(err)
	}
	h, err := f2.Create(th2, "/after", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th2, make([]byte, blocks*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	h.Close(th2)
	assertNoRepairs(t, k2, th2)
}

// TestDirLookupFaultReleasesIndex faults inside a directory-index rebuild
// (the thread's protection window is closed, so the scan's first read of
// the directory raises an MPK violation). The unwind must release the
// index mutex and leave the index non-authoritative; the next lookup with
// the window open rebuilds it instead of blocking forever.
func TestDirLookupFaultReleasesIndex(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	h, err := f.Create(th, "/d/a", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	pos, err := f.walk(th, "/d", true, false)
	if err != nil {
		t.Fatal(err)
	}
	dirIno, m := pos.ino, pos.m
	pos.close()

	f.sh.dc.bump() // the next lookup must rebuild
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); !ok {
				t.Fatal("rebuild with the window closed did not fault")
			}
		}()
		f.dirLookup(th, dirIno, "a")
	}()
	idx := f.sh.dc.dir(dirIno)

	done := make(chan error, 1)
	go func() {
		cl := f.window(th, m, false)
		defer cl()
		_, _, err := f.dirLookup(th, dirIno, "a")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("lookup after the fault: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("directory index mutex still held after the faulted rebuild")
	}
	idx.mu.Lock()
	ok := idx.authoritative(f.sh.dc.epoch.Load())
	idx.mu.Unlock()
	if !ok {
		t.Fatal("index not rebuilt by the lookup after the fault")
	}
}

// TestOnlineRecoveryDropsReclaimQueue runs recovery from the process that
// holds queued inodes: resetSlotCaches must drop the queue with the batch
// caches (the kernel reclaims their pages), so nothing is freed twice and
// the space accounts still reconcile.
func TestOnlineRecoveryDropsReclaimQueue(t *testing.T) {
	SetDebugPool(true)
	defer SetDebugPool(false)
	_, k, f, th := newTestFS(t, Options{})
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/r%d", i)
		h, err := f.Create(th, path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, make([]byte, 2*pageSize), 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
		if err := f.Unlink(th, path); err != nil {
			t.Fatal(err)
		}
	}
	m := f.mounts[k.RootCoffer()]
	if n := len(m.threadSlotsFor(th.TID).reclaim); n != 4 {
		t.Fatalf("%d inodes queued, want 4", n)
	}
	st, err := f.RecoverCoffer(th, k.RootCoffer())
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesReclaimed < 4*3 {
		t.Fatalf("recovery reclaimed %d pages, want at least the 12 queued", st.PagesReclaimed)
	}
	m2, err := f.ensureMapped(th, k.RootCoffer(), true)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m2.threadSlotsFor(th.TID).reclaim); n != 0 {
		t.Fatalf("%d inodes still queued after recovery", n)
	}
	if err := f.VerifySpace(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h, err := f.Create(th, fmt.Sprintf("/s%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, make([]byte, 2*pageSize), 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}
	assertNoRepairs(t, k, th)
}
