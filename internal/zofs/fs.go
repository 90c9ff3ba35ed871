package zofs

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/vfs"
)

// Options selects ZoFS variants used in the paper's breakdown and
// worst-case experiments.
type Options struct {
	// SysEmptyPerWrite issues an empty system call before each file write
	// (ZoFS-sysempty, Figure 8).
	SysEmptyPerWrite bool
	// KernelWrite implements file writes "in kernel space": every write
	// charges a syscall and skips MPK window switches (ZoFS-kwrite,
	// Figure 8).
	KernelWrite bool
	// OneCoffer stores all files in a single coffer even when permissions
	// differ: chmod/chown become pure user-space inode updates and no
	// coffer is ever split (ZoFS-1coffer, Table 9).
	OneCoffer bool
	// NoMPK disables protection-window switching entirely (ablation).
	NoMPK bool
	// InlineData embeds small files' contents in the inode page (§5.1's
	// future-work optimization): no data page, no block pointer, one page
	// per small file instead of two.
	InlineData bool
	// DataEnlargeBatch and MetaEnlargeBatch are the coffer_enlarge request
	// sizes (pages) for the data and metadata per-thread free lists.
	// Metadata grants are kernel-zeroed; data grants are not (§5.2).
	DataEnlargeBatch int64
	MetaEnlargeBatch int64
	// CopyPath disables every hot-path optimization at once — the
	// scan-and-copy baseline (ZoFS-copypath): no borrowed device access
	// windows (metadata scans and dentry writes use the allocate-and-copy
	// device API), no volatile directory lookup index (every lookup and
	// insert walks the on-NVM two-level hash structure) and no per-thread
	// page caching (every page allocation and free updates the persistent
	// slot free-list chain).
	CopyPath bool
}

func (o *Options) fill() {
	if o.DataEnlargeBatch <= 0 {
		o.DataEnlargeBatch = 512
	}
	if o.MetaEnlargeBatch <= 0 {
		o.MetaEnlargeBatch = 32
	}
}

// FS is one process's ZoFS µFS instance. It caches coffer mappings and
// per-thread allocator slots; all persistent state lives in the device.
// Methods that take a *proc.Thread expect threads of the process that
// created the instance (FSLibs guarantees this).
type FS struct {
	kern *kernfs.KernFS
	sh   *shared
	opts Options

	mu      lockprof.RealMutex // guards mounts and revSeen; real-only, no virtual cost
	mounts  map[coffer.ID]*mount
	revSeen uint64 // last-seen kernel revocation generation (see ensureMapped)
}

// mount is a cached coffer mapping.
type mount struct {
	id       coffer.ID
	key      mpk.Key
	writable bool
	root     int64 // root-file inode page
	custom   int64 // allocator pool page

	slots sync.Map // TID (int) -> *threadSlots, claimed allocator slots
}

// threadSlots caches one thread's claimed allocator slot per class. Each
// value is touched only by its owning thread (the map is keyed by TID), so
// the fields need no further locking.
type threadSlots struct {
	slot [2]int32 // pool slot index per class; -1 = none
	head [2]int64 // volatile cache of the slot's free-list head
	// cache holds batched page grants and recycled frees as a volatile
	// per-thread free list (LIFO). Pages here are owned by the coffer but
	// referenced by nothing persistent: a crash leaks them and recovery
	// reclaims them as not-in-use (§5.3).
	cache [2][]int64
	// reclaim queues unlinked regular-file inodes whose pages have not been
	// released yet (see drainReclaim). Volatile like cache: a crash drops
	// it and recovery reclaims the queued inodes' pages.
	reclaim []int64
	// noSlotTries counts consecutive exhausted pool scans per class; it
	// indexes the unified retry policy's backoff schedule and resets to
	// zero once a slot is claimed.
	noSlotTries [2]int
	// noSlotUntil backs off pool-claim retries per class after claimSlot
	// found every slot leased (more live threads than pool slots): until
	// this virtual instant the thread allocates slotless through the
	// volatile cache instead of rescanning the pool on every page.
	noSlotUntil [2]int64
}

// Allocation classes: metadata pages are kernel-zeroed on enlarge, data
// pages are not.
const (
	classMeta = 0
	classData = 1
)

// New creates a ZoFS instance over a mounted KernFS for the calling
// process. The caller must have registered the process via kern.FSMount.
func New(kern *kernfs.KernFS, opts Options) *FS {
	opts.fill()
	f := &FS{
		kern:   kern,
		sh:     sharedFor(kern.Device()),
		opts:   opts,
		mounts: map[coffer.ID]*mount{},
	}
	f.mu.Init("zofs.mounts", "")
	return f
}

// Name implements vfs.FileSystem.
func (f *FS) Name() string { return "ZoFS" }

// Kern exposes the kernel module (tooling, tests).
func (f *FS) Kern() *kernfs.KernFS { return f.kern }

// Device returns the backing NVM device (byte-flow accounting, tooling).
func (f *FS) Device() *nvm.Device { return f.kern.Device() }

// SecondMount registers another process with the kernel and returns a µFS
// instance for it — the multi-process sharing setup of Tables 2 and §6.5.
func (f *FS) SecondMount(p *proc.Process) (vfs.FileSystem, error) {
	th := p.NewThread()
	if err := f.kern.FSMount(th); err != nil {
		return nil, err
	}
	return New(f.kern, f.opts), nil
}

// span returns the thread's causal-span context (nil when no collector is
// installed). Every ThreadCtx method is nil-safe, so call sites stay
// unconditional.
func (f *FS) span(th *proc.Thread) *spans.ThreadCtx {
	return spans.FromClock(th.Clk)
}

// errno translates kernel errors into vfs errors.
func errno(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, kernfs.ErrPerm):
		return vfs.ErrPerm
	case errors.Is(err, kernfs.ErrNotFound):
		return vfs.ErrNotExist
	case errors.Is(err, kernfs.ErrExists):
		return vfs.ErrExist
	case errors.Is(err, kernfs.ErrNoSpace):
		return vfs.ErrNoSpace
	case errors.Is(err, kernfs.ErrCofferReadOnly):
		return vfs.ErrReadOnlyCoffer
	case errors.Is(err, kernfs.ErrCofferOffline):
		return vfs.ErrOfflineCoffer
	case errors.Is(err, kernfs.ErrInRecovery), errors.Is(err, kernfs.ErrBusy):
		return vfs.ErrIO
	default:
		return err
	}
}

// ensureMapped returns the mount for a coffer, mapping it on demand and
// evicting another mapping when the process runs out of MPK regions
// (§3.4.2: "the µFS should call coffer_unmap to release MPK regions before
// mapping new coffers").
func (f *FS) ensureMapped(th *proc.Thread, id coffer.ID, write bool) (*mount, error) {
	gen := f.kern.RevocationGen(th.Proc.PID)
	f.mu.Lock()
	if gen != f.revSeen {
		// The kernel revoked or downgraded one of our mappings behind our
		// back (coffer delete, recovery eviction, quarantine): every cached
		// mount is suspect — a deleted coffer's ID may already name a new
		// coffer. Drop the cache; coffer_map re-issues cheaply for mappings
		// that are in fact still live.
		f.revSeen = gen
		f.mounts = make(map[coffer.ID]*mount)
	}
	if m, ok := f.mounts[id]; ok && (!write || m.writable) {
		f.mu.Unlock()
		return m, nil
	}
	f.mu.Unlock()

	for {
		mi, err := f.kern.CofferMap(th, id, write)
		if err == nil {
			f.mu.Lock()
			m, ok := f.mounts[id]
			if !ok {
				m = &mount{id: id}
				f.mounts[id] = m
			}
			m.key, m.writable = mi.Key, mi.Writable
			m.root, m.custom = mi.Root.RootInode, mi.Root.Custom
			f.mu.Unlock()
			return m, nil
		}
		if !errors.Is(err, kernfs.ErrNoMPKRegions) {
			return nil, errno(err)
		}
		if !f.evictOne(th, id) {
			return nil, errno(err)
		}
	}
}

// evictOne unmaps an arbitrary mapped coffer other than keep.
func (f *FS) evictOne(th *proc.Thread, keep coffer.ID) bool {
	f.mu.Lock()
	var victim coffer.ID
	found := false
	for id := range f.mounts {
		if id != keep {
			victim, found = id, true
			break
		}
	}
	if found {
		delete(f.mounts, victim)
	}
	f.mu.Unlock()
	if !found {
		return false
	}
	return f.kern.CofferUnmap(th, victim) == nil
}

// window opens the MPK access window for one coffer (guidelines G1+G2) and
// returns a closer. Variants that model kernel-side implementations skip
// the PKRU writes.
func (f *FS) window(th *proc.Thread, m *mount, write bool) func() {
	if f.opts.NoMPK || f.opts.KernelWrite {
		// Kernel-side / no-MPK variants: accesses are not MPK-mediated, so
		// the switch is free; the register is still tracked so the memory
		// safety checks stay meaningful.
		th.SetPKRUFree(mpk.DefaultPKRU().WithAccess(m.key, true, write && m.writable))
		return func() { th.SetPKRUFree(mpk.DefaultPKRU()) }
	}
	th.OpenWindow(m.key, write && m.writable)
	return th.CloseWindow
}

// walkPos is the result of a path walk: the coffer and inode a path
// resolves to, with the MPK window left OPEN on pos.m — the caller must
// invoke pos.close when done.
type walkPos struct {
	m     *mount
	ino   int64
	typ   vfs.FileType
	path  string
	close func()
}

// walk resolves an absolute, cleaned path to an inode.
//
// Per §5 it first finds the nearest enclosing coffer by backwards path
// parsing (longest prefix first; under a dispatched call kernfs.Resolve
// reuses the dispatcher's parse when it provably answers path), maps it,
// then walks the remaining components inside the coffer. A validated
// cross-coffer dentry switches the window to the target coffer (guidelines
// G2/G3). Symlink expansion is reported to the dispatcher via
// *vfs.SymlinkError (§4.2).
//
// followFinal controls whether a symlink at the final component is
// expanded. write requests a writable mapping/window on the final coffer.
func (f *FS) walk(th *proc.Thread, path string, followFinal, write bool) (walkPos, error) {
	cid, cofferPath, ok := f.kern.Resolve(th, path)
	if !ok {
		return walkPos{}, vfs.ErrNotExist
	}
	m, err := f.ensureMapped(th, cid, write)
	if err != nil {
		return walkPos{}, err
	}
	closer := f.window(th, m, write)

	rest := strings.TrimPrefix(path, cofferPath)
	rest = strings.TrimPrefix(rest, "/")
	pos := walkPos{m: m, ino: m.root, path: cofferPath, close: closer}
	if rest == "" {
		hdr := f.readInodeHeader(th, pos.ino)
		if u32at(hdr, inoMagicOff) != inoMagic {
			pos.close()
			return walkPos{}, fmt.Errorf("%w: bad root inode magic at %q ino %d", vfs.ErrCorrupted, pos.path, pos.ino)
		}
		pos.typ = vfs.FileType(u32at(hdr, inoTypeOff))
		if pos.typ == vfs.TypeSymlink && followFinal {
			target := f.readSymlink(th, pos.ino)
			pos.close()
			return walkPos{}, &vfs.SymlinkError{Path: resolveSymlink(pos.path, target, "")}
		}
		return pos, nil
	}

	comps := strings.Split(rest, "/")
	for i, comp := range comps {
		last := i == len(comps)-1
		if len(comp) > MaxNameLen {
			pos.close()
			return walkPos{}, vfs.ErrNameTooLong
		}
		hdr := f.readInodeHeader(th, pos.ino)
		if u32at(hdr, inoMagicOff) != inoMagic {
			pos.close()
			return walkPos{}, fmt.Errorf("%w: bad dir inode magic at %q ino %d", vfs.ErrCorrupted, pos.path, pos.ino)
		}
		typ := vfs.FileType(u32at(hdr, inoTypeOff))
		if typ == vfs.TypeSymlink {
			// Symlink in the middle of the walk: expand and re-dispatch.
			target := f.readSymlink(th, pos.ino)
			pos.close()
			return walkPos{}, &vfs.SymlinkError{Path: resolveSymlink(pos.path, target, strings.Join(comps[i:], "/"))}
		}
		if typ != vfs.TypeDir {
			pos.close()
			return walkPos{}, vfs.ErrNotDir
		}
		de, _, err := f.dirLookup(th, pos.ino, comp)
		if err != nil {
			pos.close()
			return walkPos{}, err
		}
		childPath := vfs.Join(pos.path, comp)
		if de.cofferID != 0 {
			// Cross-coffer reference: validate per G3 before making the
			// target accessible.
			target := coffer.ID(de.cofferID)
			info, ok := f.kern.Info(target)
			if !ok || info.Path != childPath || info.RootInode != de.inode {
				pos.close()
				return walkPos{}, fmt.Errorf("%w: cross-coffer dentry %q names coffer %d (known=%v path %q root %d, dentry inode %d)",
					vfs.ErrCorrupted, childPath, target, ok, info.Path, info.RootInode, de.inode)
			}
			pos.close()
			nm, err := f.ensureMapped(th, target, write)
			if err != nil {
				return walkPos{}, err
			}
			pos.m = nm
			pos.close = f.window(th, nm, write)
		}
		pos.ino = de.inode
		pos.path = childPath
		if last {
			hdr := f.readInodeHeader(th, pos.ino)
			if u32at(hdr, inoMagicOff) != inoMagic {
				pos.close()
				return walkPos{}, fmt.Errorf("%w: bad final inode magic at %q ino %d", vfs.ErrCorrupted, pos.path, pos.ino)
			}
			pos.typ = vfs.FileType(u32at(hdr, inoTypeOff))
			if pos.typ == vfs.TypeSymlink && followFinal {
				t := f.readSymlink(th, pos.ino)
				pos.close()
				return walkPos{}, &vfs.SymlinkError{Path: resolveSymlink(pos.path, t, "")}
			}
		}
	}
	return pos, nil
}

// resolveSymlink rewrites a path after expanding a symlink found at
// linkPath with the given target; rest is the unconsumed suffix.
func resolveSymlink(linkPath, target, rest string) string {
	var base string
	if strings.HasPrefix(target, "/") {
		base = target
	} else {
		dir, _ := vfs.SplitPath(linkPath)
		base = vfs.Join(dir, target)
	}
	if rest != "" {
		base = base + "/" + rest
	}
	return cleanPath(base)
}

// cleanPath normalizes "//", "." and ".." lexically.
func cleanPath(p string) string {
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, c := range parts {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return "/" + strings.Join(out, "/")
}

// readView returns a borrowed window over [off, off+n), charged like a
// device read, falling back to an allocated copy when zero-copy is disabled
// or the range crosses a chunk boundary (never for page-granular accesses).
// The view aliases live media: read-only, valid only while the current MPK
// window stays open.
func (f *FS) readView(th *proc.Thread, off, n int64) []byte {
	if !f.opts.CopyPath {
		if v, ok := th.ReadView(off, n); ok {
			return v
		}
	}
	cost := perfmodel.StageCost(int(n))
	th.CPU(cost)
	f.span(th).Bill(spans.CompMemcpy, cost)
	buf := make([]byte, n)
	th.Read(off, buf)
	return buf
}

// readViewCached is readView charged as a CPU-cache hit.
func (f *FS) readViewCached(th *proc.Thread, off, n int64) []byte {
	if !f.opts.CopyPath {
		if v, ok := th.ReadViewCached(off, n); ok {
			return v
		}
	}
	cost := perfmodel.StageCost(int(n))
	th.CPU(cost)
	f.span(th).Bill(spans.CompMemcpy, cost)
	buf := make([]byte, n)
	th.ReadCached(off, buf)
	return buf
}

// readInodeHeader reads the 64-byte inode header, charged as a CPU-cache
// hit: walks repeatedly touch the same hot inode headers, exactly the lines
// a real CPU keeps resident. The result borrows the device image — callers
// only decode fields from it.
func (f *FS) readInodeHeader(th *proc.Thread, ino int64) []byte {
	return f.readViewCached(th, ino*pageSize, inoHeaderLen)
}

// readSymlink reads a symlink inode's target.
func (f *FS) readSymlink(th *proc.Thread, ino int64) string {
	var lenb [2]byte
	th.Read(ino*pageSize+inoSymLenOff, lenb[:])
	n := int(lenb[0]) | int(lenb[1])<<8
	if n <= 0 || n > symMaxLen {
		return ""
	}
	buf := make([]byte, n)
	th.Read(ino*pageSize+inoSymTgtOff, buf)
	return string(buf)
}

// maybeEmptySyscall implements the ZoFS-sysempty variant (Figure 8).
func (f *FS) maybeEmptySyscall(th *proc.Thread) {
	if f.opts.SysEmptyPerWrite {
		th.Syscall()
	}
}

// maybeKernelCall implements the ZoFS-kwrite variant (Figure 8): the write
// path runs in the kernel, so it pays syscall entry/exit plus the generic
// in-kernel dispatch work (argument copying, VFS-layer locking).
func (f *FS) maybeKernelCall(th *proc.Thread) {
	if f.opts.KernelWrite {
		th.Syscall()
		th.CPU(perfmodel.VFSOverhead)
	}
}
