// Package fslibs implements the user-space half of Treasury (paper §3.2,
// §4.2): the library preloaded into applications. It contains the
// dispatcher that routes intercepted file system calls to the right µFS by
// coffer type, the user-space FD mapping table with POSIX lowest-FD
// semantics (dup-correct, serializable across exec), current-working-
// directory tracking, symlink re-dispatch, and the graceful-error-return
// mechanism that converts faults inside µFS code into file system errors
// instead of killing the process (§3.4.2).
package fslibs

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/logfs"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// maxSymlinkHops bounds symlink expansion loops (ELOOP analogue).
const maxSymlinkHops = 40

// ErrLoop reports circular symlink expansion.
var ErrLoop = errors.New("fslibs: too many levels of symbolic links")

// Options configures a Lib instance.
type Options struct {
	// MountPath is where the Treasury namespace appears in the process's
	// view; paths outside it are rejected (or routed to Fallback).
	// Defaults to "/".
	MountPath string
	// Fallback handles paths outside MountPath (the "kernel file system"
	// in the paper's dispatcher). Nil means such paths fail with
	// vfs.ErrNotExist.
	Fallback vfs.FileSystem
	// ZoFS options for the instantiated µFS.
	ZoFS zofs.Options
}

// Lib is one process's FSLibs instance.
type Lib struct {
	kern  *kernfs.KernFS
	opts  Options
	byTyp map[coffer.Type]vfs.FileSystem

	mu  lockprof.RealMutex // guards fds/cwd; real-only, no virtual cost
	fds map[int]*fdEntry
	cwd string
}

type fdEntry struct {
	h        vfs.Handle
	path     string // the path the FS saw: µFS-internal, or Fallback's
	fallback bool   // path belongs to Fallback, not the Treasury mount
	flags    int
	pos      int64
}

// Mount registers the process with KernFS (fs_mount) and builds the
// dispatcher with a ZoFS µFS attached for ZoFS-type coffers.
func Mount(kern *kernfs.KernFS, th *proc.Thread, opts Options) (*Lib, error) {
	if opts.MountPath == "" {
		opts.MountPath = "/"
	}
	if err := kern.FSMount(th); err != nil {
		return nil, err
	}
	l := &Lib{
		kern: kern,
		opts: opts,
		byTyp: map[coffer.Type]vfs.FileSystem{
			coffer.TypeZoFS: zofs.New(kern, opts.ZoFS),
			logfs.TypeLogFS: logfs.New(kern),
		},
		fds: map[int]*fdEntry{},
		cwd: "/",
	}
	l.mu.Init("fslib.fds", strconv.Itoa(th.Proc.PID))
	return l, nil
}

// Umount deregisters from KernFS and drops all FDs.
func (l *Lib) Umount(th *proc.Thread) error {
	l.mu.Lock()
	l.fds = map[int]*fdEntry{}
	l.mu.Unlock()
	return l.kern.FSUmount(th)
}

// RegisterFS attaches a µFS for a coffer type (Treasury supports multiple
// µFS implementations side by side, §3.2).
func (l *Lib) RegisterFS(typ coffer.Type, fs vfs.FileSystem) { l.byTyp[typ] = fs }

// ZoFS returns the attached ZoFS instance (tooling, recovery).
func (l *Lib) ZoFS() *zofs.FS { return l.byTyp[coffer.TypeZoFS].(*zofs.FS) }

// guard is the graceful-error-return mechanism: panics raised by MPK
// violations or wild device accesses inside µFS code are converted into a
// file system error, and the thread's protection window is force-closed —
// the analogue of the SIGSEGV handler's siglongjmp back to the FSLibs
// function entry (§3.4.2).
func (l *Lib) guard(th *proc.Thread, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if nvm.IsInjectedCrash(r) {
		panic(r) // crash injection must propagate to the test harness
	}
	viol, isViolation := r.(mpk.Violation)
	if _, isFault := r.(nvm.Fault); !isFault && !isViolation {
		panic(r)
	}
	rec := l.kern.Device().Recorder()
	rec.Inc(telemetry.CtrFaultsRecovered)
	// The op survives with an error, but its span records the abort so
	// the attribution tables can separate faulted from clean latency.
	spans.FromClock(th.Clk).MarkAborted()
	th.CloseWindow()
	if isViolation {
		rec.Inc(telemetry.CtrMPKViolations)
		// Attribute the faulting page to its coffer and report it, so
		// repeated stray writes at one victim trip the kernel's read-only
		// quarantine (DESIGN.md §13) instead of faulting forever.
		if id, ok := l.kern.OwnerOf(viol.Page); ok {
			l.kern.ReportViolation(th, id)
		}
	}
	// The kernel may have changed our mappings behind the library's
	// back (recovery unmaps coffers, §3.5; quarantine downgrades or
	// evicts them): drop cached mappings so the next operation re-issues
	// coffer_map and observes the typed quarantine error.
	if z, ok := l.byTyp[coffer.TypeZoFS].(*zofs.FS); ok {
		z.InvalidateAll()
	}
	*err = fmt.Errorf("%w: fault inside FS library: %v", vfs.ErrIO, r)
}

// trace opens the op's observation (obsfs.Begin) against the device's
// recorder. Deferred textually before guard so it observes the clock after
// any fault recovery has been charged — and, for spans, so the root closes
// after guard has marked it aborted.
func (l *Lib) trace(th *proc.Thread, op telemetry.Op, path string) func() {
	return obsfs.Begin(l.kern.Device().Recorder(), th, op, path)
}

// abs normalizes a path against the CWD into the process's view.
func (l *Lib) abs(path string) string {
	if !strings.HasPrefix(path, "/") {
		l.mu.Lock()
		path = l.cwd + "/" + path
		l.mu.Unlock()
	}
	return Clean(path)
}

// resolve normalizes a path against the CWD and checks the mount point,
// returning the µFS-internal path.
func (l *Lib) resolve(path string) (string, bool) {
	path = l.abs(path)
	mp := l.opts.MountPath
	if mp == "/" {
		return path, true
	}
	if path == mp {
		return "/", true
	}
	if strings.HasPrefix(path, mp+"/") {
		return path[len(mp):], true
	}
	return path, false
}

// Clean lexically normalizes an absolute or relative path.
func Clean(p string) string { return vfs.Clean(p) }

// fsFor picks the µFS for a path by the enclosing coffer's type (§4.2:
// "dispatch the system calls to the corresponding µFS according to the
// coffer type"). The parse is recorded on th, so the µFS resolves the
// coffer from it instead of parsing the path a second time.
func (l *Lib) fsFor(th *proc.Thread, path string) (vfs.FileSystem, error) {
	id, ok := l.kern.ResolveDispatch(th, path)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	info, ok := l.kern.Info(id)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	fs := l.byTyp[info.Type]
	if fs == nil {
		return nil, fmt.Errorf("%w: no µFS for coffer type %d", vfs.ErrInvalid, info.Type)
	}
	return fs, nil
}

// dispatch runs op against the µFS for path, re-dispatching on symlink
// expansion (§4.2: "the new path will be returned to the dispatcher, which
// will re-dispatch the file request").
func (l *Lib) dispatch(th *proc.Thread, path string, op func(fs vfs.FileSystem, p string) error) error {
	p, inMount := l.resolve(path)
	return l.dispatchAt(th, p, inMount, op)
}

// dispatchAt is dispatch for a path already resolved against the CWD and
// mount point: a µFS-internal path, or a Fallback path when !inMount.
func (l *Lib) dispatchAt(th *proc.Thread, p string, inMount bool, op func(fs vfs.FileSystem, p string) error) error {
	sp := spans.FromClock(th.Clk)
	// fsFor's parse record is valid for this call only: drop it however
	// the µFS returns, fault unwinds included.
	defer func() { th.Resolved = proc.Resolution{} }()
	for hop := 0; ; hop++ {
		if hop > maxSymlinkHops {
			return ErrLoop
		}
		t0 := th.Clk.Now()
		var fs vfs.FileSystem
		if inMount {
			var err error
			if fs, err = l.fsFor(th, p); err != nil {
				return err
			}
		} else {
			if l.opts.Fallback == nil {
				return vfs.ErrNotExist
			}
			fs = l.opts.Fallback
		}
		// Coffer-type routing (the call's one backward parse) is the
		// dispatcher's own cost; record it as a child span per hop so symlink
		// re-dispatch shows up as repeated dispatch segments on the timeline.
		sp.Child("fslib.dispatch", t0, th.Clk.Now()-t0)
		err := op(fs, p)
		var se *vfs.SymlinkError
		if errors.As(err, &se) {
			p = se.Path
			continue
		}
		return err
	}
}

// ---- FD table ----------------------------------------------------------------

// allocFD returns the lowest unused FD number — the dup() guarantee the
// paper calls out as incompatible with range-split FD schemes (§4.2).
func (l *Lib) allocFD() int {
	for fd := 0; ; fd++ {
		if _, used := l.fds[fd]; !used {
			return fd
		}
	}
}

func (l *Lib) getFD(fd int) (*fdEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.fds[fd]
	if e == nil {
		return nil, vfs.ErrBadFD
	}
	return e, nil
}

// Open opens path, returning the new FD.
func (l *Lib) Open(th *proc.Thread, path string, flags int, mode coffer.Mode) (fd int, err error) {
	defer l.trace(th, telemetry.OpOpen, path)()
	defer l.guard(th, &err)
	var h vfs.Handle
	var finalPath string
	p, inMount := l.resolve(path)
	err = l.dispatchAt(th, p, inMount, func(fs vfs.FileSystem, p string) error {
		var e error
		finalPath = p
		switch {
		case flags&vfs.O_CREATE == 0:
			h, e = fs.Open(th, p, flags)
		case flags&vfs.O_TRUNC != 0 && flags&vfs.O_EXCL == 0:
			// creat(): every µFS's Create truncates an existing file and
			// returns a final-component symlink for re-dispatch, so one
			// walk does what a lookup, a create and a reopen did.
			h, e = fs.Create(th, p, mode)
			if errors.Is(e, vfs.ErrPerm) || errors.Is(e, vfs.ErrReadOnlyCoffer) {
				// Create needs the directory writable; truncating an
				// existing file needs only the file writable.
				h, e = fs.Open(th, p, flags)
			}
		default:
			_, statErr := fs.Stat(th, p)
			switch {
			case statErr == nil && flags&vfs.O_EXCL != 0:
				return vfs.ErrExist
			case errors.Is(statErr, vfs.ErrNotExist):
				h, e = fs.Create(th, p, mode)
			default:
				h, e = fs.Open(th, p, flags)
			}
		}
		return e
	})
	if err != nil {
		return -1, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fd = l.allocFD()
	e := &fdEntry{h: h, path: finalPath, fallback: !inMount, flags: flags}
	if flags&vfs.O_APPEND != 0 {
		if fi, serr := h.Stat(th); serr == nil {
			e.pos = fi.Size
		}
	}
	l.fds[fd] = e
	return fd, nil
}

// Create is creat(2): create-or-truncate, write-only FD.
func (l *Lib) Create(th *proc.Thread, path string, mode coffer.Mode) (int, error) {
	return l.Open(th, path, vfs.O_CREATE|vfs.O_TRUNC|vfs.O_RDWR, mode)
}

// Close releases an FD.
func (l *Lib) Close(th *proc.Thread, fd int) (err error) {
	defer l.trace(th, telemetry.OpClose, "")()
	defer l.guard(th, &err)
	l.mu.Lock()
	e := l.fds[fd]
	delete(l.fds, fd)
	l.mu.Unlock()
	if e == nil {
		return vfs.ErrBadFD
	}
	return e.h.Close(th)
}

// Dup duplicates an FD onto the lowest available number.
func (l *Lib) Dup(fd int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.fds[fd]
	if e == nil {
		return -1, vfs.ErrBadFD
	}
	nfd := l.allocFD()
	l.fds[nfd] = e // shared offset, as with POSIX dup
	return nfd, nil
}

// Dup2 duplicates an FD onto a specific number, closing any previous one.
func (l *Lib) Dup2(th *proc.Thread, fd, to int) (int, error) {
	l.mu.Lock()
	e := l.fds[fd]
	old := l.fds[to]
	if e != nil {
		l.fds[to] = e
	}
	l.mu.Unlock()
	if e == nil {
		return -1, vfs.ErrBadFD
	}
	if old != nil && old != e {
		old.h.Close(th)
	}
	return to, nil
}

// Read reads from the FD's current offset.
func (l *Lib) Read(th *proc.Thread, fd int, buf []byte) (n int, err error) {
	defer l.trace(th, telemetry.OpRead, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	pos := e.pos
	l.mu.Unlock()
	n, err = e.h.ReadAt(th, buf, pos)
	l.mu.Lock()
	e.pos = pos + int64(n)
	l.mu.Unlock()
	return n, err
}

// Write writes at the FD's current offset (or atomically at EOF for
// O_APPEND FDs).
func (l *Lib) Write(th *proc.Thread, fd int, buf []byte) (n int, err error) {
	defer l.trace(th, telemetry.OpWrite, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return 0, err
	}
	if e.flags&vfs.O_APPEND != 0 {
		off, aerr := e.h.Append(th, buf)
		if aerr != nil {
			return 0, aerr
		}
		l.kern.Device().AddAppBytes(int64(len(buf)))
		l.mu.Lock()
		e.pos = off + int64(len(buf))
		l.mu.Unlock()
		return len(buf), nil
	}
	l.mu.Lock()
	pos := e.pos
	l.mu.Unlock()
	n, err = e.h.WriteAt(th, buf, pos)
	// The dispatcher is the application boundary for preloaded programs, so
	// it credits the byte-flow ledger's app bytes — the same role obsfs
	// plays for the benchmark harnesses.
	l.kern.Device().AddAppBytes(int64(n))
	l.mu.Lock()
	e.pos = pos + int64(n)
	l.mu.Unlock()
	return n, err
}

// Pread reads at an explicit offset without moving the FD offset.
func (l *Lib) Pread(th *proc.Thread, fd int, buf []byte, off int64) (n int, err error) {
	defer l.trace(th, telemetry.OpRead, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return 0, err
	}
	return e.h.ReadAt(th, buf, off)
}

// Pwrite writes at an explicit offset without moving the FD offset.
func (l *Lib) Pwrite(th *proc.Thread, fd int, buf []byte, off int64) (n int, err error) {
	defer l.trace(th, telemetry.OpWrite, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return 0, err
	}
	n, err = e.h.WriteAt(th, buf, off)
	l.kern.Device().AddAppBytes(int64(n))
	return n, err
}

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Lseek repositions the FD offset.
func (l *Lib) Lseek(th *proc.Thread, fd int, off int64, whence int) (int64, error) {
	e, err := l.getFD(fd)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = e.pos
	case SeekEnd:
		fi, serr := e.h.Stat(th)
		if serr != nil {
			return 0, serr
		}
		base = fi.Size
	default:
		return 0, vfs.ErrInvalid
	}
	if base+off < 0 {
		return 0, vfs.ErrInvalid
	}
	e.pos = base + off
	return e.pos, nil
}

// Fsync persists an FD (synchronous µFSs make this a no-op).
func (l *Lib) Fsync(th *proc.Thread, fd int) (err error) {
	defer l.trace(th, telemetry.OpFsync, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return err
	}
	return e.h.Sync(th)
}

// Fstat stats an open FD.
func (l *Lib) Fstat(th *proc.Thread, fd int) (fi vfs.FileInfo, err error) {
	defer l.trace(th, telemetry.OpStat, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return e.h.Stat(th)
}

// Ftruncate resizes an open FD.
func (l *Lib) Ftruncate(th *proc.Thread, fd int, size int64) (err error) {
	defer l.trace(th, telemetry.OpTruncate, "")()
	defer l.guard(th, &err)
	e, err := l.getFD(fd)
	if err != nil {
		return err
	}
	return l.dispatchAt(th, e.path, !e.fallback, func(fs vfs.FileSystem, p string) error {
		return fs.Truncate(th, p, size)
	})
}

// ---- path operations -----------------------------------------------------------

// Stat stats a path (following symlinks).
func (l *Lib) Stat(th *proc.Thread, path string) (fi vfs.FileInfo, err error) {
	defer l.trace(th, telemetry.OpStat, path)()
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		fi, e = fs.Stat(th, p)
		return e
	})
	return fi, err
}

// Mkdir creates a directory.
func (l *Lib) Mkdir(th *proc.Thread, path string, mode coffer.Mode) (err error) {
	defer l.trace(th, telemetry.OpMkdir, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Mkdir(th, p, mode)
	})
}

// Unlink removes a file.
func (l *Lib) Unlink(th *proc.Thread, path string) (err error) {
	defer l.trace(th, telemetry.OpUnlink, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Unlink(th, p)
	})
}

// Rmdir removes an empty directory.
func (l *Lib) Rmdir(th *proc.Thread, path string) (err error) {
	defer l.trace(th, telemetry.OpRmdir, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Rmdir(th, p)
	})
}

// Rename moves a file or directory.
func (l *Lib) Rename(th *proc.Thread, oldPath, newPath string) (err error) {
	defer l.trace(th, telemetry.OpRename, oldPath)()
	defer l.guard(th, &err)
	np, inMount := l.resolve(newPath)
	if !inMount {
		return vfs.ErrCrossDevice
	}
	return l.dispatch(th, oldPath, func(fs vfs.FileSystem, p string) error {
		return fs.Rename(th, p, np)
	})
}

// Chmod changes permission bits.
func (l *Lib) Chmod(th *proc.Thread, path string, mode coffer.Mode) (err error) {
	defer l.trace(th, telemetry.OpChmod, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Chmod(th, p, mode)
	})
}

// Chown changes ownership.
func (l *Lib) Chown(th *proc.Thread, path string, uid, gid uint32) (err error) {
	defer l.trace(th, telemetry.OpChown, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Chown(th, p, uid, gid)
	})
}

// Symlink creates a symbolic link.
func (l *Lib) Symlink(th *proc.Thread, target, link string) (err error) {
	defer l.trace(th, telemetry.OpSymlink, link)()
	defer l.guard(th, &err)
	return l.dispatch(th, link, func(fs vfs.FileSystem, p string) error {
		return fs.Symlink(th, target, p)
	})
}

// Readlink reads a symlink's target.
func (l *Lib) Readlink(th *proc.Thread, path string) (target string, err error) {
	defer l.trace(th, telemetry.OpReadlink, path)()
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		target, e = fs.Readlink(th, p)
		return e
	})
	return target, err
}

// ReadDir lists a directory.
func (l *Lib) ReadDir(th *proc.Thread, path string) (ents []vfs.DirEntry, err error) {
	defer l.trace(th, telemetry.OpReadDir, path)()
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		ents, e = fs.ReadDir(th, p)
		return e
	})
	return ents, err
}

// Truncate resizes a file by path.
func (l *Lib) Truncate(th *proc.Thread, path string, size int64) (err error) {
	defer l.trace(th, telemetry.OpTruncate, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Truncate(th, p, size)
	})
}

// Chdir changes the maintained working directory (§4.2: "we prepend the
// maintained current working directory path to the relative path").
func (l *Lib) Chdir(th *proc.Thread, path string) error {
	fi, err := l.Stat(th, path)
	if err != nil {
		return err
	}
	if fi.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	p := l.abs(path)
	l.mu.Lock()
	l.cwd = p
	l.mu.Unlock()
	return nil
}

// Getcwd returns the maintained working directory.
func (l *Lib) Getcwd() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cwd
}

// ---- exec FD-table serialization -------------------------------------------------

// fdEnvVar is the dedicated environment variable carrying the FD table
// across exec (§4.2: "we serialize the FD mapping table content using
// base64 and pass it across exec calls").
const fdEnvVar = "ZOFS_FDTABLE"

type fdRecord struct {
	FD       int    `json:"fd"`
	Path     string `json:"path"` // as the FS saw it, mount prefix stripped
	Fallback bool   `json:"fallback,omitempty"`
	Flags    int    `json:"flags"`
	Pos      int64  `json:"pos"`
}

// SerializeFDs encodes the FD table for exec, returning the environment
// entry ("ZOFS_FDTABLE=...").
func (l *Lib) SerializeFDs() (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([]fdRecord, 0, len(l.fds))
	for fd, e := range l.fds {
		recs = append(recs, fdRecord{FD: fd, Path: e.path, Fallback: e.fallback, Flags: e.flags, Pos: e.pos})
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		return "", err
	}
	return fdEnvVar + "=" + base64.StdEncoding.EncodeToString(raw), nil
}

// RestoreFDs rebuilds the FD table in a freshly exec'd process from the
// environment entry produced by SerializeFDs.
func (l *Lib) RestoreFDs(th *proc.Thread, env string) error {
	v, ok := strings.CutPrefix(env, fdEnvVar+"=")
	if !ok {
		return fmt.Errorf("fslibs: bad FD-table env entry")
	}
	raw, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return err
	}
	var recs []fdRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		return err
	}
	for _, r := range recs {
		var h vfs.Handle
		derr := l.dispatchAt(th, r.Path, !r.Fallback, func(fs vfs.FileSystem, p string) error {
			var e error
			h, e = fs.Open(th, p, r.Flags&^(vfs.O_TRUNC|vfs.O_EXCL|vfs.O_CREATE))
			return e
		})
		if derr != nil {
			continue // the file vanished; the FD is simply absent, as after a failed reopen
		}
		l.mu.Lock()
		l.fds[r.FD] = &fdEntry{h: h, path: r.Path, fallback: r.Fallback, flags: r.Flags, pos: r.Pos}
		l.mu.Unlock()
	}
	return nil
}

// Exec simulates execve through Treasury: the FD table is serialized into
// the environment, the kernel validates/maps the executable (file_execve),
// and a fresh Lib for the same process is returned with the FD table
// restored.
func (l *Lib) Exec(th *proc.Thread, exePath string) (*Lib, error) {
	env, err := l.SerializeFDs()
	if err != nil {
		return nil, err
	}
	p, inMount := l.resolve(exePath)
	if !inMount {
		return nil, vfs.ErrNotExist
	}
	id, _, ok := l.kern.ResolveLongest(th.Clk, p)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if err := l.kern.FileExecve(th, id, nil); err != nil && !errors.Is(err, kernfs.ErrNotMapped) {
		return nil, err
	}
	// The process image is replaced: fresh library state, same process.
	nl := &Lib{
		kern: l.kern,
		opts: l.opts,
		byTyp: map[coffer.Type]vfs.FileSystem{
			coffer.TypeZoFS: zofs.New(l.kern, l.opts.ZoFS),
			logfs.TypeLogFS: logfs.New(l.kern),
		},
		fds: map[int]*fdEntry{},
		cwd: l.Getcwd(),
	}
	if err := nl.RestoreFDs(th, env); err != nil {
		return nil, err
	}
	return nl, nil
}
