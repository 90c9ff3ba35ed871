// Package logfs is a second µFS for the Treasury architecture — the
// log-structured file system the paper says "one can implement … in
// Treasury as well" (§5.3). It demonstrates the architecture's central
// flexibility claim: a different user-space library manages the interior of
// its coffers with a completely different layout, while KernFS provides the
// same protection, allocation and naming services, and the FSLibs
// dispatcher routes operations to it by coffer type.
//
// Design (contrast with ZoFS):
//   - The coffer interior is an append-only log of checksummed records
//     (inode images carrying the file's full relative path and block list)
//     chained through segment pages; the custom page stores the segment
//     list head and the committed tail.
//   - The namespace is FLAT within the coffer (§5's suggested alternative):
//     records key files by their coffer-relative path; directories are
//     records with no blocks; ReadDir is an index prefix scan.
//   - Updates never write in place: data goes to fresh pages, then a new
//     inode record supersedes the old one; the log tail pointer is the
//     atomic commit. Crash recovery replays the log up to the committed
//     tail; superseded records and orphaned data pages are reclaimed by
//     compaction (the log cleaner).
package logfs

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

const pageSize = nvm.PageSize

// Custom-page layout: the log superblock (kernel gives LogFS this page).
const (
	lsMagic    = 0x4C4F474653000000 // "LOGFS"
	lsMagicOff = 0
	lsSegHead  = 8  // u64: first segment page
	lsTailSeg  = 16 // u64: committed tail segment page
	lsTailOff  = 24 // u64: committed offset within the tail segment
)

// Segment pages chain through their first 8 bytes; records start at 16.
const (
	segNextOff  = 0
	segFirstRec = 16
)

// Record layout.
const (
	recHdr     = 24 // len u32, crc u32, typ u8, pad u8, pathLen u16, mode u32, size u64
	recLenOff  = 0
	recCRCOff  = 4
	recTypOff  = 8
	recPathLen = 10
	recModeOff = 12
	recSizeOff = 16
	// path bytes follow the header, then nBlocks u64 block pointers.

	recDead = 0xff // record type marking a deletion (tombstone)
)

// enlargeBatch is the segment/data allocation batch.
const enlargeBatch = 256

// compactThreshold triggers the cleaner when the coffer holds this many
// times the live data's pages.
const compactThreshold = 3

// meta is the volatile index entry for one live file.
type meta struct {
	typ    vfs.FileType
	mode   coffer.Mode
	uid    uint32
	gid    uint32
	size   int64
	blocks []int64
	target string // symlink
	mtime  int64
}

// FS is a LogFS instance for one process. One instance manages every
// LogFS-type coffer it encounters (each coffer has its own log and index).
type FS struct {
	kern *kernfs.KernFS

	mu      sync.Mutex
	coffers map[coffer.ID]*logCoffer
}

// logCoffer is the per-coffer state.
type logCoffer struct {
	id     coffer.ID
	key    mpk.Key
	custom int64
	path   string // coffer path prefix

	mu       sync.Mutex
	index    map[string]*meta // coffer-relative path -> live meta
	segs     []int64          // segment pages, in order
	tailSeg  int64
	tailOff  int64
	freeData []int64 // data pages available for fresh writes
	liveData int64   // pages referenced by the index
	total    int64   // pages ever allocated to data/segments
}

// New creates a LogFS instance over a mounted KernFS.
func New(kern *kernfs.KernFS) *FS {
	return &FS{kern: kern, coffers: map[coffer.ID]*logCoffer{}}
}

// Name implements vfs.FileSystem.
func (f *FS) Name() string { return "LogFS" }

var _ vfs.FileSystem = (*FS)(nil)

// Format initializes a fresh LogFS coffer (idempotent): writes the log
// superblock into the custom page. The caller must have write access.
func (f *FS) Format(th *proc.Thread, id coffer.ID) error {
	lc, err := f.attach(th, id)
	if err != nil {
		return err
	}
	_ = lc
	return nil
}

// attach maps a coffer and loads (or initializes) its log.
func (f *FS) attach(th *proc.Thread, id coffer.ID) (*logCoffer, error) {
	f.mu.Lock()
	if lc, ok := f.coffers[id]; ok {
		f.mu.Unlock()
		return lc, nil
	}
	f.mu.Unlock()

	mi, err := f.kern.CofferMap(th, id, true)
	if err != nil {
		return nil, errnoK(err)
	}
	lc := &logCoffer{
		id: id, key: mi.Key, custom: mi.Root.Custom, path: mi.Root.Path,
		index: map[string]*meta{},
	}
	cl := f.window(th, lc, true)
	defer cl()
	if th.Load64(lc.custom*pageSize+lsMagicOff) != lsMagic {
		// Fresh coffer: allocate the first segment and commit an empty log.
		seg, err := f.newPages(th, lc, 1)
		if err != nil {
			return nil, err
		}
		th.Store64(seg[0]*pageSize+segNextOff, 0)
		th.Store64(lc.custom*pageSize+lsSegHead, uint64(seg[0]))
		th.Store64(lc.custom*pageSize+lsTailSeg, uint64(seg[0]))
		th.Store64(lc.custom*pageSize+lsTailOff, segFirstRec)
		th.Store64(lc.custom*pageSize+lsMagicOff, lsMagic)
		lc.segs = []int64{seg[0]}
		lc.tailSeg, lc.tailOff = seg[0], segFirstRec
	} else if err := f.replay(th, lc); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.coffers[id] = lc
	f.mu.Unlock()
	return lc, nil
}

// window opens the MPK window (G1/G2 hold for LogFS exactly as for ZoFS).
func (f *FS) window(th *proc.Thread, lc *logCoffer, write bool) func() {
	th.OpenWindow(lc.key, write)
	return th.CloseWindow
}

// newPages allocates pages via coffer_enlarge, buffering a batch.
func (f *FS) newPages(th *proc.Thread, lc *logCoffer, n int) ([]int64, error) {
	var out []int64
	for len(out) < n {
		if len(lc.freeData) == 0 {
			exts, err := f.kern.CofferEnlarge(th, lc.id, enlargeBatch, false)
			if err != nil {
				return nil, errnoK(err)
			}
			for _, e := range exts {
				for pg := e.Start; pg < e.End(); pg++ {
					lc.freeData = append(lc.freeData, pg)
					lc.total++
				}
			}
		}
		out = append(out, lc.freeData[len(lc.freeData)-1])
		lc.freeData = lc.freeData[:len(lc.freeData)-1]
	}
	return out, nil
}

// errnoK maps kernel errors to vfs errors.
func errnoK(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, kernfs.ErrPerm):
		return vfs.ErrPerm
	case errors.Is(err, kernfs.ErrNotFound):
		return vfs.ErrNotExist
	case errors.Is(err, kernfs.ErrNoSpace):
		return vfs.ErrNoSpace
	default:
		return err
	}
}

// ---- log records ---------------------------------------------------------------

// encodeRecord builds a record image for a live meta (or tombstone).
func encodeRecord(rel string, m *meta, dead bool) []byte {
	nBlocks := 0
	target := ""
	if m != nil {
		nBlocks = len(m.blocks)
		target = m.target
	}
	size := recHdr + len(rel) + 8*nBlocks + 2 + len(target)
	buf := make([]byte, (size+7)&^7)
	binary.LittleEndian.PutUint32(buf[recLenOff:], uint32(len(buf)))
	typ := byte(recDead)
	if !dead {
		typ = byte(m.typ)
	}
	buf[recTypOff] = typ
	binary.LittleEndian.PutUint16(buf[recPathLen:], uint16(len(rel)))
	if m != nil {
		binary.LittleEndian.PutUint32(buf[recModeOff:], uint32(m.mode))
		binary.LittleEndian.PutUint64(buf[recSizeOff:], uint64(m.size))
	}
	off := recHdr
	copy(buf[off:], rel)
	off += len(rel)
	if m != nil {
		for _, b := range m.blocks {
			binary.LittleEndian.PutUint64(buf[off:], uint64(b))
			off += 8
		}
	}
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(target)))
	copy(buf[off+2:], target)
	binary.LittleEndian.PutUint32(buf[recCRCOff:], crcOf(buf))
	return buf
}

func crcOf(buf []byte) uint32 {
	// CRC over everything except the CRC field itself.
	h := crc32.NewIEEE()
	h.Write(buf[:recCRCOff])
	h.Write(buf[recCRCOff+4:])
	return h.Sum32()
}

// decodeRecord parses a record; returns rel path, meta (nil for tombstone)
// and the record length, or an error for a torn/corrupt record.
func decodeRecord(buf []byte) (string, *meta, int, error) {
	if len(buf) < recHdr {
		return "", nil, 0, errors.New("short")
	}
	l := int(binary.LittleEndian.Uint32(buf[recLenOff:]))
	if l < recHdr || l > len(buf) || l%8 != 0 {
		return "", nil, 0, errors.New("bad length")
	}
	want := binary.LittleEndian.Uint32(buf[recCRCOff:])
	if crcOf(buf[:l]) != want {
		return "", nil, 0, errors.New("bad crc")
	}
	pl := int(binary.LittleEndian.Uint16(buf[recPathLen:]))
	rel := string(buf[recHdr : recHdr+pl])
	if buf[recTypOff] == recDead {
		return rel, nil, l, nil
	}
	m := &meta{
		typ:  vfs.FileType(buf[recTypOff]),
		mode: coffer.Mode(binary.LittleEndian.Uint32(buf[recModeOff:])),
		size: int64(binary.LittleEndian.Uint64(buf[recSizeOff:])),
	}
	off := recHdr + pl
	nBlocks := (int64(m.size) + pageSize - 1) / pageSize
	if m.typ != vfs.TypeRegular {
		nBlocks = 0
	}
	for i := int64(0); i < nBlocks; i++ {
		m.blocks = append(m.blocks, int64(binary.LittleEndian.Uint64(buf[off:])))
		off += 8
	}
	tl := int(binary.LittleEndian.Uint16(buf[off:]))
	m.target = string(buf[off+2 : off+2+tl])
	return rel, m, l, nil
}

// appendRecord writes a record at the log tail and commits it by advancing
// the tail pointer (the 8-byte atomic commit). Caller holds lc.mu and the
// write window.
func (f *FS) appendRecord(th *proc.Thread, lc *logCoffer, rec []byte) error {
	if lc.tailOff+int64(len(rec)) > pageSize {
		// Seal this segment; chain a new one.
		seg, err := f.newPages(th, lc, 1)
		if err != nil {
			return err
		}
		th.Store64(seg[0]*pageSize+segNextOff, 0)
		th.Store64(lc.tailSeg*pageSize+segNextOff, uint64(seg[0]))
		lc.segs = append(lc.segs, seg[0])
		lc.tailSeg, lc.tailOff = seg[0], segFirstRec
		th.Store64(lc.custom*pageSize+lsTailSeg, uint64(lc.tailSeg))
	}
	th.WriteNT(lc.tailSeg*pageSize+lc.tailOff, rec)
	th.Fence()
	lc.tailOff += int64(len(rec))
	// The tail-offset store commits the record.
	th.Store64(lc.custom*pageSize+lsTailOff, uint64(lc.tailOff))
	th.CPU(perfmodel.JournalEntry)
	return nil
}

// replay rebuilds the volatile index by scanning the log up to the
// committed tail (mount/recovery).
func (f *FS) replay(th *proc.Thread, lc *logCoffer) error {
	head := int64(th.Load64(lc.custom*pageSize + lsSegHead))
	tailSeg := int64(th.Load64(lc.custom*pageSize + lsTailSeg))
	tailOff := int64(th.Load64(lc.custom*pageSize + lsTailOff))
	lc.segs = nil
	lc.index = map[string]*meta{}
	buf := make([]byte, pageSize)
	for seg := head; seg != 0; {
		lc.segs = append(lc.segs, seg)
		th.Read(seg*pageSize, buf)
		end := int64(pageSize)
		if seg == tailSeg {
			end = tailOff
		}
		for off := int64(segFirstRec); off < end; {
			rel, m, l, err := decodeRecord(buf[off:end])
			if err != nil {
				// Torn record past a crash: everything beyond is dead.
				break
			}
			if m == nil {
				delete(lc.index, rel)
			} else {
				m.uid, m.gid = 0, 0
				lc.index[rel] = m
			}
			off += int64(l)
		}
		if seg == tailSeg {
			break
		}
		seg = int64(binary.LittleEndian.Uint64(buf[segNextOff:]))
	}
	lc.tailSeg, lc.tailOff = tailSeg, tailOff
	lc.liveData = 0
	for _, m := range lc.index {
		lc.liveData += int64(len(m.blocks))
	}
	lc.total = f.kernPages(lc)
	return nil
}

func (f *FS) kernPages(lc *logCoffer) int64 {
	var n int64
	for _, e := range f.kern.ExtentsOf(lc.id) {
		n += e.Count
	}
	return n
}

// resolve finds the LogFS coffer for a path and the coffer-relative key.
func (f *FS) resolve(th *proc.Thread, path string) (*logCoffer, string, error) {
	id, prefix, ok := f.kern.Resolve(th, path)
	if !ok {
		return nil, "", vfs.ErrNotExist
	}
	info, ok := f.kern.Info(id)
	if !ok || info.Type != TypeLogFS {
		return nil, "", vfs.ErrInvalid
	}
	lc, err := f.attach(th, id)
	if err != nil {
		return nil, "", err
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, prefix), "/")
	return lc, rel, nil
}

// TypeLogFS is the coffer type LogFS registers for.
const TypeLogFS coffer.Type = 2

// parentOf returns the relative parent key ("" is the coffer root).
func parentOf(rel string) string {
	i := strings.LastIndexByte(rel, '/')
	if i < 0 {
		return ""
	}
	return rel[:i]
}

// linkInPrefix checks whether any proper prefix of rel is a symlink; if
// so it returns the re-dispatch error with the expanded path (the flat
// index has no entry under the link's name). Caller holds lc.mu.
func (lc *logCoffer) linkInPrefix(rel string) error {
	for i := 0; i < len(rel); i++ {
		if rel[i] != '/' {
			continue
		}
		prefix := rel[:i]
		if m, ok := lc.index[prefix]; ok && m.typ == vfs.TypeSymlink {
			return &vfs.SymlinkError{Path: expandLink(lc.path, prefix, m.target) + "/" + rel[i+1:]}
		}
	}
	return nil
}

// expandLink resolves a symlink target against its location (absolute
// cleaned path of the link's expansion).
func expandLink(cofferPath, rel, target string) string {
	if strings.HasPrefix(target, "/") {
		return vfs.Clean(target)
	}
	dir := parentOf(rel)
	base := cofferPath
	if dir != "" {
		base = cofferPath + "/" + dir
	}
	return vfs.Clean(base + "/" + target)
}

// checkParent verifies the parent exists and is a directory. Caller holds
// lc.mu.
func (lc *logCoffer) checkParent(rel string) error {
	p := parentOf(rel)
	if p == "" {
		return nil // coffer root
	}
	m, ok := lc.index[p]
	if !ok {
		return vfs.ErrNotExist
	}
	if m.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	return nil
}
