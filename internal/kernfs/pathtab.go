package kernfs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/simclock"
)

// Persistent path→coffer hash table (§4.1: "Treasury also introduces a
// persistent hash table ... The key of the hash table is the path of the
// coffer, and the value is the coffer-ID").
//
// Layout: a fixed region of bucket-head pages (8-byte page numbers, one per
// bucket) followed by dynamically allocated entry pages. Each entry page:
//
//	0  next    u64  (page number of next entry page in the chain; 0 = none)
//	8  used    u16  (bytes used beyond the header)
//	10 pad[6]
//	16 entries: {hash u64, cofferID u32, state u8, pathLen u16, pad u8,
//	             path bytes, padded to 8-byte alignment}
//
// Deletion tombstones entries (state = entryDead); recovery compacts them.
// A volatile map mirrors the table for O(1) lookups.
const (
	pathBuckets     = 4096
	entryPageHdr    = 16
	entryHdr        = 16
	entryLive       = 1
	entryDead       = 2
	entryPageUsable = nvm.PageSize - entryPageHdr
)

// pathSnap is an immutable copy-on-write snapshot of the live path→coffer
// map, published for lock-free readers.
type pathSnap struct {
	m map[string]coffer.ID
}

type pathTable struct {
	dev       *nvm.Device
	bucketOff int64 // byte offset of bucket-head array
	sm        *spaceManager

	// wmu is the write-side coupling to KernFS.pmu: insert/remove/rename
	// serialize on it; readers normally never touch it (they consume the
	// seq-validated snapshot below) and fall back to its read side only if
	// they catch a writer mid-publish.
	wmu *lockprof.RWMutex

	vol map[string]coffer.ID

	// Lock-free read protocol (the dcache's verify-against-truth trick
	// applied to the path table): writers bump seq to odd, mutate vol,
	// publish a fresh immutable snapshot, and bump seq to even. Readers
	// load seq, read the snapshot pointer, and re-check seq — a torn
	// observation (odd or changed seq) retries and then falls back to the
	// read lock. Path resolution therefore never blocks behind a concurrent
	// coffer create/delete/rename.
	seq  atomic.Uint64
	snap atomic.Pointer[pathSnap]
}

// pathTabBytes is the persistent size of the bucket-head region.
func pathTabBytes() int64 { return pathBuckets * 8 }

func pathHash(p string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

func (pt *pathTable) bucketFor(p string) int64 {
	return int64(pathHash(p) % pathBuckets)
}

func (pt *pathTable) bucketHead(clk *simclock.Clock, b int64) int64 {
	var buf [8]byte
	pt.dev.Read(clk, pt.bucketOff+b*8, buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

func (pt *pathTable) setBucketHead(clk *simclock.Clock, b, page int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(page))
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, pt.bucketOff+b*8, buf[:])
}

func entrySize(pathLen int) int64 {
	n := int64(entryHdr + pathLen)
	return (n + 7) &^ 7
}

// beginWrite/endWrite bracket a volatile-map mutation with the seqlock
// odd/even protocol; endWrite publishes the COW snapshot.
func (pt *pathTable) beginWrite() { pt.seq.Add(1) }

func (pt *pathTable) endWrite() {
	pt.publish()
	pt.seq.Add(1)
}

// publish installs a fresh immutable snapshot of vol. init/load call it
// directly (single-threaded contexts where the seq dance is unnecessary).
func (pt *pathTable) publish() {
	s := &pathSnap{m: make(map[string]coffer.ID, len(pt.vol))}
	for k, v := range pt.vol {
		s.m[k] = v
	}
	pt.snap.Store(s)
}

// snapshot returns a seq-stable snapshot, or nil when a writer is
// mid-publish after a bounded retry (callers fall back to the read lock).
func (pt *pathTable) snapshot() *pathSnap {
	for try := 0; try < 2; try++ {
		s1 := pt.seq.Load()
		snap := pt.snap.Load()
		if s1%2 == 0 && pt.seq.Load() == s1 && snap != nil {
			return snap
		}
	}
	return nil
}

// init formats the bucket heads to empty. Path-table traffic is directory
// structure at the Treasury layer; the explicit class keeps mkfs-era
// formatting (nil clock) out of the ledger's residual.
func (pt *pathTable) init(clk *simclock.Clock) {
	pt.dev.ZeroClass(clk, byteflow.ClassDentry, pt.bucketOff, pathTabBytes())
	pt.vol = map[string]coffer.ID{}
	pt.publish()
}

// load rebuilds the volatile map by walking every bucket chain. The table
// is untrusted input: a page pointer outside the device, a chain longer
// than the device (a cycle) or an entry running off its page is ErrInvalid.
func (pt *pathTable) load(clk *simclock.Clock) error {
	pt.vol = map[string]coffer.ID{}
	page := make([]byte, nvm.PageSize)
	npages := pt.dev.Pages()
	// Entry pages are distinct device pages, so all chains together visit
	// fewer than npages of them.
	visited := int64(0)
	for b := int64(0); b < pathBuckets; b++ {
		for pg := pt.bucketHead(clk, b); pg != 0; {
			if pg < 1 || pg >= npages {
				return fmt.Errorf("%w: path-table bucket %d points at page %d outside the device", ErrInvalid, b, pg)
			}
			if visited++; visited >= npages {
				return fmt.Errorf("%w: path-table chains loop (bucket %d)", ErrInvalid, b)
			}
			pt.dev.Read(clk, pg*nvm.PageSize, page)
			next := int64(binary.LittleEndian.Uint64(page[0:]))
			used := int64(binary.LittleEndian.Uint16(page[8:]))
			if used > entryPageUsable {
				return fmt.Errorf("%w: corrupt path-table page %d (used %d)", ErrInvalid, pg, used)
			}
			for off := int64(entryPageHdr); off < entryPageHdr+used; {
				if off+entryHdr > int64(nvm.PageSize) {
					return fmt.Errorf("%w: corrupt path-table entry at page %d off %d", ErrInvalid, pg, off)
				}
				id := coffer.ID(binary.LittleEndian.Uint32(page[off+8:]))
				state := page[off+12]
				plen := int(binary.LittleEndian.Uint16(page[off+13:]))
				sz := entrySize(plen)
				if off+sz > int64(nvm.PageSize) {
					return fmt.Errorf("%w: corrupt path-table entry at page %d off %d", ErrInvalid, pg, off)
				}
				if state == entryLive {
					pt.vol[string(page[off+entryHdr:off+entryHdr+int64(plen)])] = id
				}
				off += sz
			}
			pg = next
		}
	}
	pt.publish()
	return nil
}

// lookup finds the coffer for an exact path, with a hash-probe CPU charge —
// this is the per-prefix cost that makes deep paths slower in ZoFS (§6.2).
// Lock-free on the snapshot; callers holding the write lock read vol
// directly via lookupLocked.
func (pt *pathTable) lookup(clk *simclock.Clock, p string) (coffer.ID, bool) {
	if clk != nil {
		clk.Advance(perfmodel.CPUHashLookup)
	}
	if s := pt.snapshot(); s != nil {
		id, ok := s.m[p]
		return id, ok
	}
	// Writer mid-publish: fall back to the read lock for a stable view.
	if pt.wmu != nil {
		pt.wmu.RLock(clk)
		defer pt.wmu.RUnlock(clk)
	}
	id, ok := pt.vol[p]
	return id, ok
}

// lookupLocked reads the volatile map directly; the caller holds wmu.
func (pt *pathTable) lookupLocked(clk *simclock.Clock, p string) (coffer.ID, bool) {
	if clk != nil {
		clk.Advance(perfmodel.CPUHashLookup)
	}
	id, ok := pt.vol[p]
	return id, ok
}

// insert adds a live entry, persisting it in the bucket chain.
func (pt *pathTable) insert(clk *simclock.Clock, p string, id coffer.ID) error {
	if pt.wmu != nil {
		pt.wmu.Lock(clk)
		defer pt.wmu.Unlock(clk)
	}
	if _, dup := pt.vol[p]; dup {
		return ErrExists
	}
	if len(p) > coffer.MaxPathLen {
		return fmt.Errorf("%w: path too long", ErrInvalid)
	}
	b := pt.bucketFor(p)
	sz := entrySize(len(p))

	// Find an entry page with room.
	var hdr [16]byte
	pg := pt.bucketHead(clk, b)
	for cur := pg; cur != 0; {
		pt.dev.Read(clk, cur*nvm.PageSize, hdr[:])
		used := int64(binary.LittleEndian.Uint16(hdr[8:]))
		if used+sz <= entryPageUsable {
			pt.writeEntry(clk, cur, entryPageHdr+used, p, id)
			binary.LittleEndian.PutUint16(hdr[8:], uint16(used+sz))
			pt.dev.WriteNTClass(clk, byteflow.ClassDentry, cur*nvm.PageSize+8, hdr[8:10])
			pt.beginWrite()
			pt.vol[p] = id
			pt.endWrite()
			return nil
		}
		cur = int64(binary.LittleEndian.Uint64(hdr[0:]))
	}

	// Allocate a fresh entry page at the head of the chain.
	exts, err := pt.sm.allocate(clk, 0, coffer.KernelID, 1)
	if err != nil {
		return err
	}
	newPg := exts[0].Start
	page := make([]byte, nvm.PageSize)
	binary.LittleEndian.PutUint64(page[0:], uint64(pg))
	binary.LittleEndian.PutUint16(page[8:], uint16(sz))
	pt.encodeEntry(page[entryPageHdr:], p, id)
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, newPg*nvm.PageSize, page)
	pt.setBucketHead(clk, b, newPg)
	pt.beginWrite()
	pt.vol[p] = id
	pt.endWrite()
	return nil
}

func (pt *pathTable) encodeEntry(dst []byte, p string, id coffer.ID) {
	binary.LittleEndian.PutUint64(dst[0:], pathHash(p))
	binary.LittleEndian.PutUint32(dst[8:], uint32(id))
	dst[12] = entryLive
	binary.LittleEndian.PutUint16(dst[13:], uint16(len(p)))
	copy(dst[entryHdr:], p)
}

func (pt *pathTable) writeEntry(clk *simclock.Clock, pg, off int64, p string, id coffer.ID) {
	buf := make([]byte, entrySize(len(p)))
	pt.encodeEntry(buf, p, id)
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, pg*nvm.PageSize+off, buf)
}

// remove tombstones the entry for path p. When the tombstone leaves its
// entry page with no live entries the page is unlinked from the bucket chain
// and returned to the free pool — without this, coffer create/delete churn
// consumes one page per touched bucket forever and exact free-page
// conservation is unattainable. Tombstone first, unlink second, release
// last: a crash anywhere in the sequence leaves either a dead entry in the
// chain (load skips it) or an unreachable KernelID page (the allocation
// table and owner tree still agree, and recovery compaction reclaims it).
func (pt *pathTable) remove(clk *simclock.Clock, p string) error {
	if pt.wmu != nil {
		pt.wmu.Lock(clk)
		defer pt.wmu.Unlock(clk)
	}
	if _, ok := pt.vol[p]; !ok {
		return ErrNotFound
	}
	b := pt.bucketFor(p)
	h := pathHash(p)
	page := make([]byte, nvm.PageSize)
	prev := int64(0)
	for pg := pt.bucketHead(clk, b); pg != 0; {
		pt.dev.Read(clk, pg*nvm.PageSize, page)
		next := int64(binary.LittleEndian.Uint64(page[0:]))
		used := int64(binary.LittleEndian.Uint16(page[8:]))
		for off := int64(entryPageHdr); off < entryPageHdr+used; {
			eh := binary.LittleEndian.Uint64(page[off:])
			state := page[off+12]
			plen := int(binary.LittleEndian.Uint16(page[off+13:]))
			sz := entrySize(plen)
			if state == entryLive && eh == h && string(page[off+entryHdr:off+entryHdr+int64(plen)]) == p {
				pt.dev.WriteNTClass(clk, byteflow.ClassDentry, pg*nvm.PageSize+off+12, []byte{entryDead})
				page[off+12] = entryDead
				if pageAllDead(page, used) {
					if prev == 0 {
						pt.setBucketHead(clk, b, next)
					} else {
						var nb [8]byte
						binary.LittleEndian.PutUint64(nb[:], uint64(next))
						pt.dev.WriteNTClass(clk, byteflow.ClassDentry, prev*nvm.PageSize, nb[:])
					}
					if err := pt.sm.release(clk, coffer.KernelID, pg, 1); err != nil {
						return err
					}
				}
				pt.beginWrite()
				delete(pt.vol, p)
				pt.endWrite()
				return nil
			}
			off += sz
		}
		prev = pg
		pg = next
	}
	// Volatile map said it existed; persistent chain disagrees.
	return fmt.Errorf("kernfs: path table inconsistency for %q", p)
}

// pageAllDead reports whether an entry page holds no live entries.
func pageAllDead(page []byte, used int64) bool {
	for off := int64(entryPageHdr); off < entryPageHdr+used; {
		if page[off+12] == entryLive {
			return false
		}
		plen := int(binary.LittleEndian.Uint16(page[off+13:]))
		off += entrySize(plen)
	}
	return true
}

// rename atomically (in the volatile view) re-keys an entry.
func (pt *pathTable) rename(clk *simclock.Clock, oldPath, newPath string, id coffer.ID) error {
	if err := pt.insert(clk, newPath, id); err != nil {
		return err
	}
	if err := pt.remove(clk, oldPath); err != nil {
		pt.remove(clk, newPath) // roll back best-effort
		return err
	}
	return nil
}

// all returns a snapshot of every live path→coffer mapping. Lock-free when
// the snapshot is stable.
func (pt *pathTable) all() map[string]coffer.ID {
	if s := pt.snapshot(); s != nil {
		return s.m
	}
	out := make(map[string]coffer.ID, len(pt.vol))
	for k, v := range pt.vol {
		out[k] = v
	}
	return out
}
