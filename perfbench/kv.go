package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/lsmdb"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

const (
	kvKeys     = 40000
	kvMemtable = 256 << 10
)

// timedFS is the file system lsmdb is handed: it adds up the virtual time
// spent below lsmdb and counts the store's flushes (a new WAL) and
// compactions (an operation that deletes tables).
type timedFS struct {
	vfs.FileSystem
	ns          int64
	walCreates  int64
	compactions int64
	sstUnlinked bool
}

func (f *timedFS) timed(th *proc.Thread) func() {
	t := th.Clk.Now()
	return func() { f.ns += th.Clk.Now() - t }
}

func (f *timedFS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	defer f.timed(th)()
	if strings.HasSuffix(path, ".log") {
		f.walCreates++
	}
	h, err := f.FileSystem.Create(th, path, mode)
	if err != nil {
		return nil, err
	}
	return &timedHandle{h, f}, nil
}

func (f *timedFS) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	defer f.timed(th)()
	h, err := f.FileSystem.Open(th, path, flags)
	if err != nil {
		return nil, err
	}
	return &timedHandle{h, f}, nil
}

func (f *timedFS) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	defer f.timed(th)()
	return f.FileSystem.Mkdir(th, path, mode)
}

func (f *timedFS) Unlink(th *proc.Thread, path string) error {
	defer f.timed(th)()
	if strings.HasSuffix(path, ".sst") {
		f.sstUnlinked = true
	}
	return f.FileSystem.Unlink(th, path)
}

type timedHandle struct {
	vfs.Handle
	fs *timedFS
}

func (h *timedHandle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	defer h.fs.timed(th)()
	return h.Handle.ReadAt(th, p, off)
}

func (h *timedHandle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	defer h.fs.timed(th)()
	return h.Handle.WriteAt(th, p, off)
}

func (h *timedHandle) Append(th *proc.Thread, p []byte) (int64, error) {
	defer h.fs.timed(th)()
	return h.Handle.Append(th, p)
}

func (h *timedHandle) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	defer h.fs.timed(th)()
	return h.Handle.Stat(th)
}

func (h *timedHandle) Sync(th *proc.Thread) error {
	defer h.fs.timed(th)()
	return h.Handle.Sync(th)
}

func (h *timedHandle) Close(th *proc.Thread) error {
	defer h.fs.timed(th)()
	return h.Handle.Close(th)
}

// lsmStats is implemented by instances that report lsmdb counters.
type lsmStats interface{ lsmStats() map[string]float64 }

// kvLSM drives one lsmdb instance. The oracle keeps each key's version:
// 0 is absent, -1 unknown (after a failed mutation).
type kvLSM struct {
	db      *lsmdb.DB
	fs      *timedFS
	seed    int64
	keys    []string
	version []int32
	pick    *zipfPicker
	rng     *rand.Rand
	// Counter values when the timed phase starts.
	fsNS0, walCreates0 int64
	opNS               int64 // virtual time of the timed phase's operations
}

func (d *kvLSM) value(k int, v int32) []byte {
	h := mix64(uint64(d.seed)<<32 ^ uint64(k)<<8 ^ uint64(uint32(v)))
	b := make([]byte, 64+h%129)
	fillBlock(b[:len(b)&^7], h)
	return b
}

// check compares a Get result with the oracle. A typed error is a failed
// operation, returned as is.
func (d *kvLSM) check(k int, got []byte, err error) error {
	switch v := d.version[k]; {
	case err != nil && !errors.Is(err, lsmdb.ErrNotFound):
		return err
	case v < 0:
		return nil
	case v == 0 && err == nil:
		return fmt.Errorf("%w: get %s returned %d bytes for a deleted key", errWrongOutput, d.keys[k], len(got))
	case v == 0:
		return nil
	case err != nil:
		return fmt.Errorf("%w: get %s: %v, want version %d", errWrongOutput, d.keys[k], err, v)
	case !bytes.Equal(got, d.value(k, v)):
		return fmt.Errorf("%w: get %s differs from version %d", errWrongOutput, d.keys[k], v)
	}
	return nil
}

// step: a get (1/2), put (2/5) or delete (1/10) of a Zipf-drawn key.
func (d *kvLSM) step(_ int, th *proc.Thread) (opKind, error) {
	k := d.pick.pick()
	t := th.Clk.Now()
	d.fs.sstUnlinked = false
	defer func() {
		d.opNS += th.Clk.Now() - t
		if d.fs.sstUnlinked {
			d.fs.compactions++
		}
	}()
	switch r := d.rng.Intn(10); {
	case r < 5:
		got, err := d.db.Get(th, d.keys[k])
		return opGet, d.check(k, got, err)
	case r < 9:
		v := max(d.version[k], 0) + 1
		if err := d.db.Put(th, d.keys[k], d.value(k, v)); err != nil {
			d.version[k] = -1
			return opPut, err
		}
		d.version[k] = v
		return opPut, nil
	}
	if err := d.db.Delete(th, d.keys[k]); err != nil {
		d.version[k] = -1
		return opDelete, err
	}
	d.version[k] = 0
	return opDelete, nil
}

// verify gets every key of the key space and compares it with the oracle.
func (d *kvLSM) verify(th *proc.Thread) error {
	for k, key := range d.keys {
		got, err := d.db.Get(th, key)
		if err := d.check(k, got, err); err != nil {
			return fmt.Errorf("read back: %w", err)
		}
	}
	return nil
}

func (d *kvLSM) lsmStats() map[string]float64 {
	return map[string]float64{
		"fs_ns":       float64(d.fs.ns - d.fsNS0),
		"op_ns":       float64(d.opNS),
		"flushes":     float64(d.fs.walCreates - d.walCreates0),
		"compactions": float64(d.fs.compactions),
	}
}

// kv-lsm: one lsmdb store in /db on the ZoFS µFS with a 256 KiB memtable,
// loaded with all 40000 keys before the timed phase.
func prepareKVLSM(e *env, seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	fs := &timedFS{FileSystem: obsfs.Wrap(e.lib.ZoFS(), telemetry.Active())}
	d := &kvLSM{
		fs: fs, seed: seed, keys: make([]string, kvKeys), version: make([]int32, kvKeys),
		pick: newZipfPicker(rng, kvKeys), rng: rng,
	}
	db, err := lsmdb.Open(fs, e.th, lsmdb.Options{Dir: "/db", MemtableBytes: kvMemtable})
	if err != nil {
		return nil, err
	}
	d.db = db
	for k := range d.keys {
		d.keys[k] = fmt.Sprintf("key%08d", k)
		if err := db.Put(e.th, d.keys[k], d.value(k, 1)); err != nil {
			return nil, err
		}
		d.version[k] = 1
	}
	d.fsNS0, d.walCreates0, fs.compactions = fs.ns, fs.walCreates, 0
	return d, nil
}
