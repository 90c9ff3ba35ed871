package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"zofs/internal/fslibs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

const (
	blockSize     = 4096
	filesPerThr   = 32
	blocksPerFile = 1024 // 4 MiB files
)

// fillBlock writes the content the oracle expects for key into b.
func fillBlock(b []byte, key uint64) {
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], key+uint64(i)*0x9e3779b97f4a7c15)
	}
}

// dataThread is one thread's private files and their oracle: the version of
// every pre-filled block (-1 after a failed overwrite: either version may
// be on media) and the number of blocks appended to each file.
type dataThread struct {
	id       int
	seed     int64
	fds      []int
	version  []int32
	appended []int
	pick     *zipfPicker
	rng      *rand.Rand
	buf      []byte
	want     []byte
}

func (t *dataThread) key(file, block int, version int32) uint64 {
	return mix64(uint64(t.seed)<<20 ^ uint64(t.id)<<50 ^ uint64(file)<<32 ^ uint64(block)<<8 ^ uint64(uint32(version)))
}

type dataRW struct {
	lib *fslibs.Lib
	ts  []*dataThread
}

// step: a pread (3/5), overwrite (1/4) or append (3/20) of one 4 KiB block,
// the block drawn with Zipf skew over the thread's 32768 pre-filled blocks.
func (d *dataRW) step(i int, th *proc.Thread) (opKind, error) {
	t, lib := d.ts[i], d.lib
	b := t.pick.pick()
	file, blk := b/blocksPerFile, b%blocksPerFile
	fd := t.fds[file]
	switch r := t.rng.Intn(20); {
	case r < 12:
		n, err := lib.Pread(th, fd, t.buf, int64(blk)*blockSize)
		if err != nil {
			return opRead, err
		}
		if v := t.version[b]; v >= 0 {
			fillBlock(t.want, t.key(file, blk, v))
			if n != blockSize || !bytes.Equal(t.buf, t.want) {
				return opRead, fmt.Errorf("%w: thread %d file %d block %d: read %d bytes that differ from version %d", errWrongOutput, t.id, file, blk, n, v)
			}
		}
		return opRead, nil
	case r < 17:
		v := max(t.version[b], 0) + 1
		fillBlock(t.buf, t.key(file, blk, v))
		if _, err := lib.Pwrite(th, fd, t.buf, int64(blk)*blockSize); err != nil {
			t.version[b] = -1
			return opWrite, err
		}
		t.version[b] = v
		return opWrite, nil
	}
	fillBlock(t.buf, t.key(file, blocksPerFile+t.appended[file], 0))
	if _, err := lib.Write(th, fd, t.buf); err != nil {
		return opAppend, err
	}
	t.appended[file]++
	return opAppend, nil
}

// verify reads every file back in 256 KiB chunks and compares each block
// with the oracle, and checks each file's size.
func (d *dataRW) verify(th *proc.Thread) error {
	chunk := make([]byte, 64*blockSize)
	want := make([]byte, blockSize)
	for _, t := range d.ts {
		for f, fd := range t.fds {
			blocks := blocksPerFile + t.appended[f]
			fi, err := d.lib.Fstat(th, fd)
			if err != nil {
				return fmt.Errorf("fstat thread %d file %d: %w", t.id, f, err)
			}
			if fi.Size != int64(blocks)*blockSize {
				return fmt.Errorf("%w: thread %d file %d has %d bytes, want %d", errWrongOutput, t.id, f, fi.Size, blocks*blockSize)
			}
			for off := 0; off < blocks; off += len(chunk) / blockSize {
				n, err := d.lib.Pread(th, fd, chunk, int64(off)*blockSize)
				if err != nil {
					return fmt.Errorf("read back thread %d file %d: %w", t.id, f, err)
				}
				for j := 0; j < n/blockSize; j++ {
					blk, v := off+j, int32(0)
					if blk < blocksPerFile {
						if v = t.version[f*blocksPerFile+blk]; v < 0 {
							continue
						}
					}
					fillBlock(want, t.key(f, blk, v))
					if !bytes.Equal(chunk[j*blockSize:(j+1)*blockSize], want) {
						return fmt.Errorf("%w: thread %d file %d block %d differs from version %d", errWrongOutput, t.id, f, blk, v)
					}
				}
			}
		}
	}
	return nil
}

// data-rw: each thread owns /d<i>/f00..f31, 4 MiB each and pre-filled, so
// the two threads' working set is 256 MiB. Files are opened once with
// O_APPEND; preads and overwrites use explicit offsets.
func prepareDataRW(e *env, seed int64) (instance, error) {
	d := &dataRW{lib: e.lib}
	chunk := make([]byte, 64*blockSize)
	for i := 0; i < 2; i++ {
		rng := rand.New(rand.NewSource(seed*2 + int64(i)))
		t := &dataThread{
			id: i, seed: seed, fds: make([]int, filesPerThr),
			version: make([]int32, filesPerThr*blocksPerFile), appended: make([]int, filesPerThr),
			pick: newZipfPicker(rng, filesPerThr*blocksPerFile), rng: rng,
			buf: make([]byte, blockSize), want: make([]byte, blockSize),
		}
		dir := fmt.Sprintf("/d%d", i)
		if err := e.lib.Mkdir(e.th, dir, 0o755); err != nil {
			return nil, err
		}
		for f := range t.fds {
			fd, err := e.lib.Open(e.th, fmt.Sprintf("%s/f%02d", dir, f), vfs.O_CREATE|vfs.O_RDWR|vfs.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			t.fds[f] = fd
			for blk := 0; blk < blocksPerFile; blk += len(chunk) / blockSize {
				for j := 0; j < len(chunk)/blockSize; j++ {
					fillBlock(chunk[j*blockSize:(j+1)*blockSize], t.key(f, blk+j, 0))
				}
				if _, err := e.lib.Pwrite(e.th, fd, chunk, int64(blk)*blockSize); err != nil {
					return nil, err
				}
			}
		}
		d.ts = append(d.ts, t)
	}
	return d, nil
}
