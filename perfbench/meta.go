package main

import (
	"errors"
	"fmt"
	"math/rand"

	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// slotState is the oracle's knowledge of one name.
type slotState uint8

const (
	slotAbsent slotState = iota
	slotPresent
	// slotUnknown follows a failed mutation: the name may or may not exist.
	// The next operation on it is a stat that settles the state.
	slotUnknown
)

// nsThread is one simulated thread's private namespace and its oracle.
type nsThread struct {
	dirs   []string
	perDir int
	paths  []string
	state  []slotState
	mode   []coffer.Mode
	pick   *zipfPicker
	rng    *rand.Rand
}

func newNSThread(rng *rand.Rand, dirs []string, perDir int) *nsThread {
	n := len(dirs) * perDir
	t := &nsThread{
		dirs: dirs, perDir: perDir,
		paths: make([]string, n), state: make([]slotState, n), mode: make([]coffer.Mode, n),
		rng: rng, pick: newZipfPicker(rng, n),
	}
	for s := range t.paths {
		t.paths[s] = fmt.Sprintf("%s/f%04d", dirs[s/perDir], s%perDir)
	}
	return t
}

func (t *nsThread) create(lib *fslibs.Lib, th *proc.Thread, s int, mode coffer.Mode) error {
	fd, err := lib.Create(th, t.paths[s], mode)
	if err != nil {
		t.state[s] = slotUnknown
		return err
	}
	t.state[s], t.mode[s] = slotPresent, mode
	return lib.Close(th, fd)
}

func (t *nsThread) stat(lib *fslibs.Lib, th *proc.Thread, s int) error {
	fi, err := lib.Stat(th, t.paths[s])
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return fmt.Errorf("%w: stat %s: %v", errWrongOutput, t.paths[s], err)
	case err != nil:
		return err
	case fi.Type != vfs.TypeRegular || fi.Mode&0o777 != t.mode[s]:
		return fmt.Errorf("%w: stat %s: type %v mode %o, want file mode %o", errWrongOutput, t.paths[s], fi.Type, fi.Mode, t.mode[s])
	}
	return nil
}

// settle stats an unknown name and records what it found.
func (t *nsThread) settle(lib *fslibs.Lib, th *proc.Thread, s int) error {
	fi, err := lib.Stat(th, t.paths[s])
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		t.state[s] = slotAbsent
	case err != nil:
		return err
	default:
		t.state[s], t.mode[s] = slotPresent, fi.Mode&0o777
	}
	return nil
}

func (t *nsThread) unlink(lib *fslibs.Lib, th *proc.Thread, s int) error {
	err := lib.Unlink(th, t.paths[s])
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return fmt.Errorf("%w: unlink %s: %v", errWrongOutput, t.paths[s], err)
	case err != nil:
		t.state[s] = slotUnknown
		return err
	}
	t.state[s] = slotAbsent
	return nil
}

// absentSlot finds a name to rename onto: a few skewed draws, then a scan.
func (t *nsThread) absentSlot() (int, bool) {
	for try := 0; try < 16; try++ {
		if q := t.pick.pick(); t.state[q] == slotAbsent {
			return q, true
		}
	}
	n := len(t.state)
	for i, o := 0, t.rng.Intn(n); i < n; i++ {
		if q := (o + i) % n; t.state[q] == slotAbsent {
			return q, true
		}
	}
	return 0, false
}

func (t *nsThread) rename(lib *fslibs.Lib, th *proc.Thread, s, q int) error {
	err := lib.Rename(th, t.paths[s], t.paths[q])
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return fmt.Errorf("%w: rename %s: %v", errWrongOutput, t.paths[s], err)
	case err != nil:
		t.state[s], t.state[q] = slotUnknown, slotUnknown
		return err
	}
	t.state[s], t.state[q], t.mode[q] = slotAbsent, slotPresent, t.mode[s]
	return nil
}

func (t *nsThread) chmod(lib *fslibs.Lib, th *proc.Thread, s int, mode coffer.Mode) error {
	err := lib.Chmod(th, t.paths[s], mode)
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return fmt.Errorf("%w: chmod %s: %v", errWrongOutput, t.paths[s], err)
	case err != nil:
		t.state[s] = slotUnknown
		return err
	}
	t.mode[s] = mode
	return nil
}

// verify lists every directory and compares it with the oracle; names in
// an unknown state may be either present or absent.
func (t *nsThread) verify(lib *fslibs.Lib, th *proc.Thread) error {
	for di, dir := range t.dirs {
		ents, err := lib.ReadDir(th, dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", dir, err)
		}
		found := make(map[string]bool, len(ents))
		for _, de := range ents {
			found[de.Name] = true
		}
		for s := di * t.perDir; s < (di+1)*t.perDir; s++ {
			name := t.paths[s][len(dir)+1:]
			if t.state[s] == slotUnknown {
				delete(found, name)
				continue
			}
			if (t.state[s] == slotPresent) != found[name] {
				return fmt.Errorf("%w: %s listed=%v, oracle present=%v", errWrongOutput, t.paths[s], found[name], t.state[s] == slotPresent)
			}
			delete(found, name)
		}
		for name := range found {
			return fmt.Errorf("%w: unexpected entry %s/%s", errWrongOutput, dir, name)
		}
	}
	return nil
}

// nsThreads holds one nsThread per simulated thread.
type nsThreads struct {
	lib *fslibs.Lib
	ts  []*nsThread
}

func (d *nsThreads) verify(th *proc.Thread) error {
	for _, t := range d.ts {
		if err := t.verify(d.lib, th); err != nil {
			return err
		}
	}
	return nil
}

type metaChurn struct{ nsThreads }

func (d *metaChurn) step(i int, th *proc.Thread) (opKind, error) {
	t, lib := d.ts[i], d.lib
	s := t.pick.pick()
	switch t.state[s] {
	case slotUnknown:
		return opStat, t.settle(lib, th, s)
	case slotAbsent:
		return opCreate, t.create(lib, th, s, 0o644)
	}
	switch t.rng.Intn(4) {
	case 0, 1:
		return opStat, t.stat(lib, th, s)
	case 2:
		return opUnlink, t.unlink(lib, th, s)
	}
	q, ok := t.absentSlot()
	if !ok {
		return opStat, t.stat(lib, th, s)
	}
	return opRename, t.rename(lib, th, s, q)
}

// meta-churn: each thread owns /m<i>/d00..d15 with 256 names per directory,
// 80% present at the start. Present names are stat'ed (1/2), unlinked
// (1/4) or renamed onto an absent name (1/4); absent names are created, so
// the namespace stays near 80% full.
func prepareMetaChurn(e *env, seed int64) (instance, error) {
	const dirsPerThread, perDir = 16, 256
	d := &metaChurn{nsThreads{lib: e.lib}}
	for i := 0; i < 2; i++ {
		rng := rand.New(rand.NewSource(seed*2 + int64(i)))
		top := fmt.Sprintf("/m%d", i)
		if err := e.lib.Mkdir(e.th, top, 0o755); err != nil {
			return nil, err
		}
		dirs := make([]string, dirsPerThread)
		for j := range dirs {
			dirs[j] = fmt.Sprintf("%s/d%02d", top, j)
			if err := e.lib.Mkdir(e.th, dirs[j], 0o755); err != nil {
				return nil, err
			}
		}
		t := newNSThread(rng, dirs, perDir)
		for s := range t.state {
			if rng.Intn(5) < 4 {
				if err := t.create(e.lib, e.th, s, 0o644); err != nil {
					return nil, err
				}
			}
		}
		d.ts = append(d.ts, t)
	}
	return d, nil
}

type permCoffers struct{ nsThreads }

var permModes = []coffer.Mode{0o600, 0o640, 0o644, 0o660}

func (d *permCoffers) step(i int, th *proc.Thread) (opKind, error) {
	t, lib := d.ts[i], d.lib
	s := t.pick.pick()
	switch t.state[s] {
	case slotUnknown:
		return opStat, t.settle(lib, th, s)
	case slotAbsent:
		return opCreate, t.create(lib, th, s, permModes[t.rng.Intn(len(permModes))])
	}
	switch r := t.rng.Intn(10); {
	case r < 4:
		return opStat, t.stat(lib, th, s)
	case r < 7:
		// Any mode but the current one.
		next := (indexOf(permModes, t.mode[s]) + 1 + t.rng.Intn(len(permModes)-1)) % len(permModes)
		return opChmod, t.chmod(lib, th, s, permModes[next])
	}
	return opUnlink, t.unlink(lib, th, s)
}

func indexOf(modes []coffer.Mode, m coffer.Mode) int {
	for i, x := range modes {
		if x == m {
			return i
		}
	}
	return 0
}

// perm-coffers: each thread owns a 0700 home with 256 names, empty at the
// start. Absent names are created with one of four modes, present names are
// stat'ed (4/10, mode checked), chmod'ed to another mode (3/10) or unlinked
// (3/10). Every file whose mode differs from its parent's becomes its own
// coffer, so a process keeps mapping new coffers.
func preparePermCoffers(e *env, seed int64) (instance, error) {
	const perDir = 256
	d := &permCoffers{nsThreads{lib: e.lib}}
	for i := 0; i < 2; i++ {
		rng := rand.New(rand.NewSource(seed*2 + int64(i)))
		home := fmt.Sprintf("/home%d", i)
		if err := e.lib.Mkdir(e.th, home, 0o700); err != nil {
			return nil, err
		}
		d.ts = append(d.ts, newNSThread(rng, []string{home}, perDir))
	}
	return d, nil
}
