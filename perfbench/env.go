package main

import (
	"fmt"

	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/zofs"
)

// env is one freshly formatted and mounted ZoFS instance, built through the
// same public path an application takes: mkfs, kernel mount, a process,
// the FSLibs mount and the root directory.
type env struct {
	dev  *nvm.Device
	kern *kernfs.KernFS
	proc *proc.Process
	lib  *fslibs.Lib
	// th is the mounting thread; set-up and the post-run checks run on it.
	th *proc.Thread
}

// newEnv formats a device of size bytes. Persistence tracking is off, as in
// every throughput harness of the repository: no run here simulates a crash.
func newEnv(size int64) (*env, error) {
	dev := nvm.New(nvm.Config{Size: size})
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return nil, fmt.Errorf("kernel mount: %w", err)
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	lib, err := fslibs.Mount(k, th, fslibs.Options{})
	if err != nil {
		return nil, fmt.Errorf("fslibs mount: %w", err)
	}
	if err := lib.ZoFS().EnsureRootDir(th); err != nil {
		return nil, fmt.Errorf("root dir: %w", err)
	}
	return &env{dev: dev, kern: k, proc: p, lib: lib, th: th}, nil
}

// release drops the process-wide state ZoFS keeps per device, so a run of
// many rounds does not accumulate dead instances.
func (e *env) release() { zofs.ResetShared(e.dev) }

// fsck runs the on-line recovery traversal over every coffer and the
// kernel's space-accounting audit. Any error, repaired dentry or repair
// record means the workload left the file system inconsistent.
func (e *env) fsck(th *proc.Thread) error {
	stats, err := zofs.FsckAll(e.kern, th)
	if err != nil {
		return err
	}
	for id, st := range stats {
		if st.DentriesFixed > 0 || len(st.Repairs) > 0 {
			return fmt.Errorf("fsck coffer %d: %d dentries fixed, %d repairs", id, st.DentriesFixed, len(st.Repairs))
		}
	}
	if err := e.kern.VerifySpace(); err != nil {
		return fmt.Errorf("space audit: %w", err)
	}
	return nil
}
