package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zofs/internal/proc"
	"zofs/internal/simclock"
)

// paceWindowNS bounds how far one simulated thread's clock may run ahead of
// the other's, the same window fxmark.Run uses.
const paceWindowNS = 500

// errWrongOutput marks an operation whose result contradicts the oracle. It
// fails the run; every other error is a failed operation and is counted.
var errWrongOutput = errors.New("wrong output")

// opKind names the operation a step performed.
type opKind uint8

const (
	opStat opKind = iota
	opCreate
	opUnlink
	opRename
	opChmod
	opRead
	opWrite
	opAppend
	opPut
	opGet
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"stat", "create", "unlink", "rename", "chmod", "read", "write", "append", "put", "get", "delete"}

// fslibsOps are the kinds timed around a single fslibs.Lib call.
var fslibsOps = []opKind{opStat, opCreate, opUnlink, opRename, opChmod, opRead, opWrite, opAppend}

// instance is one workload prepared on an env.
type instance interface {
	// step runs simulated thread i's next operation on th.
	step(i int, th *proc.Thread) (opKind, error)
	// verify checks the final file system state against the oracle.
	verify(th *proc.Thread) error
}

// sample is one attempted operation: its virtual latency and outcome.
type sample struct {
	ns     int64
	kind   opKind
	failed bool
}

// round is the outcome of one set-up + closed-loop run + check.
type round struct {
	setupS    float64 // process user+sys CPU over mkfs, mount and populating
	cpuS      float64 // process user+sys CPU over the timed phase
	peakMB    float64 // peak memory held from the OS during the round
	vns       int64   // virtual duration: slowest thread's end minus start
	media     int64   // device media bytes written during the timed phase
	samples   []sample
	attempted int64
	failed    int64
	// extra holds workload-specific counters (see lsmStats).
	extra map[string]float64
	// checkErr is the first failed output check, fsck or space audit.
	checkErr error
}

// hooks let the traced run observe a round without the runner knowing
// about observers. Any of them may be nil.
type hooks struct {
	// beforeTimed and afterTimed bracket the timed phase.
	beforeTimed func(e *env)
	afterTimed  func(e *env)
}

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// sampleMemory records, every millisecond until the returned stop is
// called, the memory the Go runtime holds from the OS: everything it has
// mapped minus heap memory it has released. Nearly all of it is resident.
// stop returns the peak in MiB; it may be called more than once.
func sampleMemory() (stop func() float64) {
	quit := make(chan struct{})
	peak := make(chan float64)
	go func() {
		ss := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(ss)
			if held := ss[0].Value.Uint64() - ss[1].Value.Uint64(); held > max {
				max = held
			}
			select {
			case <-quit:
				peak <- float64(max) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	var mb float64
	return func() float64 {
		once.Do(func() {
			close(quit)
			mb = <-peak
		})
		return mb
	}
}

// runRound boots a fresh ZoFS, prepares the workload from seed, runs
// w.ops operations on each of w.threads simulated threads in a closed loop
// and checks the result. A failed check is reported in round.checkErr; an
// error means the round produced no result (set-up failed or an operation
// contradicted the oracle).
func runRound(w *workload, seed int64, h hooks) (*round, error) {
	// Garbage from the previous round must not be collected inside this
	// round's timed phase, and returning it to the OS makes every round
	// start from the same resident set.
	debug.FreeOSMemory()
	stopSampling := sampleMemory()
	defer stopSampling()
	// Each round boots a fresh simulated machine. Thread IDs pick lease
	// words and allocator slots, so they must not depend on earlier rounds.
	proc.ResetIDs()
	setup0 := cpuSeconds()
	e, err := newEnv(w.devBytes)
	if err != nil {
		return nil, err
	}
	defer e.release()
	d, err := w.prepare(e, seed)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	r := &round{setupS: cpuSeconds() - setup0}

	e.dev.SetConcurrency(w.threads)
	start := e.th.Clk.Now()
	ths := make([]*proc.Thread, w.threads)
	for i := range ths {
		ths[i] = e.proc.NewThread()
		ths[i].Clk.AdvanceTo(start)
	}
	runtime.GC()
	if h.beforeTimed != nil {
		h.beforeTimed(e)
	}
	media0 := e.dev.BytesWritten()
	cpu0 := cpuSeconds()
	perThread, end, err := closedLoop(d, ths, w.ops, start, stallAfter)
	r.cpuS = cpuSeconds() - cpu0
	r.media = e.dev.BytesWritten() - media0
	if h.afterTimed != nil {
		h.afterTimed(e)
	}
	if err != nil {
		return nil, err
	}
	r.vns = end - start
	for _, s := range perThread {
		r.samples = append(r.samples, s...)
	}
	for _, s := range r.samples {
		r.attempted++
		if s.failed {
			r.failed++
		}
	}
	if ls, ok := d.(lsmStats); ok {
		r.extra = ls.lsmStats()
	}

	th := e.proc.NewThread()
	th.Clk.AdvanceTo(end)
	if err := d.verify(th); err != nil {
		r.checkErr = fmt.Errorf("output check: %w", err)
	} else if err := e.fsck(th); err != nil {
		r.checkErr = fmt.Errorf("fsck: %w", err)
	}
	r.peakMB = stopSampling()
	return r, nil
}

// stallAfter is how long, in real time, a round may complete no operation
// before it is abandoned. A simulated thread that blocks forever inside the
// program (a lock left held by a recovered fault, say) would otherwise hang
// the run.
const stallAfter = 10 * time.Second

var errStalled = errors.New("round stalled")

// closedLoop runs ops operations on each thread, one call at a time per
// thread, pacing the threads' virtual clocks with a simclock.Gang. It
// returns each thread's samples and the latest virtual end time, or
// errStalled when no operation completes for stall. The threads of a
// stalled round stay blocked until the process exits: nothing outside the
// program under test can release them.
func closedLoop(d instance, ths []*proc.Thread, ops int, start int64, stall time.Duration) ([][]sample, int64, error) {
	gang := simclock.NewGang(paceWindowNS)
	for i := range ths {
		gang.Join(i, start)
	}
	out := make([][]sample, len(ths))
	errs := make([]error, len(ths))
	var stop atomic.Bool
	var completed atomic.Int64
	var wg sync.WaitGroup
	for i := range ths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer gang.Leave(i)
			th := ths[i]
			ss := make([]sample, 0, ops)
			for n := 0; n < ops && !stop.Load(); n++ {
				t := th.Clk.Now()
				kind, err := d.step(i, th)
				completed.Add(1)
				s := sample{ns: th.Clk.Now() - t, kind: kind, failed: err != nil}
				if errors.Is(err, errWrongOutput) {
					errs[i] = fmt.Errorf("thread %d op %d: %w", i, n, err)
					stop.Store(true)
					break
				}
				ss = append(ss, s)
				gang.Pace(i, th.Clk.Now())
			}
			out[i] = ss
		}(i)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	watch := time.NewTicker(stall / 10)
	defer watch.Stop()
	seen, progressed := int64(0), time.Now()
	for waiting := true; waiting; {
		select {
		case <-finished:
			waiting = false
		case now := <-watch.C:
			if n := completed.Load(); n != seen {
				seen, progressed = n, now
			} else if now.Sub(progressed) > stall {
				stop.Store(true)
				return nil, 0, fmt.Errorf("%w: no operation completed for %v after %d", errStalled, stall, n)
			}
		}
	}
	var end int64
	for i, th := range ths {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		end = max(end, th.Clk.Now())
	}
	return out, end, nil
}
