package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/godbc"
)

// processStart approximates the child's start: package initialisation runs
// within a millisecond of exec.
var processStart = time.Now()

// roundsPerRun is how many child processes measure a workload, each for an equal
// share of --seconds. It is part of the measurement protocol: results taken
// with another value do not compare with the baseline or the bounds.
const roundsPerRun = 5

// minPooledSamples is the number of ops a workload's rounds aim to collect
// together, enough for op_p95_ms with a tenth to spare. A round keeps
// measuring past its window until it has its share, so a slow spell on the
// host costs time instead of the tail percentile.
const minPooledSamples = 220

// maxFailureNotes bounds the failure messages a round carries.
const maxFailureNotes = 5

// childConfig is what a child process is told: which workload's deployment
// to build, the summary file to build it over, and how long to measure.
type childConfig struct {
	Workload string
	Data     string
	Window   time.Duration
	// MinOps is the round's share of minPooledSamples.
	MinOps int
	// Trace selects the traced pass; TraceOut is where its spans go.
	Trace    bool
	TraceOut string
}

// runChild measures one round of one workload and prints its roundResult as
// one line of JSON on standard output.
func runChild(cfg childConfig) error {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	clock := &setupClock{}
	clock.calibrate()
	data, err := loadData(cfg.Data)
	if err != nil {
		return err
	}
	clock.calibrate()
	var res roundResult
	if cfg.Trace {
		res, err = tracedRound(spec, data, cfg)
	} else {
		res, err = untracedRound(spec, data, cfg, clock)
	}
	if err != nil {
		return err
	}
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func untracedRound(spec workloadSpec, data *loaded, cfg childConfig, clock *setupClock) (roundResult, error) {
	s, err := newStack(spec, data, nil)
	if err != nil {
		return roundResult{}, err
	}
	defer s.close()
	clock.calibrate()
	clocked := time.Since(processStart) - clock.inKernel
	slept, err := s.sleptMS()
	if err != nil {
		return roundResult{}, err
	}
	if err := s.prepareChecks(); err != nil {
		return roundResult{}, err
	}
	res, err := s.measure(cfg.Window, cfg.MinOps, warmupOps)
	if err != nil {
		return res, err
	}
	// The warm-up's clients slept side by side.
	res.ClockedSetupS = clocked.Seconds()
	res.SetupS = atReference(ms(clocked), slept/float64(spec.Clients), speed(clock.passes)) / 1e3
	return res, s.invariants()
}

// setupPasses is how many kernel passes one calibration of the set-up
// clocks: 20 ms at reference speed.
const setupPasses = 40

// setupClock calibrates a child's set-up: the kernel passes clocked around
// its stages — at the start, after the dataset is read and built, and after
// the database is loaded and the deployment warmed up — give the host's
// speed while it ran. The time in the kernel is no part of the set-up.
type setupClock struct {
	k        *kernel
	passes   []float64
	inKernel time.Duration
}

func (c *setupClock) calibrate() {
	t0 := time.Now()
	if c.k == nil {
		c.k = newKernel()
	}
	for range setupPasses {
		c.passes = append(c.passes, c.k.pass())
	}
	c.inKernel += time.Since(t0)
}

// window holds the process-wide counters at the start of a measured window.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func beginWindow() *window {
	// Start every window from a collected heap, so what a round inherits
	// from set-up does not decide when its first collection falls.
	runtime.GC()
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = processCPU()
	w.start = time.Now()
	return w
}

// end closes the window and records what it cost the process.
func (w *window) end(res *roundResult) {
	res.WindowS = time.Since(w.start).Seconds()
	res.CPUMS = ms(processCPU() - w.cpu)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.AllocKB = float64(m.TotalAlloc-w.mem.TotalAlloc) / 1024
	res.mallocs = m.Mallocs - w.mem.Mallocs
	res.gcCycles = uint64(m.NumGC - w.mem.NumGC)
	res.gcPauseMS = float64(m.PauseTotalNs-w.mem.PauseTotalNs) / 1e6
}

// processCPU is the user plus system CPU time of this process so far: real
// work, which a slept vendor delay does not add to.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// measure runs the workload's closed loop: every client issues its next op
// when the previous one has returned, for at least the window and until
// minOps ops are done (but never past twice the window). An op's clock stops
// when its call returns; its result is checked after that, and then the
// client clocks one pass of its calibration kernel (calib.go). firstOp
// numbers the first op of each client, continuing after the warm-up and any
// earlier window on the same stack.
//
// What comes back is at reference speed: each op's latency by the kernel
// passes around it, the window's length and CPU time by all of its passes;
// the time the kernel itself took is in neither.
func (s *stack) measure(length time.Duration, minOps, firstOp int) (roundResult, error) {
	res := roundResult{Workload: s.spec.Name}
	logs := make([]clientLog, s.spec.Clients)
	kernels := make([]*kernel, s.spec.Clients)
	for c := range kernels {
		kernels[c] = newKernel()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := 0
	sleptBefore, err := s.sleptMS()
	if err != nil {
		return res, err
	}
	w := beginWindow()
	deadline, hardStop := w.start.Add(length), w.start.Add(2*length)
	for c := 0; c < s.spec.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log, k := &logs[c], kernels[c]
			log.passes = append(log.passes, k.pass())
			for i := firstOp; ; i++ {
				mu.Lock()
				enough := done >= minOps
				mu.Unlock()
				if now := time.Now(); (now.After(deadline) && enough) || now.After(hardStop) {
					return
				}
				// With one client the tracer follows the op as it runs;
				// with several it can only note it afterwards.
				single := s.spec.Clients == 1
				if single {
					s.tr.beginOp(i - warmupOps + 1)
				}
				t0 := time.Now()
				out, err := s.op(c, i)
				t1 := time.Now()
				if single {
					s.tr.endOp()
				} else if s.tr != nil {
					s.tr.concurrentOp(t0, t1)
				}
				if err == nil {
					err = s.check(out)
				}
				log.clocked = append(log.clocked, ms(t1.Sub(t0)))
				log.failed = append(log.failed, err != nil)
				log.passes = append(log.passes, k.pass())
				mu.Lock()
				done++
				if err != nil && len(res.Failures) < maxFailureNotes {
					res.Failures = append(res.Failures, err.Error())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.end(&res)
	sleptAfter, err := s.sleptMS()
	if err != nil {
		return res, err
	}
	res.fold(logs, sleptAfter-sleptBefore)
	return res, nil
}

// sleptMS is the simulated vendor delay the wire server has charged so far:
// time ops spent asleep, which does not scale with the host's speed.
func (s *stack) sleptMS() (float64, error) {
	if s.pool == nil || !s.spec.Remote {
		return 0, nil
	}
	st, err := s.serverStats()
	return float64(st.VendorNanos) / 1e6, err
}

// serverStats asks the wire server for its counters. Asking is itself a
// request over the pool; statsFetches counts them, so that the traced pass
// can take them out of what it attributes to the ops.
func (s *stack) serverStats() (godbc.ServerStats, error) {
	st, ok, err := s.pool.ServerStats()
	if err != nil || !ok {
		return st, fmt.Errorf("server stats unavailable: %v", err)
	}
	s.statsFetches++
	return st, nil
}

// fold turns the clients' logs and the window's clocked totals (set by
// window.end) into the round's result at reference speed. sleptMS is the
// vendor delay charged during the window, over all clients.
func (r *roundResult) fold(logs []clientLog, sleptMS float64) {
	var passes []float64
	for _, l := range logs {
		passes = append(passes, l.passes...)
		r.Attempted += len(l.clocked)
		for j, c := range l.clocked {
			if l.failed[j] {
				r.Failed++
			} else {
				r.ClockedMS = append(r.ClockedMS, c)
			}
		}
	}
	if r.Attempted > 0 {
		for i := range logs {
			r.LatMS = append(r.LatMS, logs[i].latencies(sleptMS/float64(r.Attempted))...)
		}
	}
	// The clients run side by side, so of the window's length each one's
	// kernel passes and sleeps took their share.
	clients := float64(len(logs))
	kernelMS := sum(passes)
	r.HostSpeed = speed(passes)
	r.ClockedWindowS = r.WindowS
	r.WindowS = atReference(r.WindowS*1e3-kernelMS/clients, sleptMS/clients, r.HostSpeed) / 1e3
	// A kernel pass is all CPU; sleeping costs none.
	r.CPUMS = (r.CPUMS - kernelMS) * r.HostSpeed
}

// invariants fails the round on what must never happen however the ops
// themselves fared: a SELECT falling back to the row interpreter, or the
// service shedding a request.
func (s *stack) invariants() error {
	if st := s.db.Stats(); st.VecFallbacks != 0 {
		return fmt.Errorf("%s: %d SELECTs fell back to the row interpreter (%+v)", s.spec.Name, st.VecFallbacks, st.VecFallbackReasons)
	}
	if s.svc != nil {
		if adm := s.svc.Admission().Stats(); adm.Shed != 0 || adm.Rejected != 0 {
			return fmt.Errorf("%s: service shed %d and rejected %d requests", s.spec.Name, adm.Shed, adm.Rejected)
		}
	}
	return nil
}
