package main

import "time"

// Host-speed calibration. The reference host is a few vCPUs of a shared
// machine whose speed moves by ±20 % over minutes and by more in bursts of
// seconds; a time clocked there says as much about the neighbours as about
// the program. So the harness clocks, between the ops, a fixed piece of work
// of its own — the kernel below, which no change to the repository can make
// faster or slower — and reports every timing at reference speed: the time
// the op would have taken on a host that runs the kernel in exactly
// refKernelMS. Time the op slept (the simulated vendor's round trips) does
// not depend on the host's speed and is carried over unscaled.
// bench/README.md, "Reference speed", has the measurements behind this.

// refKernelMS defines reference speed: one pass of the kernel takes this
// long. It is what a pass takes on the reference host when nothing disturbs
// it, so that times at reference speed read like that host's quiet times.
const refKernelMS = 0.5

const (
	// kernelSlots uint64s are 256 KB: resident in the second-level cache,
	// which is where the neighbours are felt first.
	kernelSlots = 1 << 15
	kernelSteps = 60000
)

// kernel is the fixed work: a linear congruential walk over a table, with a
// data-dependent branch and a read-modify-write per step. Each client owns
// one, so concurrent clients share no cache line.
type kernel struct {
	tab []uint64
	x   uint64
}

func newKernel() *kernel {
	k := &kernel{tab: make([]uint64, kernelSlots), x: 1442695040888963407}
	for range 3 { // fault the table in and settle the branch predictor
		k.pass()
	}
	return k
}

// pass runs the kernel once and returns how long it took.
func (k *kernel) pass() float64 {
	t0 := time.Now()
	x, tab := k.x, k.tab
	for i := 0; i < kernelSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		slot := (x >> 33) & (kernelSlots - 1)
		v := tab[slot]
		if v&1 == 0 {
			tab[slot] = v + x
		} else {
			tab[slot] = v ^ (x >> 7)
		}
	}
	k.x = x
	return ms(time.Now().Sub(t0))
}

// speed is the host's speed relative to reference speed while the given
// kernel passes ran: above 1 on a faster host, below 1 on a slower or
// disturbed one.
func speed(passesMS []float64) float64 {
	if len(passesMS) == 0 {
		return 1
	}
	return refKernelMS / mean(passesMS)
}

// atReference converts a clocked duration to reference speed: the part that
// was slept stays, the rest scales with the host's speed at the time.
func atReference(clocked, slept, hostSpeed float64) float64 {
	slept = min(slept, clocked)
	return slept + (clocked-slept)*hostSpeed
}

// neighbourhood is how many kernel passes before and after an op decide the
// speed the op is converted at. The host's disturbances last a few tenths
// of a second, so an op is judged by the passes right around it, not by the
// window's average.
const neighbourhood = 2

// clientLog is what one closed-loop client clocked in a window, in order:
// passes[j] ran just before op j, passes[j+1] just after it.
type clientLog struct {
	passes  []float64
	clocked []float64 // latency of op j as clocked
	failed  []bool
}

// latencies returns the latency at reference speed of every op that
// passed its check. slept is the time an op spends asleep.
func (l *clientLog) latencies(slept float64) []float64 {
	out := make([]float64, 0, len(l.clocked))
	for j, c := range l.clocked {
		if l.failed[j] {
			continue
		}
		lo, hi := max(0, j+1-neighbourhood), min(len(l.passes), j+1+neighbourhood)
		out = append(out, atReference(c, slept, speed(l.passes[lo:hi])))
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
