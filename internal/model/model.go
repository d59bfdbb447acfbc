package model

import (
	"fmt"
	"time"
)

// TimingType enumerates the 25 Apprentice overhead types. The order matches
// the TimingType enum of the ASL specification.
type TimingType int

// Overhead types.
const (
	Barrier TimingType = iota
	LockWait
	Send
	Receive
	Broadcast
	Reduce
	Gather
	Scatter
	AllToAll
	SharedGet
	SharedPut
	RemoteRead
	RemoteWrite
	IORead
	IOWrite
	IOOpen
	IOClose
	IOWait
	BufferCopy
	PackUnpack
	Startup
	Shutdown
	RuntimeSystem
	Instrumentation
	UncountedOverhead
	NumTimingTypes = iota
)

var timingTypeNames = [NumTimingTypes]string{
	"Barrier", "LockWait", "Send", "Receive", "Broadcast", "Reduce",
	"Gather", "Scatter", "AllToAll", "SharedGet", "SharedPut",
	"RemoteRead", "RemoteWrite", "IORead", "IOWrite", "IOOpen", "IOClose",
	"IOWait", "BufferCopy", "PackUnpack", "Startup", "Shutdown",
	"RuntimeSystem", "Instrumentation", "UncountedOverhead",
}

// String returns the enum member name.
func (t TimingType) String() string {
	if t < 0 || int(t) >= NumTimingTypes {
		return fmt.Sprintf("TimingType(%d)", int(t))
	}
	return timingTypeNames[t]
}

// ParseTimingType resolves a member name.
func ParseTimingType(name string) (TimingType, error) {
	for i, n := range timingTypeNames {
		if n == name {
			return TimingType(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown timing type %q", name)
}

// CommTypes are the message-passing and remote-memory overhead types grouped
// by the CommunicationCost property.
var CommTypes = []TimingType{Send, Receive, Broadcast, Reduce, Gather, Scatter, AllToAll, SharedGet, SharedPut, RemoteRead, RemoteWrite}

// IOTypes are the I/O overhead types grouped by the IOCost property.
var IOTypes = []TimingType{IORead, IOWrite, IOOpen, IOClose, IOWait}

// BarrierFunction is the conventional name of the barrier routine; the
// paper's LoadImbalance property "is evaluated only for calls to the
// barrier routine".
const BarrierFunction = "barrier"

// RegionKind classifies program regions, per the paper's Section 3 list.
type RegionKind string

// Region kinds.
const (
	KindProgram    RegionKind = "program"
	KindSubprogram RegionKind = "subprogram"
	KindLoop       RegionKind = "loop"
	KindIfBlock    RegionKind = "if"
	KindCallSite   RegionKind = "call"
	KindBasicBlock RegionKind = "block"
)

// Dataset mirrors the ASL Program class: one application with its versions.
type Dataset struct {
	Program  string
	Versions []*Version
}

// Run resolves a test run by processor count: the first run (in version, then
// run order) with nope PEs, or, for nope 0, the run with the most PEs. It
// returns nil when no run qualifies. This is the one place "-nope N, default
// largest" is decided, for the cosy command line and the cosyd service alike.
func (d *Dataset) Run(nope int) *TestRun {
	var best *TestRun
	for _, v := range d.Versions {
		for _, r := range v.Runs {
			if nope > 0 {
				if r.NoPe == nope {
					return r
				}
				continue
			}
			if best == nil || r.NoPe > best.NoPe {
				best = r
			}
		}
	}
	return best
}

// Version mirrors ProgVersion.
type Version struct {
	Compilation time.Time
	Code        string
	Functions   []*Function
	Runs        []*TestRun
}

// TestRun mirrors the ASL TestRun class.
type TestRun struct {
	Start      time.Time
	NoPe       int
	Clockspeed int // MHz, 300 or 450 on the T3E family
}

// Function mirrors the ASL Function class.
type Function struct {
	Name    string
	Regions []*Region
	// Calls are the call sites *of this function* (who calls it), per the
	// paper: "A Function object specifies the function name, the call
	// sites, and the program regions in this function."
	Calls []*FunctionCall
}

// Region mirrors the ASL Region class, extended with Name and Kind for
// reporting.
type Region struct {
	Name     string
	Kind     RegionKind
	Parent   *Region
	Children []*Region // derived, not part of the ASL model
	TotTimes []*TotalTiming
	TypTimes []*TypedTiming
}

// TotalTiming mirrors the ASL TotalTiming class. All times are process-summed
// seconds, as stored by Apprentice.
type TotalTiming struct {
	Run  *TestRun
	Excl float64
	Incl float64
	Ovhd float64
}

// TypedTiming mirrors the ASL TypedTiming class.
type TypedTiming struct {
	Run  *TestRun
	Type TimingType
	Time float64
}

// FunctionCall mirrors the ASL FunctionCall class (one call site).
type FunctionCall struct {
	Callee     string // name of the called function; owner of this call site
	Caller     *Function
	CallingReg *Region
	Sums       []*CallTiming
}

// CallTiming mirrors the ASL CallTiming class: per-run statistics of one
// call site across processes, with the extremal processors memorized.
type CallTiming struct {
	Run        *TestRun
	MinCalls   float64
	MaxCalls   float64
	MeanCalls  float64
	StdevCalls float64
	PeMinCalls int
	PeMaxCalls int
	MinTime    float64
	MaxTime    float64
	MeanTime   float64
	StdevTime  float64
	PeMinTime  int
	PeMaxTime  int
}

// Walk visits r and all its descendants pre-order.
func (r *Region) Walk(fn func(*Region)) {
	fn(r)
	for _, c := range r.Children {
		c.Walk(fn)
	}
}

// TotalFor returns the TotalTiming of the given run, or nil.
func (r *Region) TotalFor(run *TestRun) *TotalTiming {
	for _, t := range r.TotTimes {
		if t.Run == run {
			return t
		}
	}
	return nil
}

// TypedFor returns the TypedTiming of the given run and type, or nil.
func (r *Region) TypedFor(run *TestRun, tt TimingType) *TypedTiming {
	for _, t := range r.TypTimes {
		if t.Run == run && t.Type == tt {
			return t
		}
	}
	return nil
}

// Validate checks the structural invariants the analysis relies on:
// for every region at most one TotalTiming and at most one TypedTiming per
// (run, type); distinct NoPe across the runs of a version (so the minimal-PE
// reference run is unique); parent links acyclic and consistent with
// children; call-site statistics ordered Min <= Mean <= Max.
func (d *Dataset) Validate() error {
	if d.Program == "" {
		return fmt.Errorf("model: dataset has no program name")
	}
	for vi, v := range d.Versions {
		seenPe := make(map[int]bool)
		for _, run := range v.Runs {
			if run.NoPe <= 0 {
				return fmt.Errorf("model: version %d: run with NoPe %d", vi, run.NoPe)
			}
			if seenPe[run.NoPe] {
				return fmt.Errorf("model: version %d: duplicate NoPe %d (minimal reference run would be ambiguous)", vi, run.NoPe)
			}
			seenPe[run.NoPe] = true
		}
		for _, f := range v.Functions {
			for _, root := range f.Regions {
				var err error
				root.Walk(func(r *Region) {
					if err != nil {
						return
					}
					err = validateRegion(v, r)
				})
				if err != nil {
					return fmt.Errorf("model: version %d, function %s: %w", vi, f.Name, err)
				}
			}
			for ci, call := range f.Calls {
				if call.Callee != f.Name {
					return fmt.Errorf("model: version %d: call site %d of %s has callee %q", vi, ci, f.Name, call.Callee)
				}
				seenRun := make(map[*TestRun]bool)
				for _, ct := range call.Sums {
					if seenRun[ct.Run] {
						return fmt.Errorf("model: version %d: call site %d of %s has duplicate CallTiming for a run", vi, ci, f.Name)
					}
					seenRun[ct.Run] = true
					if !(ct.MinCalls <= ct.MeanCalls && ct.MeanCalls <= ct.MaxCalls) {
						return fmt.Errorf("model: call site of %s: calls min/mean/max out of order", f.Name)
					}
					if !(ct.MinTime <= ct.MeanTime && ct.MeanTime <= ct.MaxTime) {
						return fmt.Errorf("model: call site of %s: time min/mean/max out of order", f.Name)
					}
					if ct.StdevCalls < 0 || ct.StdevTime < 0 {
						return fmt.Errorf("model: call site of %s: negative standard deviation", f.Name)
					}
				}
			}
		}
	}
	return nil
}

func validateRegion(v *Version, r *Region) error {
	seenRun := make(map[*TestRun]bool)
	for _, tt := range r.TotTimes {
		if seenRun[tt.Run] {
			return fmt.Errorf("region %s: duplicate TotalTiming for a run", r.Name)
		}
		seenRun[tt.Run] = true
		if tt.Incl < tt.Excl {
			return fmt.Errorf("region %s: inclusive time %g below exclusive %g", r.Name, tt.Incl, tt.Excl)
		}
		if tt.Ovhd < 0 {
			return fmt.Errorf("region %s: negative overhead", r.Name)
		}
	}
	seenTyped := make(map[*TestRun]map[TimingType]bool)
	for _, tt := range r.TypTimes {
		m := seenTyped[tt.Run]
		if m == nil {
			m = make(map[TimingType]bool)
			seenTyped[tt.Run] = m
		}
		if m[tt.Type] {
			return fmt.Errorf("region %s: duplicate TypedTiming %s for a run", r.Name, tt.Type)
		}
		m[tt.Type] = true
		if tt.Time < 0 {
			return fmt.Errorf("region %s: negative %s time", r.Name, tt.Type)
		}
	}
	for _, c := range r.Children {
		if c.Parent != r {
			return fmt.Errorf("region %s: child %s has wrong parent link", r.Name, c.Name)
		}
	}
	return nil
}

// Regions returns all regions of the version, pre-order per function.
func (v *Version) AllRegions() []*Region {
	var out []*Region
	for _, f := range v.Functions {
		for _, root := range f.Regions {
			root.Walk(func(r *Region) { out = append(out, r) })
		}
	}
	return out
}

// RootRegion returns the whole-program region: the unique region of kind
// KindProgram, or nil if absent.
func (v *Version) RootRegion() *Region {
	for _, f := range v.Functions {
		for _, root := range f.Regions {
			if root.Kind == KindProgram {
				return root
			}
		}
	}
	return nil
}

// MinPeRun returns the run with the smallest processor count, the paper's
// reference for total-cost computation, or nil if the version has no runs.
func (v *Version) MinPeRun() *TestRun {
	var best *TestRun
	for _, r := range v.Runs {
		if best == nil || r.NoPe < best.NoPe {
			best = r
		}
	}
	return best
}

// FunctionByName returns the named function, or nil.
func (v *Version) FunctionByName(name string) *Function {
	for _, f := range v.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Stats summarizes dataset size for reports and benchmarks.
type Stats struct {
	Versions     int
	Runs         int
	Functions    int
	Regions      int
	TotalTimings int
	TypedTimings int
	CallSites    int
	CallTimings  int
}

// Stats computes dataset size counters.
func (d *Dataset) Stats() Stats {
	var s Stats
	s.Versions = len(d.Versions)
	for _, v := range d.Versions {
		s.Runs += len(v.Runs)
		s.Functions += len(v.Functions)
		for _, f := range v.Functions {
			s.CallSites += len(f.Calls)
			for _, c := range f.Calls {
				s.CallTimings += len(c.Sums)
			}
		}
		for _, r := range v.AllRegions() {
			s.Regions++
			s.TotalTimings += len(r.TotTimes)
			s.TypedTimings += len(r.TypTimes)
		}
	}
	return s
}
