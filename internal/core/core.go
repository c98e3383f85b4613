// Package core defines the domain model shared by every subsystem of
// this repository: jobs, workloads, the rigid/flexible job taxonomy of
// Section 1.2 of the paper (rigid, moldable, malleable), speedup models
// for flexible jobs, the internal-structure "strawman" of Feitelson &
// Rudolph [23] (processes, barriers, granularity, variance), and the
// feedback-insertion methodology of Section 2.2 (preceding job + think
// time inferred from same-user activity).
//
// core sits between the standard workload format (internal/swf) and the
// simulator (internal/sim): SWF records are the archival form, core.Job
// is the operational form schedulers consume.
package core

import (
	"fmt"
	"math"
	"sort"

	"parsched/internal/swf"
)

// Class is the application class taxonomy of the paper: rigid jobs
// (including moldable ones, which fix their size at start) versus
// flexible jobs (malleable/evolving, reconfigurable at runtime).
type Class int

const (
	// Rigid jobs run on exactly the number of processors requested.
	Rigid Class = iota
	// Moldable jobs can start on a range of sizes chosen by the
	// scheduler, but cannot change size afterwards.
	Moldable
	// Malleable jobs can grow and shrink during execution.
	Malleable
)

func (c Class) String() string {
	switch c {
	case Rigid:
		return "rigid"
	case Moldable:
		return "moldable"
	case Malleable:
		return "malleable"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Job is one unit of work submitted to a machine scheduler.
type Job struct {
	// ID is unique within a workload, assigned from 1 in submit order.
	ID int64
	// Submit is the submittal time in seconds from workload start.
	Submit int64
	// Size is the number of processors requested (and, for rigid jobs,
	// used).
	Size int
	// Runtime is the actual wall-clock runtime in seconds when run on
	// Size processors.
	Runtime int64
	// Estimate is the user's runtime estimate given to the scheduler
	// (SWF requested time). Backfilling relies on it. Zero means the
	// scheduler must fall back on a default.
	Estimate int64
	// AvgCPU is the average CPU seconds consumed per processor, if known.
	AvgCPU int64
	// MemPerProc and ReqMemPerProc are used/requested KB per processor.
	MemPerProc    int64
	ReqMemPerProc int64
	// User, Group, App, Queue, Partition are the anonymized identities
	// of the standard format.
	User, Group, App, Queue, Partition int64
	// Killed reports that the job did not complete normally in the
	// source log.
	Killed bool
	// PrecedingJob and ThinkTime encode feedback: this job is submitted
	// ThinkTime seconds after job PrecedingJob terminates. Zero
	// PrecedingJob means no dependency.
	PrecedingJob int64
	ThinkTime    int64
	// Class is the rigidity class; rigid unless a model says otherwise.
	Class Class
	// Speedup describes runtime scaling for moldable/malleable jobs.
	// nil for rigid jobs.
	Speedup SpeedupModel
	// MinSize/MaxSize bound the sizes a moldable job accepts (ignored
	// for rigid jobs).
	MinSize, MaxSize int
	// Structure optionally carries the internal-structure parameters of
	// the strawman model [23].
	Structure *Structure
}

// RuntimeOn returns the wall-clock runtime of the job when run on p
// processors. For rigid jobs this is Runtime regardless of p (a rigid
// job cannot use extra processors and cannot run on fewer). For
// moldable/malleable jobs the speedup model scales the sequential work.
func (j *Job) RuntimeOn(p int) int64 {
	if j.Class == Rigid || j.Speedup == nil || p == j.Size {
		return j.Runtime
	}
	if p < 1 {
		p = 1
	}
	// Sequential work implied by the recorded (Size, Runtime) pair.
	work := float64(j.Runtime) * j.Speedup.Speedup(j.Size)
	rt := work / j.Speedup.Speedup(p)
	if rt < 1 {
		rt = 1
	}
	return int64(math.Ceil(rt))
}

// Area returns processor-seconds consumed by the job (Size × Runtime),
// the quantity utilization accounting is built on.
func (j *Job) Area() int64 { return int64(j.Size) * j.Runtime }

// EstimateOrRuntime returns the user estimate if present, otherwise the
// actual runtime (perfect estimates), the standard fallback when a log
// lacks requested times.
func (j *Job) EstimateOrRuntime() int64 {
	if j.Estimate > 0 {
		return j.Estimate
	}
	return j.Runtime
}

// SpeedupModel maps a processor count to speedup relative to one
// processor. Implementations must be monotonically non-decreasing in n
// with Speedup(1) == 1.
type SpeedupModel interface {
	Speedup(n int) float64
	String() string
}

// AmdahlSpeedup is the classic Amdahl law with serial fraction F:
// S(n) = 1 / (F + (1-F)/n).
type AmdahlSpeedup struct{ F float64 }

// Speedup implements SpeedupModel.
func (a AmdahlSpeedup) Speedup(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1 / (a.F + (1-a.F)/float64(n))
}

func (a AmdahlSpeedup) String() string { return fmt.Sprintf("Amdahl(f=%g)", a.F) }

// DowneySpeedup is Downey's two-parameter speedup model ('97): A is the
// average parallelism and Sigma the coefficient of variance of
// parallelism. Sigma = 0 gives near-ideal speedup up to A then flat;
// larger Sigma bends the curve earlier. This is the model the paper
// cites for describing "how an application would perform with different
// resource allocations".
type DowneySpeedup struct {
	A     float64 // average parallelism (>= 1)
	Sigma float64 // variance of parallelism (>= 0)
}

// Speedup implements Downey's piecewise speedup function.
func (d DowneySpeedup) Speedup(nInt int) float64 {
	n := float64(nInt)
	if n < 1 {
		n = 1
	}
	A, s := d.A, d.Sigma
	if A <= 1 {
		return 1
	}
	if s <= 1 {
		// Low-variance regime.
		switch {
		case n < A:
			// S(n) = A*n / (A + s*(n-1)/2)   for 1 <= n <= A
			return A * n / (A + s*(n-1)/2)
		case n < 2*A-1:
			// S(n) = A*n / (s*(A-1/2) + n*(1-s/2))
			return A * n / (s*(A-0.5) + n*(1-s/2))
		default:
			return A
		}
	}
	// High-variance regime.
	limit := A + A*s - s
	if n < limit {
		// S(n) = n*A*(s+1) / (s*(n+A-1) + A)
		return n * A * (s + 1) / (s*(n+A-1) + A)
	}
	return A
}

func (d DowneySpeedup) String() string { return fmt.Sprintf("Downey(A=%g,sigma=%g)", d.A, d.Sigma) }

// Workload is an ordered collection of jobs plus the machine context
// needed to interpret them.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// MaxNodes is the size of the machine the workload targets.
	MaxNodes int
	// Jobs are sorted by ascending submit time, IDs from 1.
	Jobs []*Job
}

// Clone returns a deep copy of the workload (job structs are copied;
// Speedup models and Structures are shared, as they are immutable).
func (w *Workload) Clone() *Workload {
	return w.ClonePrefix(len(w.Jobs))
}

// ClonePrefix deep-copies only the first n jobs (all of them when n is
// out of range), equivalent to Clone followed by Truncate(n) but
// without copying the jobs the truncation would discard. Feedback
// references pointing past the prefix are cleared, as in Truncate.
func (w *Workload) ClonePrefix(n int) *Workload {
	if n < 0 || n > len(w.Jobs) {
		n = len(w.Jobs)
	}
	out := &Workload{Name: w.Name, MaxNodes: w.MaxNodes, Jobs: make([]*Job, n)}
	// One backing block for all the copies: a 20k-job clone is two
	// allocations, not twenty thousand, and the jobs stay contiguous for
	// the arrival pump's sequential pull.
	block := make([]Job, n)
	for i, j := range w.Jobs[:n] {
		block[i] = *j
		if block[i].PrecedingJob > int64(n) {
			block[i].PrecedingJob = 0
			block[i].ThinkTime = 0
		}
		out.Jobs[i] = &block[i]
	}
	return out
}

// SortBySubmit stably sorts jobs by submit time and renumbers IDs from
// 1, remapping PrecedingJob references. References that would point
// forward after the sort are dropped.
func (w *Workload) SortBySubmit() {
	sort.SliceStable(w.Jobs, func(i, k int) bool { return w.Jobs[i].Submit < w.Jobs[k].Submit })
	remap := make(map[int64]int64, len(w.Jobs))
	for i, j := range w.Jobs {
		remap[j.ID] = int64(i + 1)
	}
	for i, j := range w.Jobs {
		j.ID = int64(i + 1)
		if j.PrecedingJob > 0 {
			if newID, ok := remap[j.PrecedingJob]; ok && newID < j.ID {
				j.PrecedingJob = newID
			} else {
				j.PrecedingJob = 0
				j.ThinkTime = 0
			}
		}
		_ = i
	}
}

// TotalArea returns the processor-seconds of all jobs.
func (w *Workload) TotalArea() int64 {
	var a int64
	for _, j := range w.Jobs {
		a += j.Area()
	}
	return a
}

// Span returns the time between the first submittal and the latest
// submit+runtime (a lower bound on makespan).
func (w *Workload) Span() int64 {
	if len(w.Jobs) == 0 {
		return 0
	}
	first := w.Jobs[0].Submit
	var last int64
	for _, j := range w.Jobs {
		if end := j.Submit + j.Runtime; end > last {
			last = end
		}
	}
	return last - first
}

// OfferedLoad estimates the offered load: total processor-seconds
// demanded divided by processor-seconds available over the submission
// span.
func (w *Workload) OfferedLoad() float64 {
	span := w.Span()
	if span <= 0 || w.MaxNodes == 0 {
		return 0
	}
	return float64(w.TotalArea()) / (float64(span) * float64(w.MaxNodes))
}

// ScaleLoad multiplies the offered load by factor by compressing (or
// stretching) interarrival gaps: new gaps = old gaps / factor. Runtime
// and size are untouched, which is the standard load-scaling method the
// modeling literature uses (changing the arrival rate, not the work).
// Think times are not scaled; feedback-driven jobs shift with their
// predecessors at replay time.
func (w *Workload) ScaleLoad(factor float64) {
	if factor <= 0 || len(w.Jobs) == 0 {
		return
	}
	prevOld := w.Jobs[0].Submit
	prevNew := w.Jobs[0].Submit
	for i := 1; i < len(w.Jobs); i++ {
		gap := float64(w.Jobs[i].Submit-prevOld) / factor
		prevOld = w.Jobs[i].Submit
		prevNew = prevNew + int64(math.Round(gap))
		w.Jobs[i].Submit = prevNew
	}
}

// Truncate keeps only the first n jobs (prefix order keeps IDs valid);
// dangling feedback references are cleared.
func (w *Workload) Truncate(n int) {
	if n >= len(w.Jobs) {
		return
	}
	w.Jobs = w.Jobs[:n]
	for _, j := range w.Jobs {
		if j.PrecedingJob > int64(n) {
			j.PrecedingJob = 0
			j.ThinkTime = 0
		}
	}
}

// Users returns the distinct user IDs in the workload, ascending.
func (w *Workload) Users() []int64 {
	seen := map[int64]bool{}
	for _, j := range w.Jobs {
		if j.User > 0 {
			seen[j.User] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// Validate checks operational invariants the simulator depends on:
// CheckJob's per-job rules for every job (with no size bound when
// MaxNodes is not set) and strictly-earlier feedback references.
func (w *Workload) Validate() error {
	maxNodes := w.MaxNodes
	if maxNodes <= 0 {
		maxNodes = math.MaxInt
	}
	var prev int64
	for i, j := range w.Jobs {
		if err := CheckJob(j, i+1, prev, maxNodes); err != nil {
			return err
		}
		prev = j.Submit
		if j.PrecedingJob != 0 && (j.PrecedingJob < 0 || j.PrecedingJob >= j.ID) {
			return fmt.Errorf("job %d: preceding job %d not earlier", j.ID, j.PrecedingJob)
		}
	}
	return nil
}

// CheckJob checks the rules a replay depends on for job j at position
// pos (from 1) of a job sequence whose previous job was submitted at
// prevSubmit: its ID is pos, it is not submitted before its
// predecessor, its size lies in 1..maxNodes, and its runtime is not
// negative. Workload.Validate and the simulator's arrival pump both
// apply it.
func CheckJob(j *Job, pos int, prevSubmit int64, maxNodes int) error {
	if j.ID != int64(pos) {
		return fmt.Errorf("job %d in position %d: IDs must be sequential from 1", j.ID, pos) //schedlint:allow allocfree error path: a malformed job aborts the replay
	}
	if j.Submit < prevSubmit {
		return fmt.Errorf("job %d: submit %d before previous %d", j.ID, j.Submit, prevSubmit) //schedlint:allow allocfree error path: a malformed job aborts the replay
	}
	if j.Size < 1 {
		return fmt.Errorf("job %d: size %d", j.ID, j.Size) //schedlint:allow allocfree error path: a malformed job aborts the replay
	}
	if j.Size > maxNodes {
		return fmt.Errorf("job %d: size %d exceeds machine of %d nodes", j.ID, j.Size, maxNodes) //schedlint:allow allocfree error path: a malformed job aborts the replay
	}
	if j.Runtime < 0 {
		return fmt.Errorf("job %d: negative runtime %d", j.ID, j.Runtime) //schedlint:allow allocfree error path: a malformed job aborts the replay
	}
	return nil
}

// FromSWF converts the summary records of a standard log into a
// workload. Records must be clean (use swf.Clean first for raw logs);
// records without usable runtime or size are rejected.
func FromSWF(log *swf.Log) (*Workload, error) {
	w := &Workload{
		Name:     log.Header.Computer,
		MaxNodes: int(log.Header.MaxNodes),
	}
	for _, r := range log.Summaries() {
		if r.RunTime < 0 {
			return nil, fmt.Errorf("job %d: unknown runtime; run swf.Clean first", r.JobID)
		}
		if r.Procs <= 0 && r.ReqProcs <= 0 {
			return nil, fmt.Errorf("job %d: unknown size; run swf.Clean first", r.JobID)
		}
		w.Jobs = append(w.Jobs, JobFromRecord(r))
	}
	w.SortBySubmit()
	return w, nil
}

// ToSWF converts a workload into a standard log. Wait times are unknown
// (-1): they are an output of scheduling, not a property of the
// workload. Completion status is 1 unless the job is marked killed.
func ToSWF(w *Workload) *swf.Log {
	log := &swf.Log{Header: swf.Header{
		Computer: w.Name,
		Version:  swf.Version,
		MaxNodes: int64(w.MaxNodes),
	}}
	for _, j := range w.Jobs {
		status := swf.StatusCompleted
		if j.Killed {
			status = swf.StatusKilled
		}
		rec := swf.Record{
			JobID:        j.ID,
			Submit:       j.Submit,
			Wait:         swf.Missing,
			RunTime:      j.Runtime,
			Procs:        int64(j.Size),
			AvgCPU:       orMissing(j.AvgCPU),
			UsedMem:      orMissing(j.MemPerProc),
			ReqProcs:     int64(j.Size),
			ReqTime:      orMissing(j.Estimate),
			ReqMem:       orMissing(j.ReqMemPerProc),
			Status:       status,
			User:         orNatural(j.User),
			Group:        orNatural(j.Group),
			App:          orNatural(j.App),
			Queue:        j.Queue,
			Partition:    orNatural(j.Partition),
			PrecedingJob: swf.Missing,
			ThinkTime:    swf.Missing,
		}
		if j.PrecedingJob > 0 {
			rec.PrecedingJob = j.PrecedingJob
			rec.ThinkTime = j.ThinkTime
		}
		log.Records = append(log.Records, rec)
	}
	return log
}

func orMissing(v int64) int64 {
	if v <= 0 {
		return swf.Missing
	}
	return v
}

// orNatural maps zero identities to 1 so converted logs satisfy the
// "natural number" rules of the standard.
func orNatural(v int64) int64 {
	if v <= 0 {
		return 1
	}
	return v
}
