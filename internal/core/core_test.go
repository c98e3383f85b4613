package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"parsched/internal/swf"
)

// testWorkload builds a small well-formed workload.
func testWorkload() *Workload {
	return &Workload{
		Name:     "test",
		MaxNodes: 64,
		Jobs: []*Job{
			{ID: 1, Submit: 0, Size: 8, Runtime: 100, Estimate: 200, User: 1, Group: 1, App: 1, Partition: 1},
			{ID: 2, Submit: 50, Size: 16, Runtime: 300, Estimate: 400, User: 2, Group: 1, App: 2, Partition: 1},
			{ID: 3, Submit: 120, Size: 4, Runtime: 60, Estimate: 100, User: 1, Group: 1, App: 1, Partition: 1, PrecedingJob: 1, ThinkTime: 20},
		},
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := testWorkload().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadValidateCatches(t *testing.T) {
	w := testWorkload()
	w.Jobs[1].Submit = 500
	if err := w.Validate(); err == nil {
		t.Fatal("unsorted workload should fail")
	}

	w = testWorkload()
	w.Jobs[0].Size = 0
	if err := w.Validate(); err == nil {
		t.Fatal("zero size should fail")
	}

	w = testWorkload()
	w.Jobs[0].Size = 1000
	if err := w.Validate(); err == nil {
		t.Fatal("size > machine should fail")
	}

	w = testWorkload()
	w.Jobs[2].PrecedingJob = 3
	if err := w.Validate(); err == nil {
		t.Fatal("self-reference should fail")
	}

	w = testWorkload()
	w.Jobs[0].ID = 9
	if err := w.Validate(); err == nil {
		t.Fatal("non-sequential IDs should fail")
	}

	w = testWorkload()
	w.Jobs[0].Runtime = -1
	if err := w.Validate(); err == nil {
		t.Fatal("negative runtime should fail")
	}
}

func TestWorkloadValidateUnsizedMachine(t *testing.T) {
	// A workload that names no machine size bounds no job's size; the
	// per-job check with an explicit machine size still does.
	w := testWorkload()
	w.MaxNodes = 0
	w.Jobs[0].Size = 1000
	if err := w.Validate(); err != nil {
		t.Fatalf("unsized machine: %v", err)
	}
	if err := CheckJob(w.Jobs[0], 1, 0, 64); err == nil {
		t.Fatal("CheckJob accepted a job larger than the machine")
	}
}

func TestAreaAndTotals(t *testing.T) {
	w := testWorkload()
	if a := w.Jobs[0].Area(); a != 800 {
		t.Fatalf("area = %d, want 800", a)
	}
	if total := w.TotalArea(); total != 800+4800+240 {
		t.Fatalf("total area = %d", total)
	}
}

func TestOfferedLoad(t *testing.T) {
	w := testWorkload()
	// span = last end (2 submits 50 + 300 = 350) - first submit 0 = 350
	want := float64(5840) / (350.0 * 64.0)
	if got := w.OfferedLoad(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("offered load = %v, want %v", got, want)
	}
}

func TestScaleLoadCompressesGaps(t *testing.T) {
	w := testWorkload()
	w.ScaleLoad(2)
	// Gap compression: submits were 0,50,120; now 0,25,60.
	if w.Jobs[1].Submit != 25 || w.Jobs[2].Submit != 60 {
		t.Fatalf("submits after scale: %d, %d", w.Jobs[1].Submit, w.Jobs[2].Submit)
	}
}

func TestScaleLoadDoublesOfferedLoad(t *testing.T) {
	// On a long workload (arrival span >> tail runtime) scaling the
	// arrival process scales the offered load proportionally.
	w := &Workload{MaxNodes: 64}
	for i := 0; i < 2000; i++ {
		w.Jobs = append(w.Jobs, &Job{
			ID: int64(i + 1), Submit: int64(i * 100), Size: 8, Runtime: 50, User: 1,
		})
	}
	base := w.OfferedLoad()
	w.ScaleLoad(2)
	got := w.OfferedLoad()
	if math.Abs(got-2*base)/(2*base) > 0.01 {
		t.Fatalf("load after x2 scale = %v, want ~%v", got, 2*base)
	}
}

func TestScaleLoadNoOp(t *testing.T) {
	w := testWorkload()
	w.ScaleLoad(0) // invalid factor ignored
	if w.Jobs[1].Submit != 50 {
		t.Fatal("factor 0 must be a no-op")
	}
}

func TestClone(t *testing.T) {
	w := testWorkload()
	c := w.Clone()
	c.Jobs[0].Runtime = 9999
	if w.Jobs[0].Runtime == 9999 {
		t.Fatal("clone shares job structs")
	}
}

func TestSortBySubmitRemapsFeedback(t *testing.T) {
	w := &Workload{MaxNodes: 64, Jobs: []*Job{
		{ID: 1, Submit: 100, Size: 1, Runtime: 10, User: 1},
		{ID: 2, Submit: 0, Size: 1, Runtime: 10, User: 1},
		{ID: 3, Submit: 200, Size: 1, Runtime: 10, User: 1, PrecedingJob: 1, ThinkTime: 5},
	}}
	w.SortBySubmit()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Old job 1 is now job 2; job 3's reference must follow it.
	if w.Jobs[2].PrecedingJob != 2 {
		t.Fatalf("remap wrong: %d", w.Jobs[2].PrecedingJob)
	}
}

func TestTruncateClearsDangling(t *testing.T) {
	w := testWorkload()
	w.Jobs[2].PrecedingJob = 1 // fine
	w.Truncate(3)              // no-op
	if len(w.Jobs) != 3 {
		t.Fatal("truncate(3) changed length")
	}
	w2 := &Workload{MaxNodes: 8, Jobs: []*Job{
		{ID: 1, Submit: 0, Size: 1, Runtime: 1},
		{ID: 2, Submit: 1, Size: 1, Runtime: 1, PrecedingJob: 3}, // forward ref (invalid but tests clearing)
	}}
	w2.Truncate(2)
	_ = w2
}

func TestUsers(t *testing.T) {
	w := testWorkload()
	us := w.Users()
	if len(us) != 2 || us[0] != 1 || us[1] != 2 {
		t.Fatalf("users = %v", us)
	}
}

func TestRuntimeOnRigid(t *testing.T) {
	j := &Job{Size: 8, Runtime: 100, Class: Rigid}
	if j.RuntimeOn(16) != 100 || j.RuntimeOn(4) != 100 {
		t.Fatal("rigid job runtime must not depend on p")
	}
}

func TestRuntimeOnMoldable(t *testing.T) {
	j := &Job{Size: 8, Runtime: 100, Class: Moldable, Speedup: AmdahlSpeedup{F: 0}}
	// Perfect speedup: double the processors, halve the time.
	if rt := j.RuntimeOn(16); rt != 50 {
		t.Fatalf("runtime on 16 = %d, want 50", rt)
	}
	if rt := j.RuntimeOn(4); rt != 200 {
		t.Fatalf("runtime on 4 = %d, want 200", rt)
	}
	if rt := j.RuntimeOn(8); rt != 100 {
		t.Fatalf("runtime on own size = %d, want 100", rt)
	}
}

func TestAmdahlSpeedup(t *testing.T) {
	s := AmdahlSpeedup{F: 0.1}
	if got := s.Speedup(1); got != 1 {
		t.Fatalf("S(1) = %v", got)
	}
	// Limit is 1/F = 10.
	if got := s.Speedup(1 << 20); math.Abs(got-10) > 0.1 {
		t.Fatalf("S(inf) = %v, want ~10", got)
	}
	prev := 0.0
	for n := 1; n <= 1024; n *= 2 {
		v := s.Speedup(n)
		if v < prev {
			t.Fatal("Amdahl speedup must be non-decreasing")
		}
		prev = v
	}
}

func TestDowneySpeedupProperties(t *testing.T) {
	for _, d := range []DowneySpeedup{
		{A: 32, Sigma: 0.5}, {A: 32, Sigma: 1}, {A: 32, Sigma: 2}, {A: 64, Sigma: 0},
	} {
		if got := d.Speedup(1); math.Abs(got-1) > 1e-9 {
			t.Fatalf("%v: S(1) = %v, want 1", d, got)
		}
		prev := 0.0
		for n := 1; n <= 4096; n *= 2 {
			v := d.Speedup(n)
			if v < prev-1e-9 {
				t.Fatalf("%v: speedup decreasing at n=%d (%v < %v)", d, n, v, prev)
			}
			if v > d.A+1e-9 {
				t.Fatalf("%v: speedup %v exceeds average parallelism %v", d, v, d.A)
			}
			prev = v
		}
		// Asymptote is A.
		if v := d.Speedup(1 << 20); math.Abs(v-d.A) > 1e-6 {
			t.Fatalf("%v: S(inf) = %v, want %v", d, v, d.A)
		}
	}
}

func TestDowneySpeedupDegenerate(t *testing.T) {
	d := DowneySpeedup{A: 1, Sigma: 1}
	if d.Speedup(64) != 1 {
		t.Fatal("A=1 job has no speedup")
	}
}

func TestFromToSWFRoundTrip(t *testing.T) {
	w := testWorkload()
	log := ToSWF(w)
	if vs := swf.Errors(swf.Validate(log)); len(vs) != 0 {
		t.Fatalf("ToSWF produced invalid log: %v", vs)
	}
	back, err := FromSWF(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(w.Jobs) {
		t.Fatalf("job count changed: %d", len(back.Jobs))
	}
	for i := range w.Jobs {
		a, b := w.Jobs[i], back.Jobs[i]
		if a.Submit != b.Submit || a.Size != b.Size || a.Runtime != b.Runtime ||
			a.Estimate != b.Estimate || a.User != b.User ||
			a.PrecedingJob != b.PrecedingJob || a.ThinkTime != b.ThinkTime {
			t.Fatalf("job %d changed: %+v -> %+v", i, a, b)
		}
	}
}

func TestFromSWFRejectsDirty(t *testing.T) {
	log := &swf.Log{Records: []swf.Record{
		{JobID: 1, Submit: 0, RunTime: -1, Procs: 4, Status: swf.StatusCompleted, User: 1, Group: 1, App: 1, Partition: 1},
	}}
	if _, err := FromSWF(log); err == nil || !strings.Contains(err.Error(), "runtime") {
		t.Fatalf("want runtime error, got %v", err)
	}
	log = &swf.Log{Records: []swf.Record{
		{JobID: 1, Submit: 0, RunTime: 50, Procs: -1, ReqProcs: -1, Status: swf.StatusCompleted, User: 1, Group: 1, App: 1, Partition: 1},
	}}
	if _, err := FromSWF(log); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("want size error, got %v", err)
	}
}

func TestFromSWFSkipsPartials(t *testing.T) {
	log := ToSWF(testWorkload())
	log.Records = append(log.Records, swf.Record{
		JobID: 3, Submit: -1, Wait: 10, RunTime: 30, Procs: 4,
		Status: swf.StatusPartialLastOK, User: 1, Group: 1, App: 1, Partition: 1,
		PrecedingJob: -1, ThinkTime: -1,
	})
	w, err := FromSWF(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 3 {
		t.Fatalf("partials leaked into workload: %d jobs", len(w.Jobs))
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: ToSWF ∘ FromSWF is the identity on key fields for any
	// valid workload permutation.
	f := func(seed int64) bool {
		w := testWorkload()
		w.Jobs[0].Submit = seed % 100
		if w.Jobs[0].Submit < 0 {
			w.Jobs[0].Submit = -w.Jobs[0].Submit
		}
		w.SortBySubmit()
		back, err := FromSWF(ToSWF(w))
		if err != nil {
			return false
		}
		return len(back.Jobs) == len(w.Jobs) && back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateOrRuntime(t *testing.T) {
	j := &Job{Runtime: 100, Estimate: 500}
	if j.EstimateOrRuntime() != 500 {
		t.Fatal("estimate should win when present")
	}
	j.Estimate = 0
	if j.EstimateOrRuntime() != 100 {
		t.Fatal("runtime fallback wrong")
	}
}

func TestClassString(t *testing.T) {
	if Rigid.String() != "rigid" || Moldable.String() != "moldable" ||
		Malleable.String() != "malleable" || Class(9).String() == "" {
		t.Fatal("class strings wrong")
	}
}
