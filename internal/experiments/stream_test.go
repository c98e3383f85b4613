package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"parsched/internal/core"
	"parsched/internal/sched"
	"parsched/internal/swf"
	"parsched/internal/workload/trace"
)

// cleanedTrace writes the cleaned (streamable) form of the trace
// fixture to a temp file.
func cleanedTrace(t *testing.T) string {
	t.Helper()
	log, err := swf.ReadFile("../workload/trace/testdata/mini.swf")
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := swf.Clean(log)
	path := filepath.Join(t.TempDir(), "mini.cln.swf")
	if err := swf.WriteFile(path, clean); err != nil {
		t.Fatal(err)
	}
	return path
}

func traceSpec(path string) RunSpec {
	return RunSpec{
		Scheduler: sched.Spec{Family: "easy"},
		Source:    Source{Kind: sourceTrace, Arg: path},
	}
}

func TestExecuteAutoStreamMatchesMaterialized(t *testing.T) {
	path := cleanedTrace(t)

	// Force the materialized path first (threshold far above the file),
	// then the streaming path (threshold at zero), and require identical
	// results — the auto-stream gate must be invisible in the output.
	saved := autoStreamBytes
	defer func() { autoStreamBytes = saved }()

	autoStreamBytes = 1 << 60
	if _, ok := traceSpec(path).streamSource(); ok {
		t.Fatal("small file must not trigger streaming")
	}
	mat, err := Execute(traceSpec(path))
	if err != nil {
		t.Fatalf("materialized Execute: %v", err)
	}

	autoStreamBytes = 0
	if _, ok := traceSpec(path).streamSource(); !ok {
		t.Fatal("streamable trace above threshold must trigger streaming")
	}
	str, err := Execute(traceSpec(path))
	if err != nil {
		t.Fatalf("streaming Execute: %v", err)
	}

	if !reflect.DeepEqual(mat, str) {
		t.Fatalf("results diverge:\nmaterialized %+v\nstreamed     %+v", mat, str)
	}
}

func TestAutoStreamGateRespectsRunShape(t *testing.T) {
	path := cleanedTrace(t)
	saved := autoStreamBytes
	defer func() { autoStreamBytes = saved }()
	autoStreamBytes = 0

	base := traceSpec(path)
	if _, ok := base.streamSource(); !ok {
		t.Fatal("baseline spec should stream")
	}

	cases := map[string]RunSpec{}
	loaded := base
	loaded.Loads = []float64{0.8} // rescaling needs the materialized workload
	cases["rescaled load"] = loaded
	rep := base
	rep.Rep = 2 // gap resampling needs the materialized workload
	cases["replication variant"] = rep
	fb := base
	fb.Sim.Feedback = true // closed loop is unsupported in streaming
	cases["feedback"] = fb
	model := base
	model.Source = Source{Kind: sourceModel, Arg: defaultSubstrate}
	cases["model source"] = model

	for name, rs := range cases {
		if _, ok := rs.streamSource(); ok {
			t.Errorf("%s: must fall back to the materialized path", name)
		}
	}

	// Truncation is compatible with streaming (a prefix of the stream).
	trunc := base
	trunc.Jobs = 5
	if _, ok := trunc.streamSource(); !ok {
		t.Error("truncated replay should still stream")
	}
	res, err := Execute(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Workload.Jobs != 5 {
		t.Fatalf("truncated stream run reported %+v", res)
	}
}

// panicSched is a scheduler that panics on the first arrival.
type panicSched struct{}

func (panicSched) Name() string                      { return "testpanic" }
func (panicSched) OnSubmit(sched.Context, *core.Job) { panic("scheduler bug") }
func (panicSched) OnFinish(sched.Context, *core.Job) {}
func (panicSched) OnChange(sched.Context)            {}

func init() {
	sched.Register(sched.Family{
		Name: "testpanic",
		Doc:  "test-only scheduler that panics on the first arrival",
		New:  func(sched.Args) (sched.Scheduler, error) { return panicSched{}, nil },
	})
}

// TestStreamedCellPanicStopsDecoder runs a streamed cell whose
// scheduler panics. runCell recovers the panic; the trace reader's
// decoder goroutine, blocked on a full read-ahead of a long trace, must
// still be stopped, so the goroutine count returns to its baseline.
func TestStreamedCellPanicStopsDecoder(t *testing.T) {
	var b strings.Builder
	b.WriteString(";MaxNodes: 8\n")
	for i := 1; i <= 20000; i++ {
		fmt.Fprintf(&b, "%d %d -1 60 2 -1 -1 2 90 -1 1 1 1 1 1 1 -1 -1\n", i, 10*i)
	}
	path := filepath.Join(t.TempDir(), "long.swf")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := RunSpec{Scheduler: sched.Spec{Family: "testpanic"}, Source: Source{Kind: sourceTrace, Arg: path}}
	cell := Cell{Runner: Runner{ID: "P", Title: "panicking streamed replay", Run: func(Config) ([]Table, error) {
		_, err := ExecuteStream(src, rs)
		return nil, err
	}}}

	base := runtime.NumGoroutine()
	out := runCell(context.Background(), cell, Config{})
	if !strings.Contains(out.Err, "scheduler bug") {
		t.Fatalf("cell error %q, want the recovered panic", out.Err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cell, %d before: the decoder leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
