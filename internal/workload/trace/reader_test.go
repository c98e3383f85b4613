package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// recordLine renders one replayable SWF data line.
func recordLine(id, submit int64) string {
	return fmt.Sprintf("%d %d -1 60 2 -1 -1 2 90 -1 1 1 1 1 1 1 -1 -1\n", id, submit)
}

// goodLog renders n replayable jobs, one every 10 s.
func goodLog(n int) string {
	var b strings.Builder
	b.WriteString(";MaxNodes: 8\n")
	for i := 1; i <= n; i++ {
		b.WriteString(recordLine(int64(i), int64(10*i)))
	}
	return b.String()
}

// openRewritten runs the statistics pass over a streamable log of n
// jobs, then replaces the file with after, so the reader meets content
// the statistics pass never saw.
func openRewritten(t *testing.T, n int, after string) *StreamSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.swf")
	if err := os.WriteFile(path, []byte(goodLog(n)), 0o644); err != nil {
		t.Fatal(err)
	}
	ss, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Streamable() {
		t.Fatal("log must be streamable")
	}
	if err := os.WriteFile(path, []byte(after), 0o644); err != nil {
		t.Fatal(err)
	}
	return ss
}

// expectJobs pulls n jobs off r and checks their IDs run 1..n.
func expectJobs(t *testing.T, r *JobReader, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		j, err := r.Next()
		if err != nil || j == nil {
			t.Fatalf("job %d: got %v, %v", i, j, err)
		}
		if j.ID != int64(i) {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestJobReaderCloseIsIdempotent(t *testing.T) {
	ss := openRewritten(t, 10, goodLog(10))
	r, err := ss.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestJobReaderCloseJoinsDecoder closes a reader whose decoder is
// blocked on read-ahead: Close must stop it and wait for it to exit.
func TestJobReaderCloseJoinsDecoder(t *testing.T) {
	const n = 20 * batchJobs
	ss := openRewritten(t, n, goodLog(n))
	base := runtime.NumGoroutine()
	r, err := ss.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	expectJobs(t, r, 10)
	if got := runtime.NumGoroutine(); got <= base {
		t.Fatalf("%d goroutines with a reader open, %d before: no decoder running", got, base)
	}
	// Wait for the read-ahead to fill: the decoder then blocks on a full
	// channel and only Close can stop it.
	deadline := time.Now().Add(2 * time.Second)
	for len(r.full) < cap(r.full) {
		if time.Now().After(deadline) {
			t.Fatalf("read-ahead holds %d batches, want %d", len(r.full), cap(r.full))
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has returned after the decoder closed its last channel;
	// allow the runtime a moment to retire the goroutine itself.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the reader opened", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobReaderStopsAtLimit puts a malformed line right after the
// limit: a decoder that read one record too many would surface it.
func TestJobReaderStopsAtLimit(t *testing.T) {
	for _, limit := range []int{10, batchJobs, 2 * batchJobs} {
		ss := openRewritten(t, 3*batchJobs, goodLog(limit)+"not a record\n")
		r, err := ss.Stream(limit)
		if err != nil {
			t.Fatal(err)
		}
		expectJobs(t, r, limit)
		for range 3 {
			if j, err := r.Next(); j != nil || err != nil {
				t.Fatalf("limit %d: after the limit got %v, %v; want end of stream", limit, j, err)
			}
		}
		r.Close()
	}
}

// TestJobReaderErrorAfterExactJobs checks that a failure reaches Next
// after exactly the jobs that precede it in the file, and then on
// every later call.
func TestJobReaderErrorAfterExactJobs(t *testing.T) {
	for _, good := range []int{0, 5, batchJobs - 1, batchJobs, batchJobs + 5} {
		tail := goodLog(good)
		cases := map[string]struct{ after, want string }{
			"parse error": {tail + "not a record\n" + recordLine(int64(good+1), int64(10*good+10)),
				fmt.Sprintf("line %d: ", good+2)},
			"submit order": {tail + recordLine(int64(good+1), 1) + recordLine(int64(good+2), 2),
				"before predecessor's"},
		}
		if good == 0 {
			// The first job has no predecessor to precede.
			delete(cases, "submit order")
		}
		for name, c := range cases {
			t.Run(fmt.Sprintf("%s after %d", name, good), func(t *testing.T) {
				ss := openRewritten(t, 2*batchJobs, c.after)
				r, err := ss.Stream(0)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				expectJobs(t, r, good)
				var first error
				for i := range 3 {
					j, err := r.Next()
					if j != nil || err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("call %d after %d jobs: got %v, %v; want an error containing %q", i, good, j, err, c.want)
					}
					if first == nil {
						first = err
					} else if err.Error() != first.Error() {
						t.Fatalf("error changed between calls: %v, then %v", first, err)
					}
				}
			})
		}
	}
}
