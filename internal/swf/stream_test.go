package swf

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

const miniFixture = "../workload/trace/testdata/mini.swf"

// renderLog round-trips a log through the textual format so the
// streaming scanners read exactly what the materialized reader reads.
func renderLog(t testing.TB, log *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func readFixture(t testing.TB) *Log {
	t.Helper()
	log, err := ReadFile(miniFixture)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", miniFixture, err)
	}
	return log
}

func TestScannerMatchesRead(t *testing.T) {
	raw, err := os.ReadFile(miniFixture)
	if err != nil {
		t.Fatal(err)
	}
	log, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(bytes.NewReader(raw))
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("Scanner: %v", err)
	}
	if len(got) != len(log.Records) {
		t.Fatalf("Scanner yielded %d records, Read %d", len(got), len(log.Records))
	}
	for i := range got {
		if got[i] != log.Records[i] {
			t.Fatalf("record %d differs:\nscan %+v\nread %+v", i, got[i], log.Records[i])
		}
	}
	if sc.Header().Computer != log.Header.Computer || sc.Header().MaxNodes != log.Header.MaxNodes {
		t.Fatalf("header differs: %+v vs %+v", sc.Header(), log.Header)
	}
}

// scanOf runs ScanStats over a rendered log.
func scanOf(t *testing.T, log *Log) *StreamStats {
	t.Helper()
	st, err := ScanStats(bytes.NewReader(renderLog(t, log)))
	if err != nil {
		t.Fatalf("ScanStats: %v", err)
	}
	return st
}

func TestScanStatsRejectsUnsortedFixture(t *testing.T) {
	st := scanOf(t, readFixture(t))
	if st.Streamable {
		t.Fatal("mini.swf is unsorted; ScanStats must mark it non-streamable")
	}
	// The per-record counters never depend on order; they must agree
	// with Clean even on the fallback verdict.
	_, rep := Clean(readFixture(t))
	if st.Report.Input != rep.Input ||
		st.Report.DroppedPartials != rep.DroppedPartials ||
		st.Report.DroppedNoRuntime != rep.DroppedNoRuntime ||
		st.Report.DroppedNoProcs != rep.DroppedNoProcs ||
		st.Report.ClampedCPU != rep.ClampedCPU ||
		st.Report.Output != rep.Output {
		t.Fatalf("per-record counters diverge:\nscan  %+v\nclean %+v", st.Report, rep)
	}
	if !st.Report.ResortedRecords {
		t.Fatal("ResortedRecords must be set for an unsorted log")
	}
}

func TestScanStatsRejectsFeedbackLogs(t *testing.T) {
	log := &Log{Records: []Record{
		{JobID: 1, Submit: 10, RunTime: 5, Procs: 2, AvgCPU: -1, Status: StatusCompleted, ThinkTime: -1, PrecedingJob: -1},
		{JobID: 2, Submit: 20, RunTime: 5, Procs: 2, AvgCPU: -1, Status: StatusCompleted, PrecedingJob: 1, ThinkTime: 3},
	}}
	st := scanOf(t, log)
	if !st.HasFeedback {
		t.Fatal("HasFeedback not detected")
	}
	if st.Streamable {
		t.Fatal("feedback references need the full ID map; must not be streamable")
	}
}

// cleanEquiv asserts ScanStats reproduces Clean's report on a
// streamable log and CleanStream reproduces its replayable records.
func cleanEquiv(t *testing.T, log *Log) {
	t.Helper()
	if !cleanEquivRaw(t, renderLog(t, log)) {
		t.Fatal("log should be streamable")
	}
}

// cleanEquivRaw reads raw both ways. Read and ScanStats must fail
// alike; if ScanStats marks the log Streamable, its report must be
// Clean's and CleanStream must yield Clean's records minus the
// unknown-submit ones. It reports whether the log was streamable.
func cleanEquivRaw(t *testing.T, raw []byte) bool {
	t.Helper()
	log, readErr := Read(bytes.NewReader(raw))
	st, err := ScanStats(bytes.NewReader(raw))
	if (err == nil) != (readErr == nil) || err != nil && err.Error() != readErr.Error() {
		t.Fatalf("ScanStats error %v, Read error %v", err, readErr)
	}
	if err != nil || !st.Streamable {
		return false
	}
	clean, rep := Clean(log)
	if st.Report != rep {
		t.Fatalf("CleanReport diverges:\nscan  %+v\nclean %+v", st.Report, rep)
	}

	// The materialized pipeline drops unknown-submit records after the
	// clean (they sink to the back); the stream never emits them.
	want := make([]Record, 0, len(clean.Records))
	for _, r := range clean.Records {
		if r.Submit >= 0 {
			want = append(want, r)
		}
	}
	if st.Jobs != len(want) {
		t.Fatalf("Jobs = %d, want %d", st.Jobs, len(want))
	}

	cs := NewCleanStream(bytes.NewReader(raw), st)
	var got []Record
	for cs.Scan() {
		got = append(got, cs.Record())
	}
	if err := cs.Err(); err != nil {
		t.Fatalf("CleanStream: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("CleanStream yielded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\nstream %+v\nclean  %+v", i, got[i], want[i])
		}
	}
	return true
}

func TestStreamingCleanMatchesCleanOnCleanedFixture(t *testing.T) {
	// Clean's own output is sorted with unknown-submit records sunk to
	// the back — exactly the streamable shape — and it still contains
	// every anomaly class the per-record rules see on disk once
	// (epoch-shifted submits already rebased, so a second clean is a
	// near-identity pass).
	clean, _ := Clean(readFixture(t))
	cleanEquiv(t, clean)
}

// adversarialLogs are small streamable logs, each exercising one way
// a log on disk differs from its cleaned form.
func adversarialLogs() map[string]*Log {
	rec := func(id, submit, runtime, procs int64) Record {
		return Record{JobID: id, Submit: submit, RunTime: runtime, Procs: procs,
			AvgCPU: -1, Status: StatusCompleted, PrecedingJob: -1, ThinkTime: -1}
	}
	return map[string]*Log{
		"epoch shift + sparse ids": {Records: []Record{
			rec(3, 915000000, 100, 4),
			rec(7, 915000050, 200, 8),
			rec(9, 915000050, 50, 1),
		}},
		"unknown submit in the middle": {Records: []Record{
			rec(1, 100, 10, 2),
			rec(2, -1, 10, 2), // sinks behind everything; replay drops it
			rec(3, 200, 10, 2),
			rec(4, 300, 10, 2),
		}},
		"partials and repairs interleaved": {Records: []Record{
			rec(1, 0, 10, 2),
			{JobID: 2, Submit: 5, RunTime: 10, Procs: 2, AvgCPU: -1, Status: StatusPartial, PrecedingJob: -1, ThinkTime: -1},
			{JobID: 2, Submit: 5, RunTime: 20, Procs: -1, ReqProcs: 6, AvgCPU: 999, Status: StatusKilled, PrecedingJob: -1, ThinkTime: -1},
			{JobID: 3, Submit: 9, RunTime: -1, Procs: 2, AvgCPU: -1, Status: StatusCompleted, PrecedingJob: -1, ThinkTime: -1},
			rec(4, 12, 10, 64), // oversize vs any header claim; survives cleaning
		}},
	}
}

func TestStreamingCleanMatchesCleanOnAdversarialLogs(t *testing.T) {
	for name, log := range adversarialLogs() {
		t.Run(name, func(t *testing.T) { cleanEquiv(t, log) })
	}
}

// FuzzCleanStream checks the streaming clean against the materialized
// one on arbitrary input: whatever ScanStats marks Streamable must
// clean identically both ways.
func FuzzCleanStream(f *testing.F) {
	for _, log := range adversarialLogs() {
		f.Add(renderLog(f, log))
	}
	raw, err := os.ReadFile(miniFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw) // unsorted, so not streamable; the two readers must still agree
	clean, _ := Clean(readFixture(f))
	f.Add(renderLog(f, clean))
	f.Add([]byte(";MaxNodes: 8\r\n1 5 -1 10 2 -1 -1 2 20 -1 1 1 1 1 1 1 -1 -1\r\n\n2 6 -1 10 2 -1 -1 2 20 -1 1 1 1 1 1 1 -1 -1\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cleanEquivRaw(t, raw)
	})
}

func TestCleanStreamStopsOnParseError(t *testing.T) {
	raw := "1 0 -1 10 2 -1 -1 2 900 -1 1 1 1 1 1 1 -1 -1\nnot a record\n"
	st, err := ScanStats(strings.NewReader(raw))
	if err == nil {
		t.Fatalf("ScanStats accepted a malformed line: %+v", st)
	}
}

// loopReader serves data forever, restarting at its end.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestScannerScanDoesNotAllocate pins the zero-allocation contract of
// the data-line path: once the scanner exists, scanning records costs
// no allocation (comment lines, which precede the data, may).
func TestScannerScanDoesNotAllocate(t *testing.T) {
	const records = 1000
	var data strings.Builder
	for i := 1; i <= records; i++ {
		rec := Record{JobID: int64(i), Submit: int64(60 * i), Wait: -1,
			RunTime: 600, Procs: 4, AvgCPU: -1, UsedMem: -1, ReqProcs: 4, ReqTime: 900, ReqMem: -1,
			Status: StatusCompleted, User: 1, Group: 1, App: 1, Queue: 1, Partition: 1,
			PrecedingJob: -1, ThinkTime: -1}
		data.WriteString(rec.String())
		data.WriteByte('\n')
	}
	sc := NewScanner(&loopReader{data: []byte(data.String())})
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < records; i++ {
			if !sc.Scan() {
				t.Fatalf("Scan stopped: %v", sc.Err())
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Scanner.Scan: %v allocations per %d records, want 0", allocs, records)
	}
}

// overlongLine is a log whose second line exceeds the scanner's 1 MB
// line cap.
var overlongLine = ";Version: 2\n" + strings.Repeat("7", 2<<20) + "\n"

func TestScannerReadErrorNamesLine(t *testing.T) {
	sc := NewScanner(strings.NewReader(overlongLine))
	for sc.Scan() {
	}
	checkTooLong(t, sc.Err())
}

func TestReadErrorNamesLine(t *testing.T) {
	_, err := Read(strings.NewReader(overlongLine))
	checkTooLong(t, err)
}

// checkTooLong requires err to name line 2 and wrap bufio.ErrTooLong.
func checkTooLong(t *testing.T, err error) {
	t.Helper()
	if err == nil || err.Error() != "line 2: swf: read: "+bufio.ErrTooLong.Error() {
		t.Fatalf("want the overlong line 2 named, got %v", err)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error %v does not wrap bufio.ErrTooLong", err)
	}
}
