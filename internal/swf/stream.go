package swf

// Streaming counterpart of Read + Clean: a Scanner that yields records
// one at a time from any io.Reader, a single-pass StreamStats scan that
// decides whether a log can be cleaned on the fly, and a CleanStream
// that emits the replayable records swf.Clean would produce without
// ever materializing the log. Together they are the swf half of the
// O(1)-memory trace replay pipeline (internal/workload/trace,
// internal/sim.RunStream).

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Scanner incrementally parses a standard workload file. Usage mirrors
// bufio.Scanner:
//
//	sc := swf.NewScanner(r)
//	for sc.Scan() {
//		r := sc.Record()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
//
// Header comments are folded into Header() as they are encountered; the
// standard puts all of them before the first data record, so Header()
// is complete once the first Scan returns (and in any case once Scan
// returns false).
type Scanner struct {
	sc     *bufio.Scanner
	header Header
	rec    Record
	err    error
	lineNo int
}

// NewScanner returns a scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Scanner{sc: sc}
}

// Scan advances to the next data record, consuming any comment lines on
// the way. It returns false at end of input or on error (check Err).
// Data lines are parsed in place from the read buffer, so a scan over
// data records does not allocate.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.lineNo++
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == ';' {
			s.header.foldComment(line[1:])
			continue
		}
		if err := parseRecord(line, &s.rec); err != nil {
			s.fail(s.lineNo, "", err)
			return false
		}
		return true
	}
	if err := s.sc.Err(); err != nil {
		// bufio.Scanner gave up on the line after the last one counted,
		// typically because it is longer than the buffer cap.
		s.fail(s.lineNo+1, "swf: read: ", err)
	}
	return false
}

// fail records the first error, prefixed with the line it arose on.
//
//schedlint:coldpath error path: a malformed or unreadable line aborts the scan
//go:noinline
func (s *Scanner) fail(lineNo int, prefix string, err error) {
	s.err = fmt.Errorf("line %d: %s%w", lineNo, prefix, err)
}

// Record returns the record produced by the last successful Scan.
func (s *Scanner) Record() Record { return s.rec }

// Header returns the header comments parsed so far.
func (s *Scanner) Header() Header { return s.header }

// Err returns the first error encountered.
func (s *Scanner) Err() error { return s.err }

// StreamStats is the outcome of a single statistics pass over a log
// (pass 1 of the streaming clean). It decides streamability and carries
// everything the replay pipeline needs to know up front: the clean
// report Clean would produce, the replayable job count, and the
// aggregate size/area figures that place the log on a machine.
//
// When Streamable is false only Header, HasFeedback, Streamable, and
// the drop counters of Report are meaningful — a non-streamable log
// must go through the materialized swf.Clean path, which computes the
// rest itself.
type StreamStats struct {
	Header Header
	// Report is what swf.Clean would report for this log.
	Report CleanReport
	// DroppedNoSubmit counts kept summary records with unknown submit
	// times: Clean sinks them to the back, replay drops them.
	DroppedNoSubmit int
	// Streamable reports that CleanStream reproduces Clean's output for
	// this log on the fly: the replayable records already appear in
	// submit order and no record carries a preceding-job reference
	// (remapping references needs the full old-to-new ID map, which is
	// exactly the O(jobs) state streaming exists to avoid).
	Streamable bool
	// HasFeedback reports a kept record with a preceding-job reference.
	HasFeedback bool
	// Jobs is the replayable job count (Report.Output minus the
	// unknown-submit records).
	Jobs int
	// MaxJobSize is the widest replayable job (machine-size inference).
	MaxJobSize int64
	// TotalArea is the processor-seconds demanded by replayable jobs.
	TotalArea int64
	// FirstSubmit/LastEnd bound the replayable jobs on the shifted time
	// axis (FirstSubmit is 0 whenever the epoch was rebased).
	FirstSubmit int64
	LastEnd     int64
}

// ScanStats runs the statistics pass over one log. Memory is O(1) plus
// one old job ID per unknown-submit record (needed to reproduce Clean's
// renumbering count; archive-grade logs have none).
func ScanStats(r io.Reader) (*StreamStats, error) {
	st := &StreamStats{}
	sc := NewScanner(r)

	knownsSorted := true // replayable records in submit order
	lessSorted := true   // the full kept sequence in Clean's sort order
	var prevKnown int64 = -1 << 62
	seenUnknown := false
	var minKnown, maxRawEnd int64
	var unknownOldIDs []int64

	for sc.Scan() {
		rec := sc.Record()
		st.Report.Input++
		if !cleanOne(&rec, &st.Report) {
			continue
		}
		st.Report.Output++
		if rec.PrecedingJob > 0 {
			st.HasFeedback = true
		}
		if rec.Submit < 0 {
			st.DroppedNoSubmit++
			unknownOldIDs = append(unknownOldIDs, rec.JobID)
			seenUnknown = true
			continue
		}
		if rec.Submit < prevKnown {
			knownsSorted = false
			lessSorted = false
		}
		if seenUnknown {
			// A known-submit record behind an unknown one: Clean's sort
			// moves it forward, so the file order is not the sorted order.
			lessSorted = false
		}
		prevKnown = rec.Submit
		if st.Jobs == 0 || rec.Submit < minKnown {
			minKnown = rec.Submit
		}
		st.Jobs++
		if int64(st.Jobs) != rec.JobID {
			st.Report.Renumbered++
		}
		if rec.Procs > st.MaxJobSize {
			st.MaxJobSize = rec.Procs
		}
		st.TotalArea += rec.Procs * rec.RunTime
		if end := rec.Submit + rec.RunTime; end > maxRawEnd {
			maxRawEnd = end
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	st.Header = sc.Header()
	st.Report.ResortedRecords = !lessSorted
	if st.Jobs > 0 && minKnown > 0 {
		st.Report.ShiftedBy = minKnown
	}
	st.FirstSubmit = minKnown - st.Report.ShiftedBy
	st.LastEnd = maxRawEnd - st.Report.ShiftedBy
	// Unknown-submit records are renumbered after every known one, in
	// file order (the sort is stable and they all sink together).
	for i, old := range unknownOldIDs {
		if int64(st.Jobs+i+1) != old {
			st.Report.Renumbered++
		}
	}
	st.Streamable = st.Jobs > 0 && knownsSorted && !st.HasFeedback
	return st, nil
}

// CleanStream yields the replayable records of a log exactly as the
// materialized pipeline (Clean, then dropping unknown-submit records)
// would produce them, one record at a time: summary lines only, repair
// and clamp applied, job IDs renumbered from 1 in order, submit times
// rebased by shift. It is only correct for logs ScanStats marked
// Streamable — construct one from the stats of the same log.
type CleanStream struct {
	sc    *Scanner
	shift int64
	next  int64
	rec   Record
	err   error
}

// NewCleanStream returns a cleaning stream over r, rebasing submit
// times by stats.Report.ShiftedBy. The caller must have verified
// stats.Streamable.
func NewCleanStream(r io.Reader, stats *StreamStats) *CleanStream {
	return &CleanStream{sc: NewScanner(r), shift: stats.Report.ShiftedBy}
}

// Scan advances to the next replayable record; false at end or error.
func (c *CleanStream) Scan() bool {
	if c.err != nil {
		return false
	}
	var rep CleanReport // per-record tallies discarded; pass 1 reported them
	for c.sc.Scan() {
		rec := c.sc.Record()
		if !cleanOne(&rec, &rep) || rec.Submit < 0 {
			continue
		}
		c.next++
		rec.JobID = c.next
		rec.Submit -= c.shift
		c.rec = rec
		return true
	}
	c.err = c.sc.Err()
	return false
}

// Record returns the record produced by the last successful Scan.
func (c *CleanStream) Record() Record { return c.rec }

// Err returns the first error encountered.
func (c *CleanStream) Err() error { return c.err }
