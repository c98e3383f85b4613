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
	"sync/atomic"
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
	// comments counts the comment lines folded into header.
	comments int
}

// maxLine caps the length of one line; a longer line is a read error.
const maxLine = 1024 * 1024

// NewScanner returns a scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
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
			s.comments++
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
// renumbering count; archive-grade logs have none). It is the one-range
// case of ScanStatsFile: a single statsPart over the whole input.
func ScanStats(r io.Reader) (*StreamStats, error) {
	var p statsPart
	if err := p.scan(r, new(atomic.Bool)); err != nil {
		return nil, err
	}
	return mergeStats([]statsPart{p}), nil
}

// statsPart accumulates the statistics pass over one line-aligned byte
// range of a log. It merges exactly with the parts of the ranges before
// it, unless a later range holds a comment line, which sends
// ScanStatsFile back to ScanStats.
type statsPart struct {
	// later marks a range that does not start the file.
	later bool
	// rep holds the per-record tallies (Input, Output, the drop
	// counters and ClampedCPU).
	rep         CleanReport
	noSubmit    int
	hasFeedback bool
	header      Header
	// jobs counts the replayable records; the extrema and sums below
	// are over them.
	jobs       int
	maxJobSize int64
	totalArea  int64
	minKnown   int64
	maxRawEnd  int64
	// firstKnown and lastKnown are the first and last replayable submit
	// times, which decide sortedness across a range boundary.
	firstKnown   int64
	lastKnown    int64
	knownsSorted bool // replayable records in submit order
	lessSorted   bool // the full kept sequence in Clean's sort order
	seenUnknown  bool
	// unknownOldIDs holds the file IDs of unknown-submit records, which
	// Clean renumbers after every replayable one.
	unknownOldIDs []int64
	// Renumbering. Replayable record i of the range (from 1) keeps its
	// ID when delta = JobID-i equals offset, the replayable records in
	// earlier ranges. The first range's offset is 0, so it counts those
	// records in kept, O(1) state. A later range learns its offset only
	// at the merge, so it keeps the run-length sequence of its deltas:
	// one run per break in its ID sequence, which for a log numbered
	// consecutively is one per dropped record.
	kept int
	runs []deltaRun
}

// deltaRun is count consecutive replayable records with one delta.
type deltaRun struct {
	delta int64
	count int
}

// scan runs the statistics pass over r into p and returns the scan
// error, if any. It sets stop when it fails or when p is a later range
// holding a comment line, and gives up early, leaving p incomplete,
// once stop is set.
func (p *statsPart) scan(r io.Reader, stop *atomic.Bool) error {
	sc := NewScanner(r)
	p.knownsSorted, p.lessSorted = true, true
	p.lastKnown = -1 << 62
	for sc.Scan() {
		if stop.Load() {
			return nil
		}
		if p.later && sc.comments > 0 {
			stop.Store(true)
			return nil
		}
		rec := sc.Record()
		p.rep.Input++
		if !cleanOne(&rec, &p.rep) {
			continue
		}
		p.rep.Output++
		if rec.PrecedingJob > 0 {
			p.hasFeedback = true
		}
		if rec.Submit < 0 {
			p.noSubmit++
			p.unknownOldIDs = append(p.unknownOldIDs, rec.JobID)
			p.seenUnknown = true
			continue
		}
		if rec.Submit < p.lastKnown {
			p.knownsSorted = false
			p.lessSorted = false
		}
		if p.seenUnknown {
			// A known-submit record behind an unknown one: Clean's sort
			// moves it forward, so the file order is not the sorted order.
			p.lessSorted = false
		}
		p.lastKnown = rec.Submit
		if p.jobs == 0 {
			p.firstKnown, p.minKnown = rec.Submit, rec.Submit
		} else if rec.Submit < p.minKnown {
			p.minKnown = rec.Submit
		}
		p.jobs++
		// Wrapping arithmetic keeps delta == offset exactly when
		// JobID == offset+jobs, whatever the ID.
		delta := rec.JobID - int64(p.jobs)
		if !p.later {
			if delta == 0 {
				p.kept++
			}
		} else if n := len(p.runs); n > 0 && p.runs[n-1].delta == delta {
			p.runs[n-1].count++
		} else {
			p.runs = append(p.runs, deltaRun{delta, 1})
		}
		if rec.Procs > p.maxJobSize {
			p.maxJobSize = rec.Procs
		}
		p.totalArea += rec.Procs * rec.RunTime
		if end := rec.Submit + rec.RunTime; end > p.maxRawEnd {
			p.maxRawEnd = end
		}
	}
	if err := sc.Err(); err != nil {
		stop.Store(true)
		return err
	}
	if p.later && sc.comments > 0 {
		// Header comments fold in file order, so a later range's cannot
		// merge from its own Header.
		stop.Store(true)
		return nil
	}
	p.header = sc.Header()
	return nil
}

// keptIDs counts the range's replayable records that keep their IDs
// when offset replayable records precede the range.
func (p *statsPart) keptIDs(offset int64) int {
	if !p.later {
		return p.kept // offset is 0
	}
	n := 0
	for _, r := range p.runs {
		if r.delta == offset {
			n += r.count
		}
	}
	return n
}

// mergeStats combines the parts of consecutive ranges, in file order,
// into the stats a single pass over their concatenation produces.
func mergeStats(parts []statsPart) *StreamStats {
	st := &StreamStats{Header: parts[0].header}
	knownsSorted, lessSorted := true, true
	seenUnknown := false
	prevKnown := int64(-1 << 62)
	var minKnown, maxRawEnd int64
	var unknownOldIDs []int64
	for i := range parts {
		p := &parts[i]
		st.Report.Input += p.rep.Input
		st.Report.Output += p.rep.Output
		st.Report.DroppedPartials += p.rep.DroppedPartials
		st.Report.DroppedNoRuntime += p.rep.DroppedNoRuntime
		st.Report.DroppedNoProcs += p.rep.DroppedNoProcs
		st.Report.ClampedCPU += p.rep.ClampedCPU
		st.DroppedNoSubmit += p.noSubmit
		st.HasFeedback = st.HasFeedback || p.hasFeedback
		knownsSorted = knownsSorted && p.knownsSorted
		lessSorted = lessSorted && p.lessSorted
		if p.jobs > 0 {
			if p.firstKnown < prevKnown {
				knownsSorted, lessSorted = false, false
			}
			if seenUnknown {
				lessSorted = false
			}
			prevKnown = p.lastKnown
			if st.Jobs == 0 {
				minKnown = p.minKnown
			} else {
				minKnown = min(minKnown, p.minKnown)
			}
			st.Report.Renumbered += p.jobs - p.keptIDs(int64(st.Jobs))
			maxRawEnd = max(maxRawEnd, p.maxRawEnd)
			st.MaxJobSize = max(st.MaxJobSize, p.maxJobSize)
			st.TotalArea += p.totalArea
			st.Jobs += p.jobs
		}
		seenUnknown = seenUnknown || p.seenUnknown
		unknownOldIDs = append(unknownOldIDs, p.unknownOldIDs...)
	}
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
	return st
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
