// Package swf implements version 2 of the Standard Workload Format
// proposed in Chapin et al., "Benchmarks and Standards for the Evaluation
// of Parallel Job Schedulers" (JSSPP/IPPS 1999), the format adopted by
// the Parallel Workloads Archive.
//
// A standard workload file is an ASCII file with one line per job. Each
// line is a list of space-separated integers; missing values are -1 and
// all other values are non-negative. Lines beginning with a semicolon
// are comments; the file starts with fixed-format header comments
// (";Label: Value") describing the workload globally.
//
// The package provides the record and header types, a reader and writer,
// a strict consistency validator ("every datum must abide to strict
// consistency rules"), a cleaner that reduces a raw log to the job-level
// summary view used for workload studies, and a converter from raw
// accounting logs with string identities into the anonymized integer
// form the standard requires.
package swf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Status is the completion code of a record (field 11).
type Status int64

// Completion codes defined by the standard. Jobs that were checkpointed
// and swapped out appear as several lines: one whole-job summary line
// with code Killed or Completed, then one line per partial execution
// with code Partial ("to be continued"), the last of which carries
// PartialLastOK or PartialLastKilled. Workload studies must use only
// summary lines; studies of the logged system itself use only partial
// lines.
const (
	StatusUnknown           Status = -1 // meaningless, e.g. for models
	StatusKilled            Status = 0  // job was killed
	StatusCompleted         Status = 1  // job completed normally
	StatusPartial           Status = 2  // partial execution, to be continued
	StatusPartialLastOK     Status = 3  // last partial execution, completed
	StatusPartialLastKilled Status = 4  // last partial execution, killed
)

// Valid reports whether s is one of the defined completion codes.
func (s Status) Valid() bool {
	return s >= StatusUnknown && s <= StatusPartialLastKilled
}

// IsSummary reports whether a record with this status is a whole-job
// summary line (the view used for workload studies).
func (s Status) IsSummary() bool {
	return s == StatusUnknown || s == StatusKilled || s == StatusCompleted
}

func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusKilled:
		return "killed"
	case StatusCompleted:
		return "completed"
	case StatusPartial:
		return "partial"
	case StatusPartialLastOK:
		return "partial-last-completed"
	case StatusPartialLastKilled:
		return "partial-last-killed"
	default:
		return fmt.Sprintf("Status(%d)", int64(s))
	}
}

// Missing marks an unknown value in any field.
const Missing int64 = -1

// Record is one line of a standard workload file: the 18 fields of the
// version 2 format, in file order. All times are integer seconds, all
// memory figures are kilobytes per processor.
type Record struct {
	// JobID is field 1, a counter starting from 1. The unique job ID is
	// the line number in the file; partial-execution lines repeat the ID
	// of their job.
	JobID int64
	// Submit is field 2, seconds since the start of the log. The
	// earliest time the log refers to is zero; lines are sorted by
	// ascending submit time.
	Submit int64
	// Wait is field 3, seconds between submittal and start. Only
	// meaningful for real logs, not models.
	Wait int64
	// RunTime is field 4, wall-clock seconds between start and end.
	RunTime int64
	// Procs is field 5, the number of allocated processors.
	Procs int64
	// AvgCPU is field 6, average CPU seconds (user+system) used per
	// allocated processor; may be smaller than RunTime.
	AvgCPU int64
	// UsedMem is field 7, average used memory per processor in KB.
	UsedMem int64
	// ReqProcs is field 8, the requested number of processors.
	ReqProcs int64
	// ReqTime is field 9, the requested runtime (or average CPU time
	// per processor; which one is stated in a header comment).
	ReqTime int64
	// ReqMem is field 10, requested memory per processor in KB.
	ReqMem int64
	// Status is field 11, the completion code.
	Status Status
	// User is field 12, a natural number from 1 to the number of users.
	User int64
	// Group is field 13, a natural number from 1 to the number of groups.
	Group int64
	// App is field 14, the executable (application) number, from 1 to
	// the number of different applications.
	App int64
	// Queue is field 15, from 1 to the number of queues; by convention
	// interactive jobs are queue 0.
	Queue int64
	// Partition is field 16, from 1 to the number of partitions.
	Partition int64
	// PrecedingJob is field 17: the number of a previous job that must
	// terminate before this one can start. Together with ThinkTime it
	// encodes user feedback (Section 2.2 of the paper).
	PrecedingJob int64
	// ThinkTime is field 18: seconds between the termination of the
	// preceding job and the submittal of this one.
	ThinkTime int64
}

// NumFields is the number of data fields per line in version 2.
const NumFields = 18

// fields returns the record as an ordered array, the single source of
// truth for serialization order.
func (r *Record) fields() [NumFields]int64 {
	return [NumFields]int64{
		r.JobID, r.Submit, r.Wait, r.RunTime, r.Procs, r.AvgCPU,
		r.UsedMem, r.ReqProcs, r.ReqTime, r.ReqMem, int64(r.Status),
		r.User, r.Group, r.App, r.Queue, r.Partition,
		r.PrecedingJob, r.ThinkTime,
	}
}

// setFields assigns all fields from an array in file order, the
// inverse of fields.
func (r *Record) setFields(v *[NumFields]int64) {
	*r = Record{
		JobID: v[0], Submit: v[1], Wait: v[2], RunTime: v[3], Procs: v[4],
		AvgCPU: v[5], UsedMem: v[6], ReqProcs: v[7], ReqTime: v[8],
		ReqMem: v[9], Status: Status(v[10]), User: v[11], Group: v[12],
		App: v[13], Queue: v[14], Partition: v[15], PrecedingJob: v[16],
		ThinkTime: v[17],
	}
}

// ParseRecord parses a single data line. It requires exactly 18 integer
// fields separated by whitespace; see parseRecord for the exact
// acceptance set. On error the returned Record is zero.
func ParseRecord(line string) (Record, error) {
	var r Record
	err := parseRecord([]byte(line), &r)
	return r, err
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseRecord decodes one data line into r without allocating. It is
// the package's only record parser, behind Scanner (and so Read,
// ScanStats and CleanStream) and ParseRecord. The acceptance set is the
// one strings.Fields plus strconv.ParseInt(f, 10, 64) define:
//
//   - fields are separated by runs of unicode.IsSpace runes, so besides
//     ASCII whitespace NEL (U+0085) and NBSP (U+00A0) separate fields;
//     bytes of invalid UTF-8 belong to the field they sit in;
//   - a field is an optional '+' or '-' followed by one or more ASCII
//     decimal digits, within int64 range; anything else (a decimal
//     point, an exponent, a bare sign) is not an integer;
//   - a line has exactly NumFields fields.
//
// A wrong field count is reported before a bad field, and the first bad
// field is the one named. r is written only on success.
func parseRecord(line []byte, r *Record) error {
	var v [NumFields]int64
	n := 0                         // fields seen
	bad, badAt, badEnd := -1, 0, 0 // first non-integer field and its span
	i := 0
	for {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i < len(line) && line[i] >= utf8.RuneSelf {
			i = span(line, i, true)
		}
		if i == len(line) {
			break
		}
		start := i
		neg := false
		if c := line[i]; c == '+' || c == '-' {
			neg = c == '-'
			i++
		}
		digits := i
		for i < len(line) && line[i] == '0' {
			i++
		}
		significant := i
		var u uint64
		for ; i < len(line); i++ {
			d := line[i] - '0'
			if d > 9 {
				break
			}
			u = u*10 + uint64(d)
		}
		// Up to 19 significant digits cannot wrap u, so the range
		// check against the int64 bounds is exact.
		limit := uint64(math.MaxInt64)
		if neg {
			limit++
		}
		ok := i > digits && i-significant <= 19 && u <= limit
		if i < len(line) && !asciiSpace[line[i]] {
			// Anything but whitespace after the digits is junk, unless
			// it is a non-ASCII space.
			if end := span(line, i, false); end > i {
				ok, i = false, end
			}
		}
		if n < NumFields {
			if !ok && bad < 0 {
				bad, badAt, badEnd = n, start, i
			}
			v[n] = int64(u)
			if neg {
				v[n] = -v[n]
			}
		}
		n++
	}
	if n != NumFields {
		return fieldCountError(n)
	}
	if bad >= 0 {
		return fieldError(bad, line[badAt:badEnd])
	}
	r.setFields(&v)
	return nil
}

// span returns the end of the run of runes from line[i] on whose
// unicode.IsSpace is space.
func span(line []byte, i int, space bool) int {
	for i < len(line) {
		c, size := rune(line[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(c) != space {
			break
		}
		i += size
	}
	return i
}

// fieldCountError reports a line with the wrong number of fields.
//
//schedlint:coldpath error path: a malformed record aborts the scan
//go:noinline
func fieldCountError(n int) error {
	return fmt.Errorf("swf: record has %d fields, want %d", n, NumFields)
}

// fieldError reports field i (0-based) as not an integer.
//
//schedlint:coldpath error path: a malformed record aborts the scan
//go:noinline
func fieldError(i int, field []byte) error {
	return fmt.Errorf("swf: field %d %q: not an integer", i+1, field)
}

// String renders the record as a standard data line.
func (r Record) String() string {
	var b strings.Builder
	r.appendTo(&b)
	return b.String()
}

func (r *Record) appendTo(b *strings.Builder) {
	for i, v := range r.fields() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
}

// End returns the completion time of the record (Submit+Wait+RunTime),
// or Missing if any component is unknown.
func (r Record) End() int64 {
	if r.Submit < 0 || r.Wait < 0 || r.RunTime < 0 {
		return Missing
	}
	return r.Submit + r.Wait + r.RunTime
}

// Start returns the start time (Submit+Wait), or Missing if unknown.
func (r Record) Start() int64 {
	if r.Submit < 0 || r.Wait < 0 {
		return Missing
	}
	return r.Submit + r.Wait
}

// Interactive reports whether the record uses the queue-0 convention for
// interactive jobs.
func (r Record) Interactive() bool { return r.Queue == 0 }
