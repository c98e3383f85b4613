package swf

import (
	"bufio"
	"io"
	"os"
	"strings"
)

// Log is a parsed standard workload file: the global header plus all
// data records in file order.
type Log struct {
	Header  Header
	Records []Record
}

// Summaries returns only the whole-job summary records (status -1/0/1),
// the view the standard mandates for workload studies. Partial-execution
// lines (status 2/3/4) are excluded.
func (l *Log) Summaries() []Record {
	out := make([]Record, 0, len(l.Records))
	for _, r := range l.Records {
		if r.Status.IsSummary() {
			out = append(out, r)
		}
	}
	return out
}

// Partials returns only partial-execution records (status 2/3/4), the
// view used for studying the behaviour of the logged system itself.
func (l *Log) Partials() []Record {
	var out []Record
	for _, r := range l.Records {
		if !r.Status.IsSummary() {
			out = append(out, r)
		}
	}
	return out
}

// MaxJobID returns the largest job number in the log (0 if empty).
func (l *Log) MaxJobID() int64 {
	var maxID int64
	for _, r := range l.Records {
		if r.JobID > maxID {
			maxID = r.JobID
		}
	}
	return maxID
}

// Read parses a standard workload file: it collects what a Scanner
// yields. Header comments at the top of the file populate Header;
// unknown comments are preserved in Header.Extra. Data lines must
// contain exactly 18 integer fields. Read performs only syntactic
// checks; use Validate for the standard's consistency rules.
func Read(r io.Reader) (*Log, error) {
	log := &Log{}
	sc := NewScanner(r)
	for sc.Scan() {
		log.Records = append(log.Records, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	log.Header = sc.Header()
	return log, nil
}

// ReadFile parses the standard workload file at path.
func ReadFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write serializes the log: header comments first, then one line per
// record in slice order.
func Write(w io.Writer, log *Log) error {
	var b strings.Builder
	log.Header.writeTo(&b)
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var line strings.Builder
	for i := range log.Records {
		line.Reset()
		log.Records[i].appendTo(&line)
		line.WriteByte('\n')
		if _, err := bw.WriteString(line.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the log to path, creating or truncating it.
func WriteFile(path string, log *Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, log); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// String renders the whole log as a standard workload file.
func (l *Log) String() string {
	var b strings.Builder
	l.Header.writeTo(&b)
	for i := range l.Records {
		l.Records[i].appendTo(&b)
		b.WriteByte('\n')
	}
	return b.String()
}
