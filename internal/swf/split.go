package swf

// The parallel statistics pass: ScanStatsFile cuts a large log into
// line-aligned byte ranges, scans each on its own goroutine with the
// accumulator ScanStats uses, and merges the parts in file order. The
// result, error text included, is always the one ScanStats gives: a
// range that cannot merge exactly, or any scan error, sends the whole
// file back through ScanStats.

import (
	"bytes"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// splitMinBytes is the smallest file ScanStatsFile splits.
const splitMinBytes = 1 << 20

// ScanStatsFile is ScanStats over a log file positioned at its start,
// as os.Open leaves it. A regular file of at least 1 MiB is cut at line
// boundaries into GOMAXPROCS ranges scanned in parallel; pipes, devices
// and smaller files are scanned sequentially.
func ScanStatsFile(f *os.File) (*StreamStats, error) {
	n := runtime.GOMAXPROCS(0)
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() < splitMinBytes || n < 2 {
		return ScanStats(f)
	}
	cuts := make([]int64, n-1)
	for i := range cuts {
		cuts[i] = fi.Size() * int64(i+1) / int64(n)
	}
	return scanStatsSplit(f, cuts)
}

// scanStatsSplit runs the statistics pass over r from offset 0 to EOF,
// split at cuts (see splitStats) when the parts merge exactly and
// sequentially otherwise.
func scanStatsSplit(r io.ReaderAt, cuts []int64) (*StreamStats, error) {
	if st := splitStats(r, cuts); st != nil {
		return st, nil
	}
	return ScanStats(io.NewSectionReader(r, 0, math.MaxInt64))
}

// splitStats scans r as one range per cut plus one, in parallel, and
// merges the parts. Each nominal cut moves forward to the next line
// start; a cut that lands at or before the previous boundary, or finds
// no line start before EOF, is dropped. It returns nil when a line
// near a cut is too long to scan, when any range fails, and when a
// later range cannot merge exactly.
func splitStats(r io.ReaderAt, cuts []int64) *StreamStats {
	starts := []int64{0}
	for _, c := range cuts {
		s, ok := lineStart(r, c)
		if !ok {
			return nil
		}
		if s > starts[len(starts)-1] {
			starts = append(starts, s)
		}
	}
	parts := make([]statsPart, len(starts))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, s := range starts {
		end := int64(math.MaxInt64)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		wg.Add(1)
		//schedlint:shared ReadAt is safe for parallel calls, and each range writes only its own part
		go func() {
			defer wg.Done()
			// Accumulate on this goroutine's stack: parts sit side by
			// side, and per-record writes to them would share cache lines.
			p := statsPart{later: i > 0}
			_ = p.scan(io.NewSectionReader(r, s, end-s), &stop) // a failure sets stop, and the caller falls back
			parts[i] = p
		}()
	}
	wg.Wait()
	if stop.Load() {
		return nil
	}
	return mergeStats(parts)
}

// lineStart returns the first line start at or after off: off itself
// when it is 0 or follows a newline, otherwise the byte after the next
// newline, or -1 when no newline follows off. ok is false when no
// newline follows within maxLine bytes, a line too long to scan.
func lineStart(r io.ReaderAt, off int64) (start int64, ok bool) {
	if off <= 0 {
		return 0, true
	}
	buf := make([]byte, 64*1024)
	for pos := off - 1; pos < off+maxLine; {
		n, err := r.ReadAt(buf, pos)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return pos + int64(i) + 1, true
		}
		if err != nil {
			return -1, true
		}
		pos += int64(n)
	}
	return 0, false
}
