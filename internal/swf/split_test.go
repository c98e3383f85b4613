package swf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// splitEquiv requires the split statistics pass over raw, cut at cuts,
// to give exactly what ScanStats gives: the same stats, or the same
// error text.
func splitEquiv(t testing.TB, raw []byte, cuts []int64) {
	t.Helper()
	want, wantErr := ScanStats(bytes.NewReader(raw))
	got, err := scanStatsSplit(bytes.NewReader(raw), cuts)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("cuts %v: split error %v, ScanStats error %v", cuts, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cuts %v: split stats diverge:\nsplit %+v\nwhole %+v", cuts, got, want)
	}
}

// swfLines renders n data records with IDs from first, submits every
// 10 s from submit0, one record per line ending in eol.
func swfLines(first, submit0 int64, n int, eol string) string {
	var b strings.Builder
	for i := int64(0); i < int64(n); i++ {
		fmt.Fprintf(&b, "%d %d -1 %d %d -1 -1 4 900 -1 1 1 1 1 1 1 -1 -1%s",
			first+i, submit0+10*i, 60+i%7, 1+i%5, eol)
	}
	return b.String()
}

// everyCut lists each single cut and each pair of cuts over raw at a
// line start or one byte past it, so a test covers every way two or
// three ranges can fall (a cut anywhere inside a line moves to the
// same line start as one just past the line's first byte).
func everyCut(raw []byte) [][]int64 {
	var at []int64
	for i := range raw {
		if i == 0 || raw[i-1] == '\n' {
			at = append(at, int64(i), int64(i+1))
		}
	}
	at = append(at, int64(len(raw)))
	var out [][]int64
	for i, a := range at {
		out = append(out, []int64{a})
		for _, b := range at[i:] {
			out = append(out, []int64{a, b})
		}
	}
	return out
}

// TestSplitStatsMerges checks that logs without a comment line in a
// later range merge (no fallback) and match ScanStats at every cut:
// renumbered and sparse IDs, records dropped mid-range, an epoch shift,
// CRLF line ends, a missing final newline, blank lines, and sortedness
// broken only across a boundary.
func TestSplitStatsMerges(t *testing.T) {
	// noRuntime is a record the cleaner drops (no runtime), so the IDs
	// after it run one ahead of their index.
	noRuntime := func(id, submit int64) string {
		return fmt.Sprintf("%d %d -1 -1 2 -1 -1 4 900 -1 1 1 1 1 1 1 -1 -1\n", id, submit)
	}
	logs := map[string]string{
		"renumbered":         ";MaxNodes: 8\n" + swfLines(101, 915000000, 12, "\n"),
		"crlf":               ";MaxNodes: 8\r\n" + swfLines(1, 0, 12, "\r\n"),
		"no final newline":   strings.TrimSuffix(swfLines(1, 5, 12, "\n"), "\n"),
		"blank lines":        swfLines(1, 0, 4, "\n\n") + "  \n" + swfLines(5, 40, 4, "\n"),
		"unsorted at a seam": swfLines(1, 500, 6, "\n") + swfLines(7, 0, 6, "\n"),
		// Unknown-submit records sink behind every replayable one, so
		// their IDs concatenate across ranges in file order.
		"unknown submits": swfLines(1, 0, 6, "\n") + "100 -1 -1 10 2 -1 -1 4 900 -1 1 1 1 1 1 1 -1 -1\n" +
			swfLines(7, 60, 6, "\n") + "7 -1 -1 10 2 -1 -1 4 900 -1 1 1 1 1 1 1 -1 -1\n",
		// The renumber delta changes within a range: one run per break.
		"one drop":   swfLines(1, 0, 6, "\n") + noRuntime(7, 60) + swfLines(8, 70, 6, "\n"),
		"many drops": swfLines(1, 0, 3, "\n") + noRuntime(4, 30) + swfLines(5, 40, 3, "\n") + noRuntime(8, 70) + noRuntime(9, 80) + swfLines(10, 90, 4, "\n"),
		// IDs that leave the running index and come back, so two runs
		// of one range share the delta that keeps their IDs.
		"ids come back": swfLines(1, 0, 4, "\n") + swfLines(40, 40, 3, "\n") + swfLines(8, 70, 5, "\n"),
		"ids go back":   swfLines(1, 0, 6, "\n") + swfLines(2, 60, 6, "\n"),
	}
	for name, raw := range logs {
		t.Run(name, func(t *testing.T) {
			data := []byte(raw)
			for _, cuts := range everyCut(data) {
				splitEquiv(t, data, cuts)
			}
			// One cut in the middle of the data must take the merge path.
			mid := int64(len(data)) / 2
			if splitStats(bytes.NewReader(data), []int64{mid}) == nil {
				t.Fatalf("cut at %d fell back to ScanStats", mid)
			}
		})
	}
}

// TestSplitStatsFallsBack checks the logs whose later range cannot
// merge: a comment line there must fold into the header in file order,
// so the split scan falls back to ScanStats and still matches it at
// every cut.
func TestSplitStatsFallsBack(t *testing.T) {
	body := swfLines(1, 0, 6, "\n")
	logs := map[string]string{
		"comment in a later range": body + ";Note: appended later\n" + swfLines(7, 60, 6, "\n"),
		"comment after the data":   body + swfLines(7, 60, 6, "\n") + ";Note: trailer\n",
	}
	for name, raw := range logs {
		t.Run(name, func(t *testing.T) {
			data := []byte(raw)
			for _, cuts := range everyCut(data) {
				splitEquiv(t, data, cuts)
			}
			// Cutting at the first record leaves the whole anomaly in the
			// later range.
			first := int64(strings.IndexByte(raw, '\n') + 1)
			if st := splitStats(bytes.NewReader(data), []int64{first}); st != nil {
				t.Fatalf("split scan merged an unmergeable later range: %+v", st)
			}
		})
	}
}

// TestSplitStatsLongLineAtCut puts a line over the scanner's 1 MB cap
// across a cut: the split scan must report ScanStats's error, naming
// the same line, whether the cut finds no line start near it, moves
// past the long line, or lands just before or after it.
func TestSplitStatsLongLineAtCut(t *testing.T) {
	long := swfLines(1, 0, 3, "\n") + strings.Repeat("7", 2*maxLine) + "\n" + swfLines(4, 30, 3, "\n")
	data := []byte(long)
	start := int64(strings.Index(long, "777"))
	if st := splitStats(bytes.NewReader(data), []int64{start + 1}); st != nil {
		t.Fatal("split scan merged a log with an overlong line")
	}
	for _, cut := range []int64{start - 5, start, start + 1, start + maxLine, start + 2*maxLine - 5, start + 2*maxLine + 1} {
		splitEquiv(t, data, []int64{cut})
	}
}

func TestScanStatsFileMatchesScanStats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	raw := ";Computer: split\n;MaxNodes: 8\n" + swfLines(1, 3600, 40000, "\n")
	if len(raw) < splitMinBytes {
		t.Fatalf("log is %d bytes, want at least %d to split", len(raw), splitMinBytes)
	}
	path := filepath.Join(t.TempDir(), "big.swf")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ScanStatsFile(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScanStats(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanStatsFile diverges:\nfile %+v\nscan %+v", got, want)
	}
}

// FuzzScanStatsSplit checks the split statistics pass against
// ScanStats on arbitrary input cut at arbitrary points.
func FuzzScanStatsSplit(f *testing.F) {
	seeds := []string{
		swfLines(1, 0, 8, "\n"),
		";MaxNodes: 8\r\n" + swfLines(3, 915000000, 8, "\r\n"),
		swfLines(1, 0, 4, "\n") + ";Note: late\n" + swfLines(5, 40, 4, "\n"),
		swfLines(1, 0, 4, "\n") + "5 40 -1 -1 2 -1 -1 4 900 -1 1 1 1 1 1 1 -1 -1\n" + swfLines(6, 50, 4, "\n"),
		swfLines(1, 0, 4, "\n") + "not a record\n" + swfLines(6, 50, 4, "\n"),
		strings.TrimSuffix(swfLines(1, 0, 5, "\n"), "\n"),
	}
	for _, log := range adversarialLogs() {
		seeds = append(seeds, string(renderLog(f, log)))
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint16(len(s)/3), uint16(2*len(s)/3))
	}
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint16) {
		splitEquiv(t, raw, []int64{int64(a), int64(b)})
	})
}
