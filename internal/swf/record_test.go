package swf

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseRecordBasic(t *testing.T) {
	line := "1 0 10 3600 64 3500 2048 64 7200 4096 1 3 2 5 1 1 -1 -1"
	r, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{
		JobID: 1, Submit: 0, Wait: 10, RunTime: 3600, Procs: 64,
		AvgCPU: 3500, UsedMem: 2048, ReqProcs: 64, ReqTime: 7200,
		ReqMem: 4096, Status: StatusCompleted, User: 3, Group: 2,
		App: 5, Queue: 1, Partition: 1, PrecedingJob: -1, ThinkTime: -1,
	}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}
}

func TestParseRecordFieldCount(t *testing.T) {
	if _, err := ParseRecord("1 2 3"); err == nil {
		t.Fatal("expected error for short line")
	}
	if _, err := ParseRecord(strings.Repeat("1 ", 19)); err == nil {
		t.Fatal("expected error for long line")
	}
}

func TestParseRecordNonInteger(t *testing.T) {
	line := "1 0 10 3600 64 3500 2048 64 7200 4096 done 3 2 5 1 1 -1 -1"
	if _, err := ParseRecord(line); err == nil {
		t.Fatal("expected error for non-integer field")
	}
}

func TestParseRecordTabsAndSpaces(t *testing.T) {
	line := "1\t0  10\t3600 64 3500 2048 64 7200 4096 1 3 2 5 1 1 -1 -1"
	if _, err := ParseRecord(line); err != nil {
		t.Fatalf("mixed whitespace should parse: %v", err)
	}
}

// genRecord builds a random but syntactically plausible record.
func genRecord(rng *rand.Rand, id int64) Record {
	maybe := func(v int64) int64 {
		if rng.Intn(5) == 0 {
			return Missing
		}
		return v
	}
	return Record{
		JobID:        id,
		Submit:       rng.Int63n(1 << 30),
		Wait:         maybe(rng.Int63n(100000)),
		RunTime:      maybe(rng.Int63n(1 << 20)),
		Procs:        maybe(1 + rng.Int63n(512)),
		AvgCPU:       maybe(rng.Int63n(1 << 20)),
		UsedMem:      maybe(rng.Int63n(1 << 22)),
		ReqProcs:     maybe(1 + rng.Int63n(512)),
		ReqTime:      maybe(rng.Int63n(1 << 20)),
		ReqMem:       maybe(rng.Int63n(1 << 22)),
		Status:       Status(rng.Int63n(2)),
		User:         1 + rng.Int63n(100),
		Group:        1 + rng.Int63n(10),
		App:          1 + rng.Int63n(50),
		Queue:        rng.Int63n(5),
		Partition:    1 + rng.Int63n(4),
		PrecedingJob: Missing,
		ThinkTime:    Missing,
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(_ uint8) bool {
		rec := genRecord(rng, 1+rng.Int63n(1e6))
		parsed, err := ParseRecord(rec.String())
		if err != nil {
			return false
		}
		return parsed == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusPredicates(t *testing.T) {
	for _, s := range []Status{StatusUnknown, StatusKilled, StatusCompleted} {
		if !s.IsSummary() {
			t.Errorf("%v should be a summary status", s)
		}
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	for _, s := range []Status{StatusPartial, StatusPartialLastOK, StatusPartialLastKilled} {
		if s.IsSummary() {
			t.Errorf("%v should not be a summary status", s)
		}
	}
	if Status(9).Valid() {
		t.Error("status 9 should be invalid")
	}
	if Status(-2).Valid() {
		t.Error("status -2 should be invalid")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusUnknown: "unknown", StatusKilled: "killed",
		StatusCompleted: "completed", StatusPartial: "partial",
		Status(42): "Status(42)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int64(s), got, want)
		}
	}
}

func TestRecordTimes(t *testing.T) {
	r := Record{Submit: 100, Wait: 20, RunTime: 300}
	if r.Start() != 120 {
		t.Errorf("Start = %d, want 120", r.Start())
	}
	if r.End() != 420 {
		t.Errorf("End = %d, want 420", r.End())
	}
	r.Wait = Missing
	if r.Start() != Missing || r.End() != Missing {
		t.Error("unknown wait should make start/end missing")
	}
}

func TestInteractiveConvention(t *testing.T) {
	if !(Record{Queue: 0}).Interactive() {
		t.Error("queue 0 should be interactive")
	}
	if (Record{Queue: 3}).Interactive() {
		t.Error("queue 3 should not be interactive")
	}
}

func TestFieldOrderMatchesStandard(t *testing.T) {
	// The serialization order is load-bearing: readers of the archive
	// depend on it. Lock it down field by field.
	r := Record{
		JobID: 1, Submit: 2, Wait: 3, RunTime: 4, Procs: 5, AvgCPU: 6,
		UsedMem: 7, ReqProcs: 8, ReqTime: 9, ReqMem: 10, Status: 1,
		User: 12, Group: 13, App: 14, Queue: 15, Partition: 16,
		PrecedingJob: 17, ThinkTime: 18,
	}
	want := "1 2 3 4 5 6 7 8 9 10 1 12 13 14 15 16 17 18"
	if got := r.String(); got != want {
		t.Fatalf("serialized %q, want %q", got, want)
	}
}

func TestSetFieldCoversAllFields(t *testing.T) {
	// Every field index must round-trip through setFields/fields.
	var v [NumFields]int64
	for i := range v {
		v[i] = int64(i + 100)
	}
	var r Record
	r.setFields(&v)
	got := r.fields()
	for i, x := range got {
		if x != int64(i+100) {
			t.Fatalf("field %d = %d, want %d", i, x, i+100)
		}
	}
	if reflect.DeepEqual(r, Record{}) {
		t.Fatal("record unchanged")
	}
}

// parseRecordOracle is the string-based parser the readers used before
// the byte-level one: strings.Fields, then strconv.ParseInt per field.
// It defines the acceptance set and the error texts parseRecord keeps.
func parseRecordOracle(line string) (Record, error) {
	var r Record
	fields := strings.Fields(line)
	if len(fields) != NumFields {
		return r, fmt.Errorf("swf: record has %d fields, want %d", len(fields), NumFields)
	}
	var v [NumFields]int64
	for i, f := range fields {
		x, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return r, fmt.Errorf("swf: field %d %q: not an integer", i+1, f)
		}
		v[i] = x
	}
	r.setFields(&v)
	return r, nil
}

// FuzzParseRecord pins the byte-level parser to the string-based
// oracle: the same Record on success, the same error text on failure.
// The seeds are the edge cases of the acceptance set: separators,
// signs, non-integers, the int64 bounds and the field count.
func FuzzParseRecord(f *testing.F) {
	const rest = " 0 10 3600 64 3500 2048 64 7200 4096 1 3 2 5 1 1 -1 -1"
	for _, line := range []string{
		"1" + rest,
		"1" + rest + "\r",
		"1" + rest + "\r\n",
		"1\t0\v10\f3600 64 3500 2048 64 7200 4096 1 3 2 5 1 1 -1 -1",
		"1\u00a00\u0085" + rest[3:],
		"1\u20030" + rest[2:], // EM SPACE
		"1\u200b0" + rest[2:], // ZERO WIDTH SPACE is not a separator
		"\xff" + rest,
		"1\xc2" + rest,
		"+5" + rest,
		"-0" + rest,
		"-" + rest,
		"+" + rest,
		"+-5" + rest,
		"1.5" + rest,
		"1e3" + rest,
		"0x10" + rest,
		"1_000" + rest,
		"00000000000000000000000000000007" + rest,
		"9223372036854775807" + rest,
		"-9223372036854775808" + rest,
		"-9223372036854775807" + rest,
		"9223372036854775808" + rest,
		"9223372036854775809" + rest,
		"-9223372036854775809" + rest,
		"0009223372036854775807" + rest,
		"-0009223372036854775808" + rest,
		"0009223372036854775808" + rest,
		"18446744073709551616" + rest,
		"99999999999999999999999" + rest,
		"1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17",
		"1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19",
		"x 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17",
		"",
		"   \t ",
		";1" + rest,
		"1 0 10 3600 64 3500 2048 64 7200 4096 done 3 2 5 1 1 -1 -1",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		want, wantErr := parseRecordOracle(line)
		got, err := ParseRecord(line)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("ParseRecord(%q) error %v, oracle %v", line, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("ParseRecord(%q) error %q, oracle %q", line, err, wantErr)
		case err == nil && got != want:
			t.Fatalf("ParseRecord(%q) = %+v, oracle %+v", line, got, want)
		}
	})
}
