package swf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Version is the format version implemented by this package.
const Version = 2

// TimeLayout is the human-readable timestamp layout mandated by the
// standard for StartTime/EndTime header comments:
// "Tuesday, 1 Dec 1998, 22:00:00".
const TimeLayout = "Monday, 2 Jan 2006, 15:04:05"

// ReqTimeKind states what field 9 (Requested Time) means for a given
// log; the standard requires the meaning to be declared in a header
// comment.
type ReqTimeKind int

const (
	// ReqTimeWallclock means field 9 is a wall-clock runtime estimate.
	ReqTimeWallclock ReqTimeKind = iota
	// ReqTimeAvgCPU means field 9 is average CPU time per processor.
	ReqTimeAvgCPU
)

func (k ReqTimeKind) String() string {
	if k == ReqTimeAvgCPU {
		return "average CPU time per processor"
	}
	return "wallclock runtime"
}

// Header holds the fixed-format header comments of a standard workload
// file. Zero values / empty strings mean "not stated"; MaxNodes etc. use
// 0 as "not stated" because the standard requires positive values.
type Header struct {
	Computer     string    // brand and model of the computer
	Installation string    // location of installation and machine name
	Acknowledge  string    // person(s) to acknowledge
	Information  string    // web site or email with more information
	Conversion   string    // who converted the log to the standard format
	Version      int       // format version (2 for this package)
	StartTime    time.Time // log start, human-readable in the file
	EndTime      time.Time // log end
	MaxNodes     int64     // number of nodes in the computer
	MaxRuntime   int64     // maximum runtime allowed by the system, seconds
	MaxMemory    int64     // maximum memory allowed, KB
	AllowOveruse bool      // may a job use more than it requested?
	hasOveruse   bool      // was AllowOveruse stated?
	ReqTimeKind  ReqTimeKind
	Queues       string   // verbal description of the queues
	Partitions   string   // verbal description of the partitions
	Notes        []string // free-form notes, one per Note: line

	// Extra preserves non-standard comment lines (without the leading
	// semicolon) so that converting a file is lossless even when the
	// source contains commentary. They are re-emitted as plain comments.
	Extra []string
}

// HasOveruse reports whether the AllowOveruse header was present.
func (h *Header) HasOveruse() bool { return h.hasOveruse }

// SetAllowOveruse records an explicit AllowOveruse value.
func (h *Header) SetAllowOveruse(v bool) {
	h.AllowOveruse = v
	h.hasOveruse = true
}

// foldComment records one comment line (its leading ';' stripped): a
// fixed-format header comment sets its field, any other comment is kept
// in Extra.
//
//schedlint:coldpath header comments precede the data, a few per file
func (h *Header) foldComment(body []byte) {
	line := string(body)
	if !h.parseHeaderLine(line) {
		h.Extra = append(h.Extra, strings.TrimSpace(line))
	}
}

// parseHeaderLine interprets one comment line (with the leading ';'
// stripped). It returns false if the line is not a recognized fixed-
// format header comment, in which case the caller records it as Extra.
func (h *Header) parseHeaderLine(line string) bool {
	colon := strings.Index(line, ":")
	if colon < 0 {
		return false
	}
	label := strings.TrimSpace(line[:colon])
	value := strings.TrimSpace(line[colon+1:])
	switch label {
	case "Computer":
		h.Computer = value
	case "Installation":
		h.Installation = value
	case "Acknowledge":
		h.Acknowledge = value
	case "Information":
		h.Information = value
	case "Conversion":
		h.Conversion = value
	case "Version":
		v, err := strconv.Atoi(value)
		if err != nil {
			return false
		}
		h.Version = v
	case "StartTime":
		t, err := time.Parse(TimeLayout, value)
		if err != nil {
			return false
		}
		h.StartTime = t
	case "EndTime":
		t, err := time.Parse(TimeLayout, value)
		if err != nil {
			return false
		}
		h.EndTime = t
	case "MaxNodes":
		// Partition sizes may follow in parentheses; ignore them here.
		numeric := value
		if i := strings.Index(value, "("); i >= 0 {
			numeric = strings.TrimSpace(value[:i])
		}
		v, err := strconv.ParseInt(numeric, 10, 64)
		if err != nil {
			return false
		}
		h.MaxNodes = v
	case "MaxRuntime":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return false
		}
		h.MaxRuntime = v
	case "MaxMemory":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return false
		}
		h.MaxMemory = v
	case "AllowOveruse":
		switch strings.ToLower(value) {
		case "yes", "true":
			h.SetAllowOveruse(true)
		case "no", "false":
			h.SetAllowOveruse(false)
		default:
			return false
		}
	case "ReqTime":
		// Declares the meaning of field 9, per the standard's requirement
		// that the exact meaning be determined by a header comment.
		if strings.Contains(strings.ToLower(value), "cpu") {
			h.ReqTimeKind = ReqTimeAvgCPU
		} else {
			h.ReqTimeKind = ReqTimeWallclock
		}
	case "Queues":
		h.Queues = value
	case "Partitions":
		h.Partitions = value
	case "Note":
		h.Notes = append(h.Notes, value)
	default:
		return false
	}
	return true
}

// writeTo emits the header comments in canonical order.
func (h *Header) writeTo(b *strings.Builder) {
	emit := func(label, value string) {
		if value != "" {
			fmt.Fprintf(b, ";%s: %s\n", label, value)
		}
	}
	emit("Computer", h.Computer)
	emit("Installation", h.Installation)
	emit("Acknowledge", h.Acknowledge)
	emit("Information", h.Information)
	emit("Conversion", h.Conversion)
	v := h.Version
	if v == 0 {
		v = Version
	}
	fmt.Fprintf(b, ";Version: %d\n", v)
	if !h.StartTime.IsZero() {
		emit("StartTime", h.StartTime.Format(TimeLayout))
	}
	if !h.EndTime.IsZero() {
		emit("EndTime", h.EndTime.Format(TimeLayout))
	}
	if h.MaxNodes > 0 {
		fmt.Fprintf(b, ";MaxNodes: %d\n", h.MaxNodes)
	}
	if h.MaxRuntime > 0 {
		fmt.Fprintf(b, ";MaxRuntime: %d\n", h.MaxRuntime)
	}
	if h.MaxMemory > 0 {
		fmt.Fprintf(b, ";MaxMemory: %d\n", h.MaxMemory)
	}
	if h.hasOveruse {
		if h.AllowOveruse {
			b.WriteString(";AllowOveruse: Yes\n")
		} else {
			b.WriteString(";AllowOveruse: No\n")
		}
	}
	fmt.Fprintf(b, ";ReqTime: %s\n", h.ReqTimeKind)
	emit("Queues", h.Queues)
	emit("Partitions", h.Partitions)
	for _, n := range h.Notes {
		emit("Note", n)
	}
	for _, e := range h.Extra {
		fmt.Fprintf(b, ";%s\n", e)
	}
}
