package trace

// Streaming trace replay: a StreamSource answers the same questions a
// materialized Source does (machine size, job count, offered load,
// clean report) from one O(1)-memory statistics pass, then hands out
// core.JobStream readers that pull cleaned jobs off the file on demand.
// Combined with sim.RunStream this replays million-job archive logs
// without ever holding the workload in memory.
//
// The job sequence a reader yields is byte-identical to
// Source.Workload's Jobs for the same file (the property tests in
// stream_test.go pin this): both funnel every record through
// swf.cleanOne and core.JobFromRecord, and streamability guarantees the
// file order already is the cleaned order.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parsched/internal/core"
	"parsched/internal/swf"
)

// StreamSource is the pull-based view of one SWF log on disk. It is
// immutable after OpenStream and safe for concurrent use; each Stream
// call opens its own reader.
type StreamSource struct {
	// Name identifies the trace in reports (header Computer field, or
	// the file's base name when the header does not state one).
	Name string
	// Path is the file the source reads from.
	Path string
	// Stats is the outcome of the statistics pass.
	Stats *swf.StreamStats

	maxNodes int
}

// OpenStream runs the statistics pass over the log at path. It never
// materializes the log; check Streamable before calling Stream — a
// non-streamable log (records out of order, or feedback references
// that need the full ID map to remap) must fall back to Open.
func OpenStream(path string) (*StreamSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	stats, err := swf.ScanStatsFile(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	name := stats.Header.Computer
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	src := &StreamSource{Name: name, Path: path, Stats: stats}
	// Same machine-size rule as FromLog: the header's claim, widened to
	// the widest replayable job so every job fits.
	src.maxNodes = int(stats.Header.MaxNodes)
	if int(stats.MaxJobSize) > src.maxNodes {
		src.maxNodes = int(stats.MaxJobSize)
	}
	return src, nil
}

// Streamable reports whether Stream reproduces the materialized
// pipeline for this log.
func (s *StreamSource) Streamable() bool { return s.Stats.Streamable }

// MaxNodes is the machine size the trace targets.
func (s *StreamSource) MaxNodes() int { return s.maxNodes }

// JobCount is the number of replayable jobs in the log.
func (s *StreamSource) JobCount() int { return s.Stats.Jobs }

// OfferedLoad is the offered load of the trace as recorded, computed
// the same way core.Workload.OfferedLoad computes it.
func (s *StreamSource) OfferedLoad() float64 {
	span := s.Stats.LastEnd - s.Stats.FirstSubmit
	if span <= 0 || s.maxNodes == 0 {
		return 0
	}
	return float64(s.Stats.TotalArea) / (float64(span) * float64(s.maxNodes))
}

// Stream opens a reader over the first limit replayable jobs (0 = all).
// The reader decodes ahead on a goroutine of its own; the caller owns
// the reader and must Close it, which stops that goroutine. Only valid
// when Streamable reports true.
func (s *StreamSource) Stream(limit int) (*JobReader, error) {
	if !s.Stats.Streamable {
		return nil, fmt.Errorf("trace %s: log is not streamable; use trace.Open", s.Name)
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	full := make(chan jobBatch, batchesAhead-1)
	stop := make(chan struct{})
	d := &decoder{cs: swf.NewCleanStream(f, s.Stats), limit: limit}
	go d.run(full, stop)
	return &JobReader{full: full, stop: stop, f: f}, nil
}

// Read-ahead bounds: the decoder runs at most batchesAhead batches of
// batchJobs jobs ahead of the batch Next is handing out (the channel
// holds all but the one it is filling), so at most 5×batchJobs jobs
// are in memory whatever the trace length. Batching puts one channel
// receive on every batchJobs jobs.
const (
	batchJobs    = 1024
	batchesAhead = 4
)

// jobBatch is a run of consecutive jobs in file order. A batch ends
// the stream when err is set (after jobs) or when it is the last one
// the decoder sends before closing its channel.
type jobBatch struct {
	jobs []*core.Job
	err  error
}

// JobReader pulls cleaned jobs off an open trace file. A decoder
// goroutine scans, cleans and converts the file into batches ahead of
// the simulator, so Next is a slice index plus one channel receive per
// batch. It implements core.JobStream and io.Closer; like any
// core.JobStream it is used from one goroutine.
type JobReader struct {
	jobs   []*core.Job // the batch Next is handing out
	pos    int         // next job in jobs
	err    error       // the error that ended the stream, once received
	full   <-chan jobBatch
	stop   chan struct{}
	f      *os.File
	closed bool
}

// Next implements core.JobStream: jobs with IDs 1, 2, ... in
// non-decreasing submit order, (nil, nil) at end of trace. A read
// error, or a job that breaks submit order, arrives after exactly the
// jobs that precede it in the file and then on every later call.
func (r *JobReader) Next() (*core.Job, error) {
	if r.pos < len(r.jobs) {
		j := r.jobs[r.pos]
		r.pos++
		return j, nil
	}
	return r.nextBatch()
}

// nextBatch takes the decoder's next batch in place of the spent one.
func (r *JobReader) nextBatch() (*core.Job, error) {
	for r.err == nil {
		b, ok := <-r.full //schedlint:allow locks the per-batch hand-off from the decoder, once per batchJobs jobs
		if !ok {
			return nil, nil
		}
		r.jobs, r.pos, r.err = b.jobs, 0, b.err
		if len(b.jobs) > 0 {
			r.pos = 1
			return b.jobs[0], nil
		}
	}
	return nil, r.err
}

// Close stops the decoder, waits for it to exit and releases the
// file. Calls after the first return nil.
func (r *JobReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	close(r.stop)
	for range r.full {
		// Discard read-ahead until the decoder closes full on its way out.
	}
	return r.f.Close()
}

// decoder is the state of the goroutine that fills batches; it is
// owned by that goroutine from Stream until it exits.
type decoder struct {
	cs    *swf.CleanStream
	limit int
	n     int
	prev  int64
}

// run fills fresh batches and passes them on through full in file
// order, until the stream ends or stop is closed. Closing full is the
// last thing it does.
func (d *decoder) run(full chan<- jobBatch, stop <-chan struct{}) {
	defer close(full)
	for {
		select {
		case <-stop:
			return
		default:
		}
		b := jobBatch{jobs: make([]*core.Job, 0, batchJobs)}
		end := d.fill(&b)
		select {
		case full <- b: //schedlint:shared the batch is never touched again here; the reader owns it once received
		case <-stop:
			return
		}
		if end {
			return
		}
	}
}

// fill appends the next jobs to the empty batch b, up to its capacity,
// and reports whether the stream ended: at end of file, at the limit,
// or on an error, which it leaves in b.err after the jobs that precede
// it. It never scans past the limit.
//
//schedlint:hotpath per-job decode: scan, clean, order check, core.Job
func (d *decoder) fill(b *jobBatch) bool {
	for len(b.jobs) < cap(b.jobs) {
		if d.limit > 0 && d.n >= d.limit {
			return true
		}
		if !d.cs.Scan() {
			b.err = d.cs.Err()
			return true
		}
		rec := d.cs.Record()
		if rec.Submit < d.prev {
			// The file changed (or was mis-scanned) between the statistics
			// pass and the replay; refuse to feed an invalid arrival order
			// into the simulator.
			b.err = orderError(rec.JobID, rec.Submit, d.prev)
			return true
		}
		d.prev = rec.Submit
		d.n++
		b.jobs = append(b.jobs, core.JobFromRecord(rec))
	}
	return d.limit > 0 && d.n >= d.limit
}

// orderError reports a job submitted before its predecessor.
//
//schedlint:coldpath error path: a failed read aborts the replay
//go:noinline
func orderError(id, submit, prev int64) error {
	return fmt.Errorf("trace: job %d: submit %d before predecessor's %d; file not streamable", id, submit, prev)
}

// CleanSummary renders what the statistics pass found, the streaming
// analogue of Source.CleanSummary.
func (s *StreamSource) CleanSummary() string {
	r := s.Stats.Report
	return fmt.Sprintf("%d records in, %d replayable: dropped %d partial-execution, %d no-runtime, %d no-procs, %d no-submit; clamped %d CPU fields; renumbered %d job IDs; shifted submittals by %ds; streamable=%v",
		r.Input, s.Stats.Jobs, r.DroppedPartials, r.DroppedNoRuntime,
		r.DroppedNoProcs, s.Stats.DroppedNoSubmit, r.ClampedCPU, r.Renumbered,
		r.ShiftedBy, s.Stats.Streamable)
}
