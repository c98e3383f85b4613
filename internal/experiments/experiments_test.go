package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

// runQuick executes one experiment in quick mode.
func runQuick(t *testing.T, id string) []Table {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tables, err := r.Run(QuickConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tables
}

func TestAllRegistered(t *testing.T) {
	if len(All()) != 10 {
		t.Fatalf("experiments = %d, want 10", len(All()))
	}
	if _, ok := ByID("e3"); !ok {
		t.Fatal("ByID should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("unknown ID accepted")
	}
}

// renderAll renders a table list to one string, the byte-level
// artifact the determinism contract is stated over.
func renderAll(tables []Table) string {
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeterminismSerialRerun locks in the internal/des reproducibility
// contract: the same Config must yield byte-identical tables on every
// run, for every experiment in the battery.
func TestDeterminismSerialRerun(t *testing.T) {
	for _, r := range All() {
		first, err := r.Run(QuickConfig())
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		second, err := r.Run(QuickConfig())
		if err != nil {
			t.Fatalf("%s rerun: %v", r.ID, err)
		}
		if a, b := renderAll(first), renderAll(second); a != b {
			t.Errorf("%s: rerun with identical Config produced different tables", r.ID)
		}
	}
}

// TestDeterminismParallelMatchesSerial: the batch layer sharded over
// many workers must reproduce the serial path byte for byte — derived
// seeds and no shared RNG state make worker order irrelevant.
func TestDeterminismParallelMatchesSerial(t *testing.T) {
	cfg := QuickConfig()
	serial := map[string]string{}
	for _, r := range All() {
		tables, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		serial[r.ID] = renderAll(tables)
	}
	res := RunBatch(context.Background(), All(), cfg, BatchOptions{Parallel: 8, Reps: 1})
	if len(res.Cells) != len(All()) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("%s failed in batch: %s", c.ID, c.Err)
		}
		if got := renderAll(c.Tables); got != serial[c.ID] {
			t.Errorf("%s: parallel tables differ from serial run", c.ID)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{ID: "T", Title: "x", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note("hello %d", 7)
	s := tb.String()
	if !strings.Contains(s, "hello 7") || !strings.Contains(s, "bb") {
		t.Fatalf("render: %q", s)
	}
}

// cell parses a float cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tables := runQuick(t, "E1")
	if len(tables) != 4 {
		t.Fatalf("E1 tables = %d (one per model)", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != len(e1Schedulers) {
			t.Fatalf("%s rows = %d", tb.ID, len(tb.Rows))
		}
		byName := map[string][]string{}
		for _, row := range tb.Rows {
			byName[row[0]] = row
		}
		// Headline claim: EASY's mean wait beats FCFS on every model.
		if cell(t, byName["easy"][1]) > cell(t, byName["fcfs"][1]) {
			t.Errorf("%s: easy wait %s worse than fcfs %s", tb.ID, byName["easy"][1], byName["fcfs"][1])
		}
		// Utilization is a valid fraction everywhere.
		for _, row := range tb.Rows {
			u := cell(t, row[6])
			if u <= 0 || u > 1 {
				t.Errorf("%s: utilization %v out of range", tb.ID, u)
			}
		}
	}
}

func TestE2ProducesRankings(t *testing.T) {
	tables := runQuick(t, "E2")
	tb := tables[0]
	if len(tb.Rows) < 4 {
		t.Fatalf("E2 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if !strings.Contains(row[2], ">") {
			t.Fatalf("ranking cell malformed: %q", row[2])
		}
	}
}

func TestE3TauColumn(t *testing.T) {
	tb := runQuick(t, "E3")[0]
	if len(tb.Rows) != 11 {
		t.Fatalf("E3 rows = %d, want 11 weights", len(tb.Rows))
	}
	// tau at w=0 must be exactly 1 (self comparison); some other w
	// should drop below 1 (the [41] reordering effect).
	if cell(t, tb.Rows[0][2]) != 1 {
		t.Fatalf("tau at w=0 = %s", tb.Rows[0][2])
	}
	dropped := false
	for _, row := range tb.Rows {
		if cell(t, row[2]) < 1 {
			dropped = true
		}
	}
	if !dropped {
		t.Error("no ranking change across weights; E3 effect absent")
	}
}

func TestE4FeedbackThrottles(t *testing.T) {
	tb := runQuick(t, "E4")[0]
	// At the highest load the closed-loop response must be lower than
	// the open-loop one.
	last := tb.Rows[len(tb.Rows)-1]
	open, closed := cell(t, last[1]), cell(t, last[2])
	if closed >= open {
		t.Errorf("closed-loop response %v should beat open-loop %v past saturation", closed, open)
	}
	// Some jobs must actually be linked.
	if cell(t, last[5]) <= 0 {
		t.Error("no jobs linked into feedback chains")
	}
}

func TestE5AwareCutsLostWork(t *testing.T) {
	tb := runQuick(t, "E5")[0]
	// Rows come in pairs (easy, easy+win) per scenario. The paper's
	// claim is about *announced* outages, so the assertion applies to
	// the maintenance-only scenario ("none" failures): the aware
	// scheduler must lose no work there.
	checked := false
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		naive, aware := tb.Rows[i], tb.Rows[i+1]
		if naive[1] != "easy" || aware[1] != "easy+win" {
			t.Fatalf("row order: %v / %v", naive, aware)
		}
		if naive[0] != "none" {
			continue
		}
		checked = true
		if lost := cell(t, aware[5]); lost > 0 {
			t.Errorf("aware scheduler lost %v proc-h to announced maintenance", lost)
		}
		if cell(t, aware[5]) > cell(t, naive[5]) {
			t.Errorf("aware lost work %s exceeds naive %s", aware[5], naive[5])
		}
	}
	if !checked {
		t.Fatal("maintenance-only scenario missing")
	}
}

func TestE6AwareGrantsMore(t *testing.T) {
	tb := runQuick(t, "E6")[0]
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		naive, aware := tb.Rows[i], tb.Rows[i+1]
		if cell(t, aware[2]) < cell(t, naive[2]) {
			t.Errorf("aware grant rate %s below oblivious %s", aware[2], naive[2])
		}
	}
}

func TestE7PredictorsBeatZero(t *testing.T) {
	tables := runQuick(t, "E7")
	acc := tables[0]
	var zeroMAE float64
	maes := map[string]float64{}
	for _, row := range acc.Rows {
		maes[row[0]] = cell(t, row[1])
		if row[0] == "zero" {
			zeroMAE = cell(t, row[1])
		}
	}
	if zeroMAE == 0 {
		t.Skip("no waiting in quick workload")
	}
	// The robust claim (and the paper's point): the category-template
	// predictor extracts real signal; global averages may not.
	if maes["category"] >= zeroMAE {
		t.Errorf("category MAE %v should beat zero %v", maes["category"], zeroMAE)
	}
	// Meta policy table: informed policies beat random on mean wait.
	gain := tables[1]
	waits := map[string]float64{}
	for _, row := range gain.Rows {
		waits[row[0]] = cell(t, row[1])
	}
	if waits["least-work"] > waits["random"] {
		t.Errorf("least-work %v should beat random %v", waits["least-work"], waits["random"])
	}
}

func TestE8GrantRateAndDelays(t *testing.T) {
	tb := runQuick(t, "E8")[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("E8 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if g := cell(t, row[1]); g < 50 {
			t.Errorf("parts=%s grant rate %v too low for aware locals", row[0], g)
		}
	}
	// Delay grows (weakly) with parts.
	if cell(t, tb.Rows[2][2]) < cell(t, tb.Rows[0][2]) {
		t.Errorf("4-part mean delay %s below 1-part %s", tb.Rows[2][2], tb.Rows[0][2])
	}
}

func TestE9LublinClosestNaiveLacksStructure(t *testing.T) {
	tb := runQuick(t, "E9")[0]
	composite := map[string]float64{}
	dpow2 := map[string]float64{}
	for _, row := range tb.Rows {
		composite[row[0]] = cell(t, row[6])
		dpow2[row[0]] = cell(t, row[3])
	}
	for name, v := range composite {
		if name == "lublin99" {
			continue
		}
		if composite["lublin99"] > v {
			t.Errorf("lublin99 composite %v should be below %s's %v", composite["lublin99"], name, v)
		}
	}
	// The guesswork baseline misses the power-of-two structure worse
	// than every measurement-based model.
	for name, v := range dpow2 {
		if name == "naive" {
			continue
		}
		if dpow2["naive"] < v {
			t.Errorf("naive pow2 gap %v should exceed %s's %v", dpow2["naive"], name, v)
		}
	}
}

func TestE10ScoreboardShape(t *testing.T) {
	tables := runQuick(t, "E10")
	board, fid := tables[0], tables[1]
	if len(board.Rows) == 0 || len(fid.Rows) != 3 {
		t.Fatalf("scoreboard %d rows, fidelity %d rows", len(board.Rows), len(fid.Rows))
	}
	// comm-aware must beat round-robin on the comm-intensive graph on
	// the wide-area grid.
	for _, row := range board.Rows {
		if row[0] == "wide-area-grid" && strings.HasPrefix(row[1], "comm-") {
			if cell(t, row[4]) > cell(t, row[2]) {
				t.Errorf("comm-aware %s worse than round-robin %s on %s", row[4], row[2], row[1])
			}
		}
	}
	// Where the event-driven engine sees a clear difference, the
	// analytic estimate must agree most of the time.
	totalPairs, weightedAgree := 0.0, 0.0
	for _, row := range fid.Rows {
		pairs := cell(t, row[1])
		if row[2] == "-" {
			continue
		}
		totalPairs += pairs
		weightedAgree += pairs * cell(t, row[2])
	}
	if totalPairs == 0 {
		t.Fatal("no distinct pairs at all; fidelity comparison vacuous")
	}
	if weightedAgree/totalPairs < 60 {
		t.Errorf("overall fidelity agreement %.1f%% below 60%%", weightedAgree/totalPairs)
	}
}

// TestE8TypedMetricsBitIdentical reruns E8 at one seed and requires
// every typed metric to repeat bit for bit. Its local slowdown sums
// per-site products, so it must visit the sites in a fixed order;
// printed tables round the difference away, the metrics do not.
func TestE8TypedMetricsBitIdentical(t *testing.T) {
	first := runQuick(t, "E8")[0].Metrics
	for rerun := 0; rerun < 5; rerun++ {
		again := runQuick(t, "E8")[0].Metrics
		if len(again) != len(first) {
			t.Fatalf("rerun %d: %d metrics, want %d", rerun, len(again), len(first))
		}
		for i := range first {
			a, b := first[i], again[i]
			if a.Name != b.Name || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
				t.Fatalf("rerun %d: metric %s %s = %v, first run %s = %v",
					rerun, b.LabelKey(), b.Name, b.Value, a.Name, a.Value)
			}
		}
	}
}
