package sched

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/debugchecks"
)

func init() {
	Register(Family{
		Name: "easy",
		Doc:  "EASY (aggressive) backfilling",
		Params: []Param{
			{Name: "window", Kind: BoolParam,
				Doc: "respect announced outages and accepted advance reservations"},
			{Name: "reserve", Kind: IntParam, Default: "1",
				Doc: "reservation depth: blocked queue-head jobs guaranteed not to be delayed (1 = classic EASY; large = conservative)"},
		},
		Aliases: map[string]string{
			"easy+win":  "easy(window)",
			"easy+mold": "easy(mold)",
		},
		New: func(a Args) (Scheduler, error) {
			r := a.Int("reserve")
			if r < 1 {
				return nil, fmt.Errorf("reserve must be >= 1, got %d", r)
			}
			return &EASY{Windows: a.Bool("window"), Reserve: r}, nil
		},
	})
	Register(Family{
		Name: "cons",
		Doc:  "conservative backfilling (every queued job gets a reservation)",
		Params: []Param{
			{Name: "window", Kind: BoolParam,
				Doc: "respect announced outages and accepted advance reservations"},
		},
		Aliases: map[string]string{"cons+win": "cons(window)"},
		New: func(a Args) (Scheduler, error) {
			return &Conservative{Windows: a.Bool("window")}, nil
		},
	})
}

// EASY is aggressive backfilling as introduced on the Argonne SP-1
// (EASY) and analyzed by Feitelson & Weil: jobs run FCFS, but when the
// head of the queue cannot start, a reservation ("shadow time") is
// computed for it from the running jobs' expected completions, and any
// later job may start immediately if it does not delay that
// reservation — either because it ends before the shadow time or
// because it fits in the processors left over at the shadow time.
//
// The paper's Section 3 singles out backfilling as the scheduler family
// that reservations for metacomputing extend ("A simple approach may be
// an extension of backfilling"): with Windows=true, announced outages
// and accepted reservations become capacity reductions in the shadow
// computation, giving the reservation-aware/outage-aware variant.
type EASY struct {
	// Windows folds Outages() and Reservations() into the availability
	// profile, making the scheduler drain for known capacity holes.
	Windows bool
	// Reserve is the reservation depth: how many blocked jobs at the
	// head of the queue are guaranteed not to be delayed by backfill.
	// 0 or 1 is classic EASY (only the head is protected); a depth of
	// the whole queue reproduces conservative backfilling. Built from
	// specs like "easy(reserve=2)".
	Reserve int
	// DisableLedger turns off the resumable-pass reservation ledger the
	// deep-reserve walk keeps (Reserve > 1), forcing every pass to
	// re-derive every reservation from scratch. Decisions are identical
	// either way — the ledger resumes the exact deterministic walk — so
	// the switch exists only for the equivalence property tests and the
	// quadratic-vs-incremental ablation benchmarks.
	DisableLedger bool

	queue []*core.Job
	// estq caches ctx.Estimate per queued job, index-aligned with queue.
	// Estimates are frozen once a job is submitted (a requeued kill goes
	// back through OnSubmit), and the sweep reads one per candidate per
	// pass — an interface call worth paying once per arrival instead.
	estq []int64
	// ledger records the deep-reserve walk for resumption; queueGen
	// counts queue removals (starts), the ledger's proof that the queue
	// it walked is still a prefix of the one it sees.
	ledger   resvLedger
	queueGen uint64
	// scratch is the per-pass working profile, reused across scheduling
	// passes so a pass costs no profile allocations.
	scratch Profile
	// Shadow-time cache: the head's reservation recomputes identically
	// while the profile base is unchanged (same build stamp, no Take
	// mirrored into it), the head job is the same, and the cached start
	// has not fallen due. EarliestFit found no earlier hole last pass,
	// and the profile has only aged, so none can have appeared.
	shadowOK    bool
	shadowStamp uint64
	shadowHead  int64
	shadowEst   int64
	shadowSize  int
	shadowVal   int64
	// Swept-queue memo: after a phase-2 sweep that started nothing, a
	// later pass over the same profile base (same stamp, no Take
	// mirrored into it — a start anywhere would have changed the running
	// set and forced a new stamp) re-rejects every job it already swept:
	// now only advances, so now+est <= shadow only gets falser; FitsAt
	// over an unchanged profile can flip true to false but never back;
	// and the machine state cannot change without a rebuild. Only jobs
	// queued behind sweepLen need evaluation.
	//
	// The memo also survives shrink-only rebuilds (same grow stamp:
	// every intervening build was an aging, a window splice, or a
	// TakeStarted — all leave the profile pointwise <= the recorded one
	// from now on) provided the sweep gates are unchanged (same shadow
	// and extra) and no capacity rise has fallen due (now < sweepUntil,
	// the recorded profile's first free-count increase): under those
	// guards a swept job's rejection only hardens — the interval FitsAt
	// tests slides right over non-increasing capacity, and the free
	// count a CanStart rejection saw cannot have grown back without
	// crossing the rise boundary or bumping the grow stamp.
	sweepOK     bool
	sweepStamp  uint64
	sweepLen    int
	sweepGrow   uint64
	sweepShadow int64
	sweepExtra  int
	sweepUntil  int64
	// shadowGrow mirrors the profile's grow stamp at shadow-cache fill.
	// When the full stamp has moved but the grow stamp has not, every
	// intervening rebuild was shrink-only, so the head's earliest fit
	// cannot have moved earlier — the search resumes at the cached value
	// instead of rescanning from now.
	shadowGrow uint64
	// started maps running job ID -> the expected end this scheduler
	// mirrored into the profile at start, so OnFinish can absorb the
	// completion into the built-base snapshot (see Profile.AbsorbFinish).
	started map[int64]int64
}

// NewEASY returns plain EASY backfilling.
func NewEASY() *EASY { return &EASY{} }

// NewEASYWindows returns EASY that respects announced outages and
// accepted advance reservations.
func NewEASYWindows() *EASY { return &EASY{Windows: true} }

// Name implements Scheduler. Legacy configurations keep their legacy
// names; parameterized ones name themselves by their canonical spec.
//
//schedlint:coldpath reporting: result labeling, once per run
func (e *EASY) Name() string {
	switch {
	case e.Reserve > 1 && e.Windows:
		return fmt.Sprintf("easy(reserve=%d, window)", e.Reserve)
	case e.Reserve > 1:
		return fmt.Sprintf("easy(reserve=%d)", e.Reserve)
	case e.Windows:
		return "easy+win"
	}
	return "easy"
}

// Queued implements QueueReporter.
func (e *EASY) Queued() []*core.Job { return append([]*core.Job(nil), e.queue...) }

// OnSubmit implements Scheduler.
func (e *EASY) OnSubmit(ctx Context, j *core.Job) {
	e.queue = append(e.queue, j)
	e.estq = append(e.estq, ctx.Estimate(j))
	e.schedule(ctx)
}

// OnFinish implements Scheduler.
func (e *EASY) OnFinish(ctx Context, j *core.Job) {
	if end, ok := e.started[j.ID]; ok {
		delete(e.started, j.ID)
		e.scratch.AbsorbFinish(ctx, end, j.Size)
	}
	e.schedule(ctx)
}

// OnChange implements Scheduler.
func (e *EASY) OnChange(ctx Context) { e.schedule(ctx) }

// markStarted records the expected end mirrored into the profile for a
// job this scheduler just started, keyed for OnFinish absorption.
func (e *EASY) markStarted(id, expEnd int64) {
	if e.started == nil {
		e.started = make(map[int64]int64) //schedlint:allow allocfree one-time map spine for the started-job index
	}
	e.started[id] = expEnd //schedlint:allow allocfree amortized map growth: one insert per started job
}

// profile builds the availability profile EASY consults. Without
// Windows, only running jobs count (classic EASY is oblivious to
// outages it has not been told about); both arms go through the
// sorted-merge kernel, so the windowless build gets the same snapshot
// restores and build stamps as the windowed one.
func (e *EASY) profile(ctx Context) *Profile {
	if e.Windows {
		return BuildProfileInto(&e.scratch, ctx)
	}
	return BuildRunningProfileInto(&e.scratch, ctx)
}

func (e *EASY) schedule(ctx Context) {
	now := ctx.Now()
	// One profile per scheduling pass; job starts are mirrored into it
	// with Take so it stays current without rebuilding (rebuilding per
	// candidate makes window-heavy runs quadratic).
	p := e.profile(ctx)

	// Phase 1: start jobs FCFS from the head while they fit. A cached
	// shadow strictly in the future proves the head cannot start now —
	// the machine free count tracks the profile's first segment, so a
	// blocked earliest-fit implies FitsAt(now) is false — and the proof
	// survives shrink-only rebuilds (same grow stamp: the earliest fit
	// only moves later), so the whole phase is a no-op without touching
	// the fit kernels. Windows mode only: the windowless head check is
	// CanStart alone, which a future earliest fit does not bound (the
	// blocking segment may lie beyond now even when the head fits now).
	headBlocked := e.Windows && len(e.queue) > 0 && e.shadowOK && !p.Mutated() &&
		e.shadowHead == e.queue[0].ID && e.shadowVal > now &&
		(e.shadowStamp == p.Stamp() || e.shadowGrow == p.GrowStamp()) &&
		e.shadowSize == e.queue[0].Size && e.shadowEst == e.estq[0]
	n := 0
	for !headBlocked && n < len(e.queue) {
		head := e.queue[n]
		est := e.estq[n]
		if !e.canStartNow(ctx, p, head, est) {
			break
		}
		ctx.Start(head, head.Size)
		p.TakeStarted(ctx, now, now+est, head.Size)
		e.markStarted(head.ID, now+est)
		n++
		e.queueGen++
	}
	if n > 0 {
		// Drop the started heads in place, so the queue keeps its
		// capacity and later arrivals append without regrowing it.
		k := copy(e.queue, e.queue[n:])
		clear(e.queue[k:])
		e.queue = e.queue[:k]
		e.estq = e.estq[:copy(e.estq, e.estq[n:])]
	}
	if len(e.queue) <= 1 {
		return
	}
	if e.Reserve > 1 {
		e.scheduleDeep(ctx, p, now)
		return
	}

	// Phase 2: the head is blocked. Compute its reservation from the
	// profile, then backfill later jobs that do not delay it.
	head := e.queue[0]
	headEst := e.estq[0]
	var shadow int64
	if e.shadowOK && !p.Mutated() && e.shadowStamp == p.Stamp() &&
		e.shadowHead == head.ID && e.shadowEst == headEst &&
		e.shadowSize == head.Size && e.shadowVal >= now {
		shadow = e.shadowVal
	} else {
		after := now
		if e.shadowOK && e.shadowGrow == p.GrowStamp() &&
			e.shadowHead == head.ID && e.shadowEst == headEst &&
			e.shadowSize == head.Size && e.shadowVal != maxFuture &&
			e.shadowVal > now {
			// The base changed but only by losing capacity (a start, a
			// claim, a surfaced window): no hole can have appeared before
			// the cached reservation, so resume the search there instead
			// of rescanning the profile from now.
			after = e.shadowVal
		}
		shadow = p.EarliestFit(after, headEst, head.Size)
		if shadow < 0 {
			// The head can never fit (bigger than the machine after
			// failures); skip backfill gating against it.
			shadow = maxFuture
		}
		// Cache only computations against the pristine base — a profile
		// already carrying this pass's starts is not reproducible next
		// pass.
		e.shadowOK = !p.Mutated()
		if e.shadowOK {
			e.shadowStamp, e.shadowHead = p.Stamp(), head.ID
			e.shadowGrow = p.GrowStamp()
			e.shadowEst, e.shadowSize, e.shadowVal = headEst, head.Size, shadow
		}
	}
	// Processors left over for backfill at the shadow time.
	extra := p.FreeAt(shadow) - head.Size

	i := 1
	if e.sweepOK && !p.Mutated() && e.sweepLen <= len(e.queue) {
		if e.sweepStamp == p.Stamp() {
			i = e.sweepLen
		} else if e.sweepGrow == p.GrowStamp() && e.sweepShadow == shadow &&
			e.sweepExtra == extra && now < e.sweepUntil {
			// Shrink-only rebuilds since the memo (same grow stamp) left
			// the profile pointwise at or below the recorded one from now
			// on, the shadow gates compare against identical bounds, and
			// no capacity rise has fallen due yet — so every recorded
			// rejection still holds: FitsAt slides right over
			// non-increasing capacity and the machine free count tracks
			// the profile's first segment. See the sweep memo field docs.
			i = e.sweepLen
		}
	}
	for i < len(e.queue) {
		j := e.queue[i]
		est := e.estq[i]
		fitsBefore := now+est <= shadow
		fitsBeside := j.Size <= extra
		// The shadow gates are integer compares; test them before the
		// capacity/profile checks so candidates that could not backfill
		// anyway (the bulk of a congested queue) cost nothing. Pure
		// predicates both ways, so the conjunction order is free.
		if (fitsBefore || fitsBeside) && e.canStartNow(ctx, p, j, est) {
			ctx.Start(j, j.Size)
			p.TakeStarted(ctx, now, now+est, j.Size)
			e.markStarted(j.ID, now+est)
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.estq = append(e.estq[:i], e.estq[i+1:]...)
			e.queueGen++
			if !fitsBefore {
				extra -= j.Size
			}
			continue
		}
		i++
	}
	// Record the sweep frontier so the next pass over the same base only
	// looks at jobs that arrived after it. Starts absorbed by
	// TakeStarted leave p unmutated under a fresh stamp, and the memo
	// stays sound across them: a candidate rejected mid-pass only
	// hardens against the end-of-pass state (Take never adds capacity,
	// CanStart's free count only falls within a pass, and both FitsAt
	// and the shadow gates are monotone false-ward as now advances over
	// a fixed stamp). Only reservation carves — which scheduleDeep does,
	// this path never — leave the profile genuinely mutated.
	if e.sweepOK = !p.Mutated(); e.sweepOK {
		e.sweepStamp = p.Stamp()
		e.sweepLen = len(e.queue)
		e.sweepGrow = p.GrowStamp()
		e.sweepShadow = shadow
		e.sweepExtra = extra
		e.sweepUntil = p.NextCapacityRise()
	}
}

// scheduleDeep is the Reserve > 1 backfill pass: the first Reserve
// waiting jobs are walked conservative-style — started when their
// earliest fit is now, otherwise their future slot is carved into the
// profile as a reservation — and jobs beyond the depth may start only
// where they fit under the profile immediately, so no protected job is
// ever delayed. Depth 1 degenerates to classic EASY (handled by the
// shadow-time path above); depth >= queue length is conservative
// backfilling.
//
// The walk runs through the reservation ledger: a pass over an
// unchanged base with an intact queue prefix resumes at the first
// unwalked job (or skips entirely when there is none) instead of
// re-deriving every reservation; see resvLedger for the validity proof.
func (e *EASY) scheduleDeep(ctx Context, p *Profile, now int64) {
	i := 0
	if !e.DisableLedger && e.ledger.resumable(ctx, p, now, e.queue, e.queueGen) {
		if debugchecks.Enabled {
			e.ledger.verifyResume(ctx, e.Windows, e.queue, e.Reserve, now)
		}
		if len(e.queue) == len(e.ledger.entries) {
			// Pass-skip: every queued job was walked against this very
			// base and nothing relevant has changed — reservations would
			// re-derive identically and sweep rejections only harden.
			return
		}
		i = len(e.ledger.entries)
		e.ledger.restore(p, now)
	} else {
		e.ledger.beginPass()
	}
	gen := e.queueGen
	for i < len(e.queue) {
		j := e.queue[i]
		est := e.estq[i]
		if i < e.Reserve {
			start := p.EarliestFit(now, est, j.Size)
			if start == now && ctx.CanStart(j, j.Size) {
				ctx.Start(j, j.Size)
				p.TakeStarted(ctx, now, now+est, j.Size)
				e.markStarted(j.ID, now+est)
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				e.estq = append(e.estq[:i], e.estq[i+1:]...)
				e.queueGen++
				continue
			}
			if start >= 0 {
				// Protect this job: backfill below must fit around it.
				p.Take(start, start+est, j.Size)
			}
			e.ledger.add(j, est, start)
			i++
			continue
		}
		if ctx.CanStart(j, j.Size) && p.FitsAt(now, est, j.Size) {
			ctx.Start(j, j.Size)
			p.TakeStarted(ctx, now, now+est, j.Size)
			e.markStarted(j.ID, now+est)
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.estq = append(e.estq[:i], e.estq[i+1:]...)
			e.queueGen++
			continue
		}
		e.ledger.add(j, est, ledgerSwept)
		i++
	}
	// A start anywhere in the pass shifted queue positions and poisoned
	// the recorded walk (it also changed the running set, so the next
	// build re-stamps regardless). Only an all-blocked pass commits.
	if !e.DisableLedger && e.queueGen == gen {
		e.ledger.commit(ctx, p, e.queueGen)
	} else {
		e.ledger.ok = false
	}
}

// canStartNow checks capacity plus, in Windows mode, that the job would
// not collide with a future capacity hole it is required to respect.
// p is the pass's working profile (already reflecting this pass's
// starts); est is the caller's ctx.Estimate(j), threaded through so the
// sweep pays one estimate lookup per candidate, not two.
func (e *EASY) canStartNow(ctx Context, p *Profile, j *core.Job, est int64) bool {
	// In Windows mode the job must fit under the profile for its whole
	// estimated duration starting now (otherwise it would collide with a
	// window). FitsAt answers exactly EarliestFit(now, ...) == now, but
	// bails at the first too-full segment instead of scanning on for a
	// later hole this check would discard anyway — and it runs before
	// the machine walk, since in a congested pass it is the commoner
	// rejection. Both predicates are pure, so the order is free.
	if e.Windows && !p.FitsAt(ctx.Now(), est, j.Size) {
		return false
	}
	return ctx.CanStart(j, j.Size)
}

const maxFuture = int64(1) << 60

// Conservative is conservative backfilling: every queued job gets a
// reservation, and a job may backfill only if it delays no earlier
// reservation. This implementation rebuilds the full profile on every
// event and walks the queue in arrival order, which reproduces the
// algorithm's guarantee directly: job i's start never trails the
// estimate-based promise made at its submittal.
type Conservative struct {
	// Windows folds outages/reservations into the profile.
	Windows bool
	// DisableLedger turns off the resumable-pass reservation ledger,
	// forcing every pass to re-derive every reservation from scratch.
	// Decisions are identical either way — the ledger resumes the exact
	// deterministic arrival-order walk — so the switch exists only for
	// the equivalence property tests and the quadratic-vs-incremental
	// ablation benchmarks.
	DisableLedger bool

	queue []*core.Job
	// estq caches ctx.Estimate per queued job, index-aligned with queue
	// (see the EASY field of the same name): one interface call per
	// arrival instead of one per candidate per pass.
	estq []int64
	// scratch is the per-pass working profile, reused across passes.
	scratch Profile
	// ledger records the reservation walk for resumption; queueGen
	// counts queue removals (starts), the ledger's proof that the queue
	// it walked is still a prefix of the one it sees.
	ledger   resvLedger
	queueGen uint64
	// started maps running job ID -> the expected end mirrored into the
	// profile at start, for OnFinish absorption (see Profile.AbsorbFinish).
	started map[int64]int64
}

// NewConservative returns conservative backfilling.
func NewConservative() *Conservative { return &Conservative{} }

// NewConservativeWindows returns the outage/reservation-aware variant.
func NewConservativeWindows() *Conservative { return &Conservative{Windows: true} }

// Name implements Scheduler.
func (c *Conservative) Name() string {
	if c.Windows {
		return "cons+win"
	}
	return "cons"
}

// Queued implements QueueReporter.
func (c *Conservative) Queued() []*core.Job { return append([]*core.Job(nil), c.queue...) }

// OnSubmit implements Scheduler.
func (c *Conservative) OnSubmit(ctx Context, j *core.Job) {
	c.queue = append(c.queue, j)
	c.estq = append(c.estq, ctx.Estimate(j))
	c.schedule(ctx)
}

// OnFinish implements Scheduler.
func (c *Conservative) OnFinish(ctx Context, j *core.Job) {
	if end, ok := c.started[j.ID]; ok {
		delete(c.started, j.ID)
		c.scratch.AbsorbFinish(ctx, end, j.Size)
	}
	c.schedule(ctx)
}

// OnChange implements Scheduler.
func (c *Conservative) OnChange(ctx Context) { c.schedule(ctx) }

func (c *Conservative) schedule(ctx Context) {
	now := ctx.Now()
	var p *Profile
	if c.Windows {
		p = BuildProfileInto(&c.scratch, ctx)
	} else {
		p = BuildRunningProfileInto(&c.scratch, ctx)
	}

	// Resume the recorded walk when the base and queue prefix are
	// provably unchanged (see resvLedger): only jobs that arrived after
	// the last committed pass need evaluation, and a pass with no new
	// arrivals is a provable no-op.
	from := 0
	if !c.DisableLedger && c.ledger.resumable(ctx, p, now, c.queue, c.queueGen) {
		if debugchecks.Enabled {
			c.ledger.verifyResume(ctx, c.Windows, c.queue, len(c.ledger.entries), now)
		}
		if len(c.queue) == len(c.ledger.entries) {
			return
		}
		from = len(c.ledger.entries)
		c.ledger.restore(p, now)
	} else {
		c.ledger.beginPass()
	}

	gen := c.queueGen
	kept := c.queue[:from]
	keptEst := c.estq[:from]
	for qi := from; qi < len(c.queue); qi++ {
		j := c.queue[qi]
		est := c.estq[qi]
		start := p.EarliestFit(now, est, j.Size)
		if start == now && ctx.CanStart(j, j.Size) {
			ctx.Start(j, j.Size)
			// Its processors are busy until its expected end; reflect
			// that for the jobs behind it.
			p.TakeStarted(ctx, now, now+est, j.Size)
			if c.started == nil {
				c.started = make(map[int64]int64) //schedlint:allow allocfree one-time map spine for the started-job index
			}
			c.started[j.ID] = now + est //schedlint:allow allocfree amortized map growth: one insert per started job
			c.queueGen++
			continue
		}
		if start < 0 {
			// Larger than the (possibly degraded) machine: hold it.
			kept = append(kept, j)
			keptEst = append(keptEst, est)
			c.ledger.add(j, est, start)
			continue
		}
		// Reserve: later jobs must not delay this one.
		p.Take(start, start+est, j.Size)
		kept = append(kept, j)
		keptEst = append(keptEst, est)
		c.ledger.add(j, est, start)
	}
	c.queue = kept
	c.estq = keptEst
	// A pass that started a job commits nothing: positions shifted and
	// the running set changed, so the next build re-stamps anyway.
	if !c.DisableLedger && c.queueGen == gen {
		c.ledger.commit(ctx, p, c.queueGen)
	} else {
		c.ledger.ok = false
	}
}
