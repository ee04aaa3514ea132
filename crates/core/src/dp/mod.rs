//! Exact PTA evaluation by dynamic programming (§5).
//!
//! The DP fills an error matrix `E` where cell `(k, i)` holds the smallest
//! SSE of reducing the first `i` ITA tuples to `k` tuples:
//!
//! ```text
//! E[k][i] = min_{j} ( E[k−1][j] + SSE(merge s_{j+1..i}) )
//! ```
//!
//! with merging across non-adjacent pairs costing `∞`. Three accelerations
//! apply (§5.2–5.3): constant-time range SSE from prefix sums, the
//! `imax`/`jmin` bounds derived from the gap vector, and Jagadish et al.'s
//! early break when the range SSE alone exceeds the best cell value.
//!
//! # One row skeleton
//!
//! Every DP row of every entry point goes through one fill
//! ([`DpEngine::fill_into`]): failpoint, cancel poll, the walk over
//! *inter-break windows* (maximal runs of cells sharing the same rightmost
//! break below them, so every gap lookup is hoisted out of the cell loop),
//! the fan-out gate, chunking and tiling onto the [`Pool`], and the
//! sequential window loop with per-window polls. The skeleton is generic
//! over two things, both monomorphized so the cell loops carry no
//! per-cell dispatch:
//!
//! * **Orientation** (`const MIRROR: bool`). A forward row reads prefixes
//!   `lo..i`; a *mirrored* row is the same recurrence over the view
//!   `i ↦ n − i` of the same [`PrefixStats`], [`GapVector`] and monotone-run
//!   certificate, i.e. a *suffix* row: view cell `n − i` holds the optimal
//!   SSE of tuples `i..hi`. No reversed series is built — reversed prefix
//!   sums would round differently and move divide-and-conquer ties. The
//!   mirrored scan visits split points in exactly the order of a suffix
//!   scan and adds the same two floats, so its values are bit-identical to
//!   a hand-written suffix fill.
//! * **Window solver** ([`WindowSolver`]). [`Exact`] minimizes each open
//!   window into one value row, by the Fig. 7 scan or by a Monge engine
//!   (below); the stride grid of [`approx`] fills the `ub`/`lb` bracket
//!   pair over a sparse cell and candidate grid.
//!
//! On top of the skeleton sit one forward sweep ([`DpEngine::sweep`]:
//! table, error-row and curve passes) and one Hirschberg recursion
//! ([`DpEngine::dnc_pass`]), shared by the exact and approximate tiers.
//!
//! # Row minimization strategies
//!
//! Within a window the candidate split range is break-free; when the
//! window's tuple values are additionally **monotone in every dimension** —
//! an exact, precomputed certificate — its cost matrix `prev[j] + SSE(j..i)`
//! is provably Monge (the 1-D k-means structure; see [`monge`] for why
//! monotonicity is required) and two interchangeable linear minimizers
//! apply, selected by [`DpStrategy`]:
//!
//! * **Scan** ([`DpStrategy::Scan`]): the Fig. 7 decreasing-`j` scan with
//!   the early break — `O(window²)` per row window in the worst case.
//! * **Monge** ([`DpStrategy::Monge`]): SMAWK/divide-and-conquer row
//!   minimization on every certified window — `O(window)` per monotone
//!   row window, `O(c · n)` on gap-free monotone-run data. Uncertified
//!   windows scan.
//! * **Auto** ([`DpStrategy::Auto`], the default everywhere): SMAWK on
//!   certified windows at least [`MONGE_AUTO_MIN_WINDOW`] cells wide in
//!   both dimensions, the scan below. Every strategy returns identical
//!   row values and split points (see the [`monge`] module docs).
//!
//! # Backtracking modes and their memory model
//!
//! Error values only ever need two `(n + 1)`-entry rows, so the memory
//! question is about recovering the optimal *split points*. Two modes
//! exist, selected by [`DpMode`]:
//!
//! * **Materialized table** ([`DpMode::Table`]): record the best split
//!   point of every cell in a `c × (n + 1)` matrix and walk it backwards
//!   once — `O(n · c)` memory, a single DP pass.
//! * **Divide and conquer** ([`DpMode::DivideConquer`]): record nothing.
//!   To split `n` tuples into `c` pieces, run forward rows to `⌊c/2⌋` and
//!   mirrored rows to `⌈c/2⌉`, pick the midpoint minimizing their sum, and
//!   recurse on the two halves (Hirschberg's scheme). Four scratch rows —
//!   `O(n)` memory regardless of `c` — at most ~2× the table's work.
//!
//! [`DpMode::Auto`] (the default) materializes the table only when
//! `c · (n + 1)` fits [`DEFAULT_TABLE_BUDGET`]. Both modes return optimal
//! reductions; on exact ties they may pick different cuts. Any
//! [`DpStrategy`] combines with any [`DpMode`].
//!
//! # Run decomposition
//!
//! Tuples in different gap-free runs never merge (Def. 2, §5.3), so exact
//! PTA is a *separable allocation*: give each maximal run `r` of length
//! `L_r` some `c_r ∈ 1..=L_r` pieces with `Σ c_r = c`, minimizing
//! `Σ E_r(c_r)`, where `E_r` is the run's own error curve. The row sweep
//! only uses the gaps to prune its rows, and each of its rows still walks
//! the whole input; on gap-rich data most runs are a few tuples long, and
//! the run path (the private `runs` module) solves them one at a time:
//!
//! 1. **Curves.** Each run of at least two tuples fills forward rows
//!    over its own span through the one row skeleton (so Monge windows,
//!    cancel polls, the `dp.fill_row` failpoint and the counters all
//!    apply), against the global [`PrefixStats`] so range SSEs keep their
//!    bits. Row `k` at the span's end is `E_r(k)`. `PTAc` fills
//!    `min(L_r, c − cmin + 1)` rows per run, `PTAε` all `L_r`.
//! 2. **Merge.** A min-plus fold of the curves in "extra pieces" space
//!    `d = c − cmin` gives `F(d)`, the least total error with `d` pieces
//!    beyond one per run. `PTAε` takes the smallest `d` with
//!    `F(d) ≤ threshold` (the threshold the sweep uses).
//! 3. **Allocation.** Hirschberg's scheme over the run list: a node folds
//!    its left and right halves up to its target, keeps the split with the
//!    least sum and recurses, so no `#runs × c` table is ever built.
//! 4. **Cuts.** Each run's cuts for its `c_r` come from divide-and-conquer
//!    recovery ([`DpEngine::dnc`]) over the run's span.
//!
//! The reported SSE is, as on every path, the left-to-right re-sum of the
//! final boundaries, so it is bit-identical to the sweep's whenever the
//! boundaries agree.
//!
//! **Selection.** No option selects the run path; the input does.
//! [`DpMode::Auto`] and [`DpMode::Budget`] take it exactly where they
//! would not materialize the table anyway, the DP is exact and pruned
//! (`Approx(ε > 0)` and the naive baseline keep the sweep), and there are
//! at least two runs (`cmin ≥ 2`): for `PTAc` when the `c × (n + 1)`
//! table does not fit, for `PTAε` when the `n × (n + 1)` table does not
//! fit *and* no run is longer than `cmin` — the answer has at least
//! `cmin` pieces, so then no run fills more rows than the sweep would.
//! Explicit [`DpMode::Table`] / [`DpMode::DivideConquer`] and single-run
//! inputs run the row sweep, which stays the reference the run path is
//! tested against.
//!
//! **Memory.** At most four `(n + 1)`-entry rows live at once, and a
//! run-path pass reports `peak_rows = 4` and [`DpExecMode::DivideConquer`]:
//! the curves phase holds the row pair and the curves (`Σ` depths `≤ n`
//! entries); the merge phase the curves, two half-folds (`≤ n − cmin + 2`
//! entries together) and their scratch row; the cut phase the four
//! divide-and-conquer rows, after the other buffers are dropped. The
//! per-run allocation vector is bookkeeping, like the cuts. Min-plus
//! candidate evaluations count as `scan_cells` (see [`DpStats`]).
//!
//! **Tie rule.** Where allocations tie on their computed sums, every node
//! of the allocation recursion keeps the smallest left share, so extra
//! pieces land in the latest runs (as the table's backtrack, preferring
//! the largest split point, tends to); within a run the cuts follow
//! divide-and-conquer recovery (the first minimizing midpoint). The
//! `run_decomposition` test suite pins the resulting boundaries on
//! tie-heavy data.
//!
//! [`size_bounded`] implements `PTAc` (Fig. 7), [`error_bounded`]
//! implements `PTAε` (Fig. 8), and [`curve`] produces whole error-vs-size
//! curves. The *naive DP* baseline of Fig. 18 (recurrence + constant-time
//! SSE, no gap pruning) always scans.

pub mod approx;
pub mod curve;
pub mod error_bounded;
pub mod monge;
mod runs;
pub mod size_bounded;

use std::ops::Range;

use pta_failpoints::fail_point;
use pta_pool::Pool;
use pta_temporal::SequentialRelation;

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::gaps::GapVector;
use crate::policy::GapPolicy;
use crate::prefix::PrefixStats;
use crate::weights::Weights;

pub use approx::DEFAULT_APPROX_EPS;
pub use monge::{DpStrategy, MONGE_AUTO_MIN_WINDOW};

use monge::RowMinEngine;

/// Default split-point table budget of [`DpMode::Auto`], in table entries
/// (one `usize` each): 2²⁵ entries, i.e. 256 MiB on 64-bit targets.
/// Inputs whose `c · (n + 1)` exceeds the budget transparently use
/// divide-and-conquer backtracking — no input is rejected.
pub const DEFAULT_TABLE_BUDGET: usize = 1 << 25;

/// How the exact DP recovers the optimal split points. Both modes produce
/// an optimal reduction; they trade memory against a small constant
/// factor of extra work (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DpMode {
    /// Materialize the split-point table when `c · (n + 1)` fits
    /// [`DEFAULT_TABLE_BUDGET`]; divide and conquer otherwise.
    #[default]
    Auto,
    /// [`DpMode::Auto`] with an explicit table budget in entries — the
    /// opt-in memory knob: the table is materialized only while
    /// `c · (n + 1)` stays within the budget.
    Budget(usize),
    /// Always materialize the split-point table (`O(n · c)` memory, one
    /// DP pass).
    Table,
    /// Always backtrack by divide and conquer (`O(n)` memory, at most
    /// about twice the split-point evaluations).
    DivideConquer,
}

impl DpMode {
    /// Whether a `c × (n + 1)` split-point table fits this mode's budget.
    pub fn materializes_table(self, n: usize, c: usize) -> bool {
        let entries = c.saturating_mul(n.saturating_add(1));
        match self {
            Self::Auto => entries <= DEFAULT_TABLE_BUDGET,
            Self::Budget(budget) => entries <= budget,
            Self::Table => true,
            Self::DivideConquer => false,
        }
    }

    /// How many `(n + 1)`-wide split-point rows the error-bounded DP may
    /// record under this mode before falling back to divide-and-conquer
    /// recovery (`PTAε` does not know its final row count up front).
    pub(crate) fn row_budget(self, n: usize) -> usize {
        match self {
            Self::Auto => DEFAULT_TABLE_BUDGET / (n + 1),
            Self::Budget(budget) => budget / (n + 1),
            Self::Table => usize::MAX,
            Self::DivideConquer => 0,
        }
    }
}

/// The backtracking strategy a DP run actually used — the resolution of a
/// [`DpMode`] request against the input size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DpExecMode {
    /// Split points were recovered from a materialized table.
    #[default]
    Table,
    /// Split points were recovered by divide and conquer.
    DivideConquer,
}

/// Options shared by the exact DP entry points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpOptions {
    /// Mergeability policy (§8 gap-tolerant extension).
    pub policy: GapPolicy,
    /// Split-point backtracking mode.
    pub mode: DpMode,
    /// Row minimization strategy.
    pub strategy: DpStrategy,
    /// Thread budget for the row fills; `0` (the default) means the
    /// process-wide default ([`pta_pool::default_threads`], i.e. the
    /// `PTA_THREADS` knob). Every budget produces bit-identical results —
    /// parallelism splits rows into the same per-cell computations the
    /// sequential loop performs (see [`DpEngine::fill_into`]).
    pub threads: usize,
    /// Cooperative cancellation handle, polled at row/window granularity.
    /// The default token is inert (the run can never be interrupted);
    /// arm it with [`CancelToken::new`] / [`CancelToken::with_timeout`]
    /// to make the run abort with [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] carrying partial-progress stats.
    pub cancel: CancelToken,
}

impl DpOptions {
    /// Sets the mergeability policy (§8 gap-tolerant extension).
    #[must_use]
    pub fn with_policy(mut self, policy: GapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the split-point backtracking mode.
    #[must_use]
    pub fn with_mode(mut self, mode: DpMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the row minimization strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: DpStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the thread budget (`0` means the process-wide default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a cancellation handle.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Work counters reported by the DP algorithms; the evaluation uses them to
/// show how gap pruning shrinks the search space, the `dp_memory` bench
/// tracks `peak_rows` as the memory yardstick of the two backtracking
/// modes, and the scan/Monge split of `cells` is the yardstick of the row
/// minimization strategies.
/// `Eq` and derived `Default` are deliberately absent:
/// [`DpStats::certified_ratio`] is an `f64` whose neutral value is `1.0`
/// (an exact run is trivially within every bound), not `0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpStats {
    /// Number of matrix rows filled (`k` values), counting divide-and-
    /// conquer re-fills. On the run-decomposed path: every per-run curve
    /// row plus every row of the per-run cut recovery.
    pub rows: usize,
    /// Number of inner-loop split-point evaluations
    /// (`scan_cells + monge_cells`); on the run-decomposed path this
    /// includes the min-plus candidates of the curve merges.
    pub cells: u64,
    /// Split-point evaluations performed by the quadratic scan (including
    /// linear `k = 1` rows and forced-split cells), plus, on the
    /// run-decomposed path, every min-plus candidate `F(d − x) + E_r(x)`
    /// of the curve merges and every split a merge node scans.
    pub scan_cells: u64,
    /// Cost-oracle evaluations performed by the Monge row-minima engine.
    pub monge_cells: u64,
    /// Peak number of `(n + 1)`-entry rows simultaneously allocated
    /// (error rows plus recorded split-point rows). `c + 2` for the
    /// materialized table; a small constant for divide and conquer; 4 on
    /// the run-decomposed path (see the [module docs](self)).
    pub peak_rows: usize,
    /// Which backtracking mode actually ran. The run-decomposed path
    /// reports [`DpExecMode::DivideConquer`]: it records no split-point
    /// table and recovers each run's cuts by divide and conquer.
    pub mode: DpExecMode,
    /// The row minimization strategy the run was asked for (the naive DP
    /// baseline always records [`DpStrategy::Scan`]).
    pub strategy: DpStrategy,
    /// The resolved thread budget of the run (`>= 1`; the
    /// [`DpOptions::threads`] request with `0` replaced by the
    /// process-wide default). A budget above 1 only changes wall time,
    /// never results or the evaluation counters.
    pub threads: usize,
    /// The *a posteriori* certified approximation ratio: the returned
    /// SSE is at most `certified_ratio` times the exact optimum. Exact
    /// runs report `1.0`; [`DpStrategy::Approx`] runs report the
    /// upper/lower-bracket quotient actually proved (`≤ 1 + ε` on every
    /// completed run) and `f64::INFINITY` when aborted — nothing was
    /// certified.
    pub certified_ratio: f64,
}

impl Default for DpStats {
    fn default() -> Self {
        Self {
            rows: 0,
            cells: 0,
            scan_cells: 0,
            monge_cells: 0,
            peak_rows: 0,
            mode: DpExecMode::default(),
            strategy: DpStrategy::default(),
            threads: 0,
            certified_ratio: 1.0,
        }
    }
}

/// A finished DP run: the optimal reduction plus work counters.
#[derive(Debug, Clone)]
pub struct DpOutcome {
    /// The optimal reduction.
    pub reduction: crate::reduction::Reduction,
    /// Work counters.
    pub stats: DpStats,
}

/// Per-strategy split-point evaluation counters of one or more row fills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cells {
    /// Evaluations by the quadratic scan (and linear `k = 1` rows).
    pub(crate) scan: u64,
    /// Cost-oracle evaluations by the Monge engines.
    pub(crate) monge: u64,
}

impl Cells {
    /// Total split-point evaluations.
    pub(crate) fn total(self) -> u64 {
        self.scan + self.monge
    }
}

impl std::ops::AddAssign for Cells {
    fn add_assign(&mut self, rhs: Self) {
        self.scan += rhs.scan;
        self.monge += rhs.monge;
    }
}

/// Rows filled and split points evaluated by a run so far — across
/// probes, recursion nodes and phases; stamped on aborts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) rows: usize,
    pub(crate) cells: Cells,
}

/// Minimum *estimated* split-point evaluations in one row fill before the
/// fill fans out across the pool. Below it the scoped-spawn cost (tens of
/// microseconds) is comparable to the row itself; rows this small run the
/// sequential loop even under a multi-thread budget.
const PAR_MIN_ROW_WORK: u64 = 1 << 16;

/// Minimum cells per parallel chunk of a scan window — keeps the chunk
/// descriptor overhead negligible relative to per-cell work.
const PAR_MIN_CHUNK_CELLS: usize = 16;

/// Per-worker oversubscription factor of the chunker: more chunks than
/// workers so the atomic-cursor scheduler can balance the early-break
/// scan's data-dependent cell costs.
const PAR_CHUNKS_PER_WORKER: u64 = 4;

/// Minimum *estimated* split-point evaluations in one row window before
/// the sequential solve loop re-polls the cancel token ahead of it. Every
/// row checks at entry regardless; the per-window poll only exists so a
/// huge window (gap-free data: one window spanning the whole row) cannot
/// delay cancellation by a whole row, and gating it on window work keeps
/// gap-rich rows — thousands of tiny windows — free of per-window
/// `Instant::now()` calls (the `bench_dp` overhead gate).
const CANCEL_CHECK_MIN_WORK: u64 = 1 << 12;

/// How one inter-break row window is minimized — recorded by the window
/// walk so windows can be solved out of line, in any order, including on
/// pool workers. All positions are in the fill's (possibly mirrored) view.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WindowTask {
    /// Forced split pinned to break `g` (Fig. 7 lines 13–16); `feasible`
    /// records whether the forced prefix can hold `k − 1` tuples (when
    /// not, the cells stay `∞`).
    Forced { g: usize, feasible: bool },
    /// Break-free candidate range `[jmin, i)`; `engine` is the Monge
    /// dispatch, `None` scans.
    Open { jmin: usize, engine: Option<RowMinEngine> },
}

/// One inter-break window (or, on the parallel path, one chunk of a
/// window) of cells `[ws, we]` awaiting minimization.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowWindow {
    pub(crate) ws: usize,
    pub(crate) we: usize,
    pub(crate) task: WindowTask,
}

impl RowWindow {
    /// Number of cells in the window.
    pub(crate) fn cells(&self) -> usize {
        self.we - self.ws + 1
    }
}

/// One unit of row work: a window (or a parallel chunk of one), the edges
/// of the window it came from, and the output it writes — cell `i` lands
/// at index `i − at` of every value row (`at = 0` for whole rows, the
/// chunk start for a pool job's disjoint slices).
pub(crate) struct Job<'a, const R: usize> {
    w: RowWindow,
    edges: (usize, usize),
    out: [&'a mut [f64]; R],
    jout: Option<&'a mut [usize]>,
    at: usize,
}

impl<const R: usize> Job<'_, R> {
    /// Writes cell `i`'s values and split point.
    #[inline]
    // pta-lint: allow(cancel-coverage) — one store per value row (R ≤ 2)
    // of one cell; the row fill polls.
    pub(crate) fn put(&mut self, i: usize, values: [f64; R], j: usize) {
        for (row, v) in self.out.iter_mut().zip(values) {
            row[i - self.at] = v;
        }
        if let Some(jr) = self.jout.as_deref_mut() {
            jr[i - self.at] = j;
        }
    }
}

/// How the open windows of a row are minimized — the skeleton's second
/// generic axis. `R` is the number of value rows per DP row: 1 for
/// [`Exact`], 2 for the approximate tier's `ub`/`lb` bracket. Forced
/// windows, `k = 1` rows and the Hirschberg midpoint are solver-free.
pub(crate) trait WindowSolver<const R: usize>: Sync + Sized {
    /// `certified_ratio` stamped on an aborted run's progress.
    const ABORT_RATIO: f64 = 1.0;

    /// Estimated evaluations of an open window — the fan-out and
    /// cancel-poll gate, never an exact cost.
    fn open_work(&self, w: &RowWindow, jmin: usize, engine: Option<RowMinEngine>) -> u64;

    /// Estimated evaluations of view cell `i` at `dist` candidates from
    /// its `jmin` — the chunker's balance weight.
    fn cell_work<const M: bool>(&self, eng: &DpEngine, i: usize, dist: usize) -> u64;

    /// Minimizes the open window of `job` into its value rows. The job
    /// arrives by value so its slices stay in registers in the cell loop.
    fn solve_open<const M: bool>(
        &self,
        eng: &DpEngine,
        job: Job<'_, R>,
        prev: &[&[f64]; R],
        jmin: usize,
        engine: Option<RowMinEngine>,
    ) -> Cells;

    /// A finer solver to redo a divide-and-conquer node whose midpoint
    /// came out infinite (`None`: the solver is already exact).
    fn refined(&self) -> Option<Self> {
        None
    }

    /// Estimated evaluations of any window.
    fn work(&self, w: &RowWindow) -> u64 {
        match w.task {
            WindowTask::Forced { .. } => w.cells() as u64,
            WindowTask::Open { jmin, engine } => self.open_work(w, jmin, engine),
        }
    }
}

/// The exact window solver: the Fig. 7 scan, or a Monge engine on a
/// certified window, into one value row.
pub(crate) struct Exact;

impl WindowSolver<1> for Exact {
    /// Assumes the candidate count per cell grows away from `jmin`; Monge
    /// windows are estimated at their SMAWK bound.
    fn open_work(&self, w: &RowWindow, jmin: usize, engine: Option<RowMinEngine>) -> u64 {
        let (a, b) = ((w.ws - jmin) as u64, (w.we - jmin) as u64);
        match engine {
            // SMAWK/D&C evaluate O(rows + cols) oracle entries.
            Some(_) => 4 * (w.cells() as u64 + b),
            None => (a + b) * (b - a + 1) / 2,
        }
    }

    fn cell_work<const M: bool>(&self, _: &DpEngine, _: usize, dist: usize) -> u64 {
        dist as u64
    }

    fn solve_open<const M: bool>(
        &self,
        eng: &DpEngine,
        job: Job<'_, 1>,
        prev: &[&[f64]; 1],
        jmin: usize,
        engine: Option<RowMinEngine>,
    ) -> Cells {
        let prev = prev[0];
        let Job { w, edges, out: [out], mut jout, at } = job;
        let mut cells = Cells::default();
        if let Some(engine) = engine {
            let mut job = Job { w, edges, out: [&mut *out], jout: jout.as_deref_mut(), at };
            let (evals, solved) = eng.monge_window::<M>(engine, &mut job, prev, jmin);
            cells.monge += evals;
            if solved {
                return cells;
            }
        }
        for i in w.ws..=w.we {
            let mut best = f64::INFINITY;
            let mut best_j = jmin;
            // Decreasing j: the range SSE err2 grows monotonically, so
            // once it alone exceeds the best total the loop can stop
            // (Fig. 7 line 24). j ≥ jmin guarantees no break is crossed.
            for j in (jmin..i).rev() {
                cells.scan += 1;
                let err2 = eng.seg::<M>(j, i);
                let total = prev[j] + err2;
                if total < best {
                    best = total;
                    best_j = j;
                }
                if eng.early_break && err2 > best {
                    break;
                }
            }
            out[i - at] = best;
            if let Some(jr) = jout.as_deref_mut() {
                jr[i - at] = best_j;
            }
        }
        cells
    }
}

/// The two alternating DP rows of one fill direction, `R` value rows
/// each, `(n + 1)`-wide and absolute-indexed. After a fill, `prev` holds
/// the newest row.
pub(crate) struct RowPair<const R: usize> {
    prev: [Vec<f64>; R],
    cur: [Vec<f64>; R],
}

impl<const R: usize> RowPair<R> {
    pub(crate) fn new(width: usize) -> Self {
        Self {
            prev: std::array::from_fn(|_| vec![f64::INFINITY; width]),
            cur: std::array::from_fn(|_| vec![f64::INFINITY; width]),
        }
    }

    /// Resets `[lo, hi]` of every row to `∞` — a previous run or
    /// recursion node left stale values there.
    // pta-lint: allow(cancel-coverage) — O(rows) memset with no SSE work;
    // the row fills that follow (DpEngine::fill_into) poll the token.
    fn reset(&mut self, lo: usize, hi: usize) {
        for row in self.prev.iter_mut().chain(&mut self.cur) {
            row[lo..=hi].fill(f64::INFINITY);
        }
    }

    /// The newest row's values at `i`.
    pub(crate) fn at(&self, i: usize) -> [f64; R] {
        std::array::from_fn(|r| self.prev[r][i])
    }
}

/// A forward sweep's buffers: its row pair and the split-point table
/// (`jm`, row-major, one `(n + 1)`-wide row per recorded DP row). The
/// approximate tier keeps one across its probes.
pub(crate) struct SweepBuf<const R: usize> {
    rows: RowPair<R>,
    jm: Vec<usize>,
}

impl<const R: usize> SweepBuf<R> {
    pub(crate) fn new(width: usize) -> Self {
        Self { rows: RowPair::new(width), jm: Vec::new() }
    }
}

/// One completed pass: partition boundaries (prefix lengths,
/// `0` and `n` included), the DP values the pass certifies against (the
/// last row's values at `n`, or the divide-and-conquer root's midpoint
/// minima), and the memory and mode it ran in.
pub(crate) struct Pass<const R: usize> {
    pub(crate) boundaries: Vec<usize>,
    pub(crate) values: [f64; R],
    pub(crate) peak: usize,
    pub(crate) mode: DpExecMode,
}

/// The Hirschberg recursion's state: the cuts found so far, its forward
/// and mirrored row pairs (`4R` rows, the mode's entire extra memory),
/// and the run's tally.
struct DncState<const R: usize> {
    cuts: Vec<usize>,
    fwd: RowPair<R>,
    bwd: RowPair<R>,
    tally: Tally,
}

impl<const R: usize> DncState<R> {
    /// Fresh state for a `pieces`-piece partition of `width − 1` tuples:
    /// the cuts hold the leading `0`.
    fn new(width: usize, pieces: usize, tally: Tally) -> Self {
        let mut cuts = Vec::with_capacity(pieces + 1);
        cuts.push(0);
        Self { cuts, fwd: RowPair::new(width), bwd: RowPair::new(width), tally }
    }
}

/// The largest possible reduction error `SSE_max = SSE(s, ρ(s, cmin))`:
/// every maximal adjacent run merged into a single tuple. Error-bounded
/// PTA expresses its threshold relative to this value (Def. 7).
pub fn max_error(input: &SequentialRelation, weights: &Weights) -> Result<f64, CoreError> {
    max_error_with_policy(input, weights, GapPolicy::Strict)
}

/// [`max_error`] under a mergeability policy: the maximal reduction then
/// collapses each policy-defined run (which may bridge small holes).
pub fn max_error_with_policy(
    input: &SequentialRelation,
    weights: &Weights,
    policy: GapPolicy,
) -> Result<f64, CoreError> {
    weights.check_dims(input.dims())?;
    let stats = PrefixStats::build(input);
    let gaps = GapVector::build_with_policy(input, policy);
    Ok(max_error_over_runs(weights, &stats, &gaps))
}

/// Sum of per-run SSEs where runs are delimited by the gap vector.
pub(crate) fn max_error_over_runs(weights: &Weights, stats: &PrefixStats, gaps: &GapVector) -> f64 {
    let mut total = 0.0;
    for run in gaps.runs() {
        total += stats.range_sse(weights, run);
    }
    total
}

/// Shared DP machinery over one input relation.
pub(crate) struct DpEngine {
    pub(crate) stats: PrefixStats,
    pub(crate) gaps: GapVector,
    pub(crate) weights: Weights,
    pub(crate) n: usize,
    /// Apply the §5.3 `imax`/`jmin` gap pruning (PTAc/PTAε) or not (the
    /// Fig. 18 "DP" baseline).
    pub(crate) prune: bool,
    /// Jagadish et al.'s decreasing-`j` early break (toggleable for the
    /// ablation benchmark).
    pub(crate) early_break: bool,
    /// Row minimization strategy (pruned rows only — the naive baseline
    /// always scans).
    pub(crate) strategy: DpStrategy,
    /// `mono_end[t]` = one past the end of the longest tuple run starting
    /// at `t` whose values are monotone in *every* dimension — the exact
    /// certificate that a window's cost matrix is Monge (see [`monge`]).
    /// Built only when the strategy can use it.
    mono_end: Option<Vec<usize>>,
    /// Thread budget for the row fills (see [`DpOptions::threads`]).
    pub(crate) pool: Pool,
    /// Cancellation handle polled at row entry, between large windows,
    /// and before each parallel chunk (see [`DpOptions::cancel`]).
    pub(crate) cancel: CancelToken,
}

/// One backward pass per dimension: the exclusive end of the maximal
/// per-dimension-monotone run starting at each tuple (a run may be
/// nondecreasing in one dimension and nonincreasing in another —
/// directions are independent, plateaus belong to both).
fn monotone_run_ends(input: &SequentialRelation) -> Vec<usize> {
    let n = input.len();
    let mut mono = vec![n; n];
    if n == 0 {
        return mono;
    }
    for d in 0..input.dims() {
        let mut asc_end = n;
        let mut desc_end = n;
        for t in (0..n - 1).rev() {
            let (a, b) = (input.value(t, d), input.value(t + 1, d));
            if b < a {
                asc_end = t + 1;
            }
            if b > a {
                desc_end = t + 1;
            }
            let run = asc_end.max(desc_end);
            if run < mono[t] {
                mono[t] = run;
            }
        }
    }
    mono
}

impl DpEngine {
    /// Builds the engine for `opts`' policy, strategy, threads and cancel
    /// token; `prune = false` is the Fig. 18 baseline, `early_break =
    /// false` the ablation.
    pub(crate) fn new(
        input: &SequentialRelation,
        weights: &Weights,
        opts: &DpOptions,
        prune: bool,
        early_break: bool,
    ) -> Result<Self, CoreError> {
        weights.check_dims(input.dims())?;
        // The unpruned Fig. 18 baseline measures the plain recurrence;
        // Monge minimization would change what it benchmarks.
        let strategy = if prune { opts.strategy } else { DpStrategy::Scan };
        // Only the Monge strategies consume the certificate.
        let mono_end = matches!(strategy, DpStrategy::Monge | DpStrategy::Auto)
            .then(|| monotone_run_ends(input));
        Ok(Self {
            stats: PrefixStats::build(input),
            gaps: GapVector::build_with_policy(input, opts.policy),
            weights: weights.clone(),
            n: input.len(),
            prune,
            early_break,
            strategy,
            mono_end,
            pool: Pool::new(opts.threads),
            cancel: opts.cancel.clone(),
        })
    }

    /// The approximation budget when the run takes the stride-grid tier
    /// (`ε > 0`); `Approx(0)` runs the exact path.
    pub(crate) fn approx_eps(&self) -> Option<f64> {
        self.strategy.eps().filter(|&eps| eps > 0.0)
    }

    /// Assembles the `DpStats` of every pass and abort.
    pub(crate) fn stats(
        &self,
        t: Tally,
        peak_rows: usize,
        mode: DpExecMode,
        ratio: f64,
    ) -> DpStats {
        DpStats {
            rows: t.rows,
            cells: t.cells.total(),
            scan_cells: t.cells.scan,
            monge_cells: t.cells.monge,
            peak_rows,
            mode,
            strategy: self.strategy,
            threads: self.pool.threads(),
            certified_ratio: ratio,
        }
    }

    /// Stamps a run's progress on a cancellation error.
    fn stamp<const R: usize, S: WindowSolver<R>>(
        &self,
        e: CoreError,
        t: &Tally,
        peak_rows: usize,
        mode: DpExecMode,
    ) -> CoreError {
        e.with_dp_progress(self.stats(*t, peak_rows, mode, S::ABORT_RATIO))
    }

    /// The original position of view position `i`.
    #[inline]
    pub(crate) fn pos<const M: bool>(&self, i: usize) -> usize {
        if M {
            self.n - i
        } else {
            i
        }
    }

    /// SSE of merging view range `j..i` (`j < i`) into one tuple, with no
    /// break check — the original range `n − i..n − j` when mirrored.
    #[inline]
    pub(crate) fn seg<const M: bool>(&self, j: usize, i: usize) -> f64 {
        let r = if M { self.n - i..self.n - j } else { j..i };
        self.stats.range_sse(&self.weights, r)
    }

    /// [`DpEngine::seg`], or `∞` when the range crosses a break.
    #[inline]
    pub(crate) fn cost<const M: bool>(&self, j: usize, i: usize) -> f64 {
        let (a, b) = if M { (self.n - i, self.n - j) } else { (j, i) };
        if self.gaps.range_crosses_break(a, b) {
            f64::INFINITY
        } else {
            self.stats.range_sse(&self.weights, a..b)
        }
    }

    /// Number of breaks at view positions `< x`, or `≤ x` when
    /// `inclusive`.
    #[inline]
    fn breaks_before<const M: bool>(&self, x: usize, inclusive: bool) -> usize {
        let b = self.gaps.breaks();
        if M {
            // View break n − g ≤ x ⟺ g ≥ n − x; n − g < x ⟺ g > n − x.
            let y = self.n - x;
            b.len() - b.partition_point(|&g| if inclusive { g < y } else { g <= y })
        } else {
            b.partition_point(|&g| if inclusive { g <= x } else { g < x })
        }
    }

    /// The `t`-th break in ascending view order.
    #[inline]
    fn view_break<const M: bool>(&self, t: usize) -> Option<usize> {
        let b = self.gaps.breaks();
        if M {
            (t < b.len()).then(|| self.n - b[b.len() - 1 - t])
        } else {
            b.get(t).copied()
        }
    }

    /// Whether the view range `[lo, hi)` carries the Monge certificate:
    /// values monotone in every dimension, so the window's cost matrix
    /// provably satisfies the quadrangle inequality (see [`monge`]).
    #[inline]
    fn monotone_span<const M: bool>(&self, lo: usize, hi: usize) -> bool {
        let (a, b) = if M { (self.n - hi, self.n - lo) } else { (lo, hi) };
        self.mono_end.as_ref().is_some_and(|mono| b <= mono[a])
    }

    /// Whether a non-forced window of the given extent runs a Monge
    /// engine under this engine's strategy — and which one: SMAWK for
    /// wide windows, the allocation-free divide-and-conquer fallback for
    /// windows below [`MONGE_AUTO_MIN_WINDOW`] (only reachable when
    /// [`DpStrategy::Monge`] is pinned). `mono` is the window's Monge
    /// certificate; without it every strategy scans — exactness first.
    #[inline]
    fn window_engine(&self, mono: bool, rows: usize, cols: usize) -> Option<RowMinEngine> {
        if !mono {
            return None;
        }
        let wide = rows >= MONGE_AUTO_MIN_WINDOW && cols >= MONGE_AUTO_MIN_WINDOW;
        match self.strategy {
            DpStrategy::Monge => {
                Some(if wide { RowMinEngine::Smawk } else { RowMinEngine::DivideConquer })
            }
            DpStrategy::Auto => wide.then_some(RowMinEngine::Smawk),
            // Approx windows solve their own sparse grid.
            DpStrategy::Scan | DpStrategy::Approx(_) => None,
        }
    }

    /// The row skeleton: fills row `k` of the subproblem "partition view
    /// tuples `span = lo..hi`" into `cur`, reading row `k − 1` from
    /// `prev` (one slice per value row of solver `s`). For every view
    /// prefix length `i` in the row's *window* `lo + k ..= imax(k)`,
    /// `cur[i]` becomes the smallest SSE of reducing view tuples `lo..i`
    /// to `k` tuples — with `MIRROR`, the suffix `n − i..n − lo` of the
    /// original input. Rows are full-width and absolute-indexed; only the
    /// window is reset (to `∞`) and written, so a row costs `O(window)`.
    /// Callers must hand in rows whose `[lo..=hi]` slice was
    /// `∞`-initialized before row 1 and alternate `prev`/`cur` between
    /// consecutive rows; positions outside every window then stay `∞`.
    /// When `jrow` is given, records the best split point per cell.
    ///
    /// The row polls the engine's [`CancelToken`] at entry, ahead of every
    /// window whose estimated work exceeds [`CANCEL_CHECK_MIN_WORK`], and
    /// once per parallel chunk. An aborted row leaves `cur` unspecified.
    /// Parallel chunks never share cells and each cell's scan state is
    /// local, so every thread budget yields bit-identical rows, and the
    /// counters are summed in window order.
    pub(crate) fn fill_into<const M: bool, const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        k: usize,
        span: Range<usize>,
        prev: [&[f64]; R],
        mut cur: [&mut [f64]; R],
        mut jrow: Option<&mut [usize]>,
    ) -> Result<Cells, CoreError> {
        let (lo, hi) = (span.start, span.end);
        debug_assert!(k >= 1 && lo <= hi && hi <= self.n);
        fail_point!("dp.fill_row", |msg: String| Err(CoreError::Panic { message: msg }));
        self.cancel.check()?;
        let imax = if self.prune { self.imax_within::<M>(k, lo, hi) } else { hi };
        if lo + k > imax {
            return Ok(Cells::default());
        }
        for row in cur.iter_mut() {
            row[lo + k..=imax].fill(f64::INFINITY);
        }
        if k == 1 || !self.prune {
            // One window spans the row: a single piece (k = 1), or the
            // unpruned baseline's scan with per-pair break checks.
            let task = WindowTask::Open { jmin: lo + k - 1, engine: None };
            let w = RowWindow { ws: lo + k, we: imax, task };
            let mut job = Job { w, edges: (w.ws, w.we), out: cur, jout: jrow, at: 0 };
            if k > 1 {
                return Ok(self.naive_row::<M, R>(&mut job, &prev));
            }
            // First row: the whole (sub)prefix merges into one tuple.
            for i in w.ws..=w.we {
                job.put(i, [self.cost::<M>(lo, i); R], lo);
            }
            return Ok(Cells { scan: (imax - lo) as u64, monge: 0 });
        }
        let windows = self.collect_windows::<M>(k, lo, imax);
        let work: u64 = windows.iter().map(|w| s.work(w)).sum();
        if self.pool.threads() > 1 && !pta_pool::in_worker() && work >= PAR_MIN_ROW_WORK {
            return self.fill_par::<M, R, S>(s, &windows, work, &prev, cur, jrow);
        }
        let mut cells = Cells::default();
        for &w in &windows {
            if s.work(&w) >= CANCEL_CHECK_MIN_WORK {
                self.cancel.check()?;
            }
            let out = cur.each_mut().map(|r| &mut **r);
            let job = Job { w, edges: (w.ws, w.we), out, jout: jrow.as_deref_mut(), at: 0 };
            cells += self.solve::<M, R, S>(s, job, &prev);
        }
        Ok(cells)
    }

    /// [`DpEngine::fill_into`] over a row pair, which then holds row `k`
    /// as its `prev`.
    pub(crate) fn fill_row<const M: bool, const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        k: usize,
        span: Range<usize>,
        rows: &mut RowPair<R>,
        jrow: Option<&mut [usize]>,
    ) -> Result<Cells, CoreError> {
        let RowPair { prev, cur } = rows;
        let cells = self.fill_into::<M, R, S>(
            s,
            k,
            span,
            prev.each_ref().map(|r| &r[..]),
            cur.each_mut().map(|r| &mut r[..]),
            jrow,
        )?;
        std::mem::swap(prev, cur);
        Ok(cells)
    }

    /// Fig. 18 naive baseline: every candidate of every cell, with the
    /// per-pair crossing check folded into the cost (exact solver only).
    // pta-lint: allow(cancel-coverage) — one row; its caller
    // DpEngine::fill_into polls the token at row entry.
    fn naive_row<const M: bool, const R: usize>(
        &self,
        job: &mut Job<'_, R>,
        prev: &[&[f64]; R],
    ) -> Cells {
        debug_assert_eq!(R, 1, "the naive baseline runs the exact solver");
        let floor = job.w.ws - 1;
        let mut scan = 0;
        for i in job.w.ws..=job.w.we {
            let mut best = f64::INFINITY;
            let mut best_j = floor;
            for j in (floor..i).rev() {
                scan += 1;
                let err2 = self.cost::<M>(j, i);
                let total = prev[0][j] + err2;
                if total < best {
                    best = total;
                    best_j = j;
                }
                if self.early_break && err2 > best {
                    break;
                }
            }
            job.put(i, [best; R], best_j);
        }
        Cells { scan, monge: 0 }
    }

    /// The longest view prefix of `lo..hi` reducible to `k ≥ 1` tuples —
    /// mirrored, the shortest original suffix.
    fn imax_within<const M: bool>(&self, k: usize, lo: usize, hi: usize) -> usize {
        let n = self.n;
        if M {
            n - self.gaps.imin_within(k, n - hi, n - lo)
        } else {
            self.gaps.imax_within(k, lo, hi)
        }
    }

    /// Window walk: records each inter-break window of `[lo + k, imax]`
    /// with its minimization task. All cells `i` in `(g, g']` between
    /// consecutive breaks share the rightmost break below, the number of
    /// breaks forcing cuts, and a break-free candidate range.
    fn collect_windows<const M: bool>(&self, k: usize, lo: usize, imax: usize) -> Vec<RowWindow> {
        let floor = lo + k - 1;
        let base = self.breaks_before::<M>(lo, true);
        let mut windows = Vec::new();
        let mut ws = lo + k;
        // Breaks below `ws`: each window but the last ends on a break, so
        // the next window has exactly one more below it.
        let mut bidx = self.breaks_before::<M>(ws, false);
        while ws <= imax {
            let g_below = if bidx > base { self.view_break::<M>(bidx - 1) } else { None };
            let we = match self.view_break::<M>(bidx) {
                Some(g) if g < imax => g,
                _ => imax,
            };
            let task = match g_below.filter(|_| bidx - base == k - 1) {
                // Forced split: the prefix has exactly k − 1 internal
                // breaks, so every cut is pinned to the rightmost break
                // (Fig. 7 lines 13–16). g < floor means the forced prefix
                // cannot hold k − 1 tuples: the cells are infeasible and
                // must stay ∞ (prev[g] may hold a stale older row outside
                // row k − 1's window).
                Some(g) => WindowTask::Forced { g, feasible: g >= floor },
                None => {
                    let jmin = g_below.map_or(floor, |g| g.max(floor));
                    debug_assert!(jmin < ws, "every window cell has at least one candidate");
                    let mono = self.monotone_span::<M>(jmin, we);
                    WindowTask::Open {
                        jmin,
                        engine: self.window_engine(mono, we - ws + 1, we - jmin),
                    }
                }
            };
            windows.push(RowWindow { ws, we, task });
            ws = we + 1;
            bidx += 1;
        }
        windows
    }

    /// Solves one window or chunk: forced windows here, open ones by the
    /// solver.
    fn solve<const M: bool, const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        mut job: Job<'_, R>,
        prev: &[&[f64]; R],
    ) -> Cells {
        match job.w.task {
            WindowTask::Forced { g, feasible } => {
                if feasible {
                    for i in job.w.ws..=job.w.we {
                        let err2 = self.seg::<M>(g, i);
                        job.put(i, std::array::from_fn(|r| prev[r][g] + err2), g);
                    }
                }
                Cells { scan: job.w.cells() as u64, monge: 0 }
            }
            WindowTask::Open { jmin, engine } => s.solve_open::<M>(self, job, prev, jmin, engine),
        }
    }

    /// Refines a row's windows into parallel chunks: open scan windows
    /// above the per-chunk work target split into cell ranges — each chunk
    /// keeps its window's task and edges, so its cells are solved exactly
    /// as sequentially — while forced and Monge windows stay whole. Chunks
    /// are balanced by the solver's per-cell estimate.
    fn chunk_windows<const M: bool, const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        windows: &[RowWindow],
        work: u64,
    ) -> Vec<(RowWindow, (usize, usize))> {
        let target = (work / (self.pool.threads() as u64 * PAR_CHUNKS_PER_WORKER)).max(1);
        let mut chunks = Vec::new();
        for &w in windows {
            let edges = (w.ws, w.we);
            let WindowTask::Open { jmin, engine: None } = w.task else {
                chunks.push((w, edges));
                continue;
            };
            if s.work(&w) <= target || w.cells() < 2 * PAR_MIN_CHUNK_CELLS {
                chunks.push((w, edges));
                continue;
            }
            let mut cs = w.ws;
            let mut acc = 0u64;
            for i in w.ws..=w.we {
                acc += s.cell_work::<M>(self, i, i - jmin);
                if acc >= target && i < w.we && i + 1 - cs >= PAR_MIN_CHUNK_CELLS {
                    chunks.push((RowWindow { ws: cs, we: i, ..w }, edges));
                    cs = i + 1;
                    acc = 0;
                }
            }
            chunks.push((RowWindow { ws: cs, ..w }, edges));
        }
        chunks
    }

    /// Fans one row's windows out across the pool: chunks them, tiles the
    /// row region (and `jrow`) into disjoint per-chunk slices in window
    /// order, and solves every chunk with the sequential per-cell code.
    /// Each chunk polls the cancel token first; the first error in window
    /// order wins.
    fn fill_par<const M: bool, const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        windows: &[RowWindow],
        work: u64,
        prev: &[&[f64]; R],
        cur: [&mut [f64]; R],
        jrow: Option<&mut [usize]>,
    ) -> Result<Cells, CoreError> {
        let (first, last) = (windows[0].ws, windows[windows.len() - 1].we);
        let mut tails = cur.map(|r| &mut r[first..=last]);
        let mut jtail = jrow.map(|j| &mut j[first..=last]);
        let chunks = self.chunk_windows::<M, R, S>(s, windows, work);
        let mut jobs = Vec::with_capacity(chunks.len());
        for (w, edges) in chunks {
            let out = tails.each_mut().map(|t| {
                let (head, rest) = std::mem::take(t).split_at_mut(w.cells());
                *t = rest;
                head
            });
            let jout = jtail.take().map(|j| {
                let (head, rest) = j.split_at_mut(w.cells());
                jtail = Some(rest);
                head
            });
            jobs.push(Job { w, edges, out, jout, at: w.ws });
        }
        debug_assert!(tails.iter().all(|t| t.is_empty()), "chunks must tile the row exactly");
        let results: Vec<Result<Cells, CoreError>> = self.pool.map(jobs, |job| {
            self.cancel.check()?;
            Ok(self.solve::<M, R, S>(s, job, prev))
        });
        let mut cells = Cells::default();
        for c in results {
            cells += c?;
        }
        Ok(cells)
    }

    /// Solves an open window by Monge row minimization over candidates
    /// `[jmin, i)`. All candidates are break-free and `prev` is finite on
    /// the whole column range; invalid cells get the exact graded pad.
    /// The engine always sees the window in the *original* orientation —
    /// SMAWK's evaluation order is not invariant under reversal, so a
    /// mirrored window keeps the suffix fill's evaluations and its
    /// preference for the smallest original split (the view's largest).
    /// Returns the evaluation count and whether the window was solved —
    /// `false` (caller must scan) when the magnitude certificate or the
    /// debug QI sample rejects the window, or a pad won a row.
    // Out of line: the rare Monge path must not crowd the registers of
    // the scan it falls back to (measured on the forward scan).
    #[inline(never)]
    // pta-lint: allow(cancel-coverage) — one window; its caller
    // DpEngine::fill_into polls the token ahead of large windows.
    fn monge_window<const M: bool>(
        &self,
        engine: RowMinEngine,
        job: &mut Job<'_, 1>,
        prev: &[f64],
        jmin: usize,
    ) -> (u64, bool) {
        let (ws, we, n) = (job.w.ws, job.w.we, self.n);
        // Magnitude certificate: every oracle entry is bounded by the
        // window-spanning segment's SSE plus the largest `prev` on the
        // column range (monotone rows, so sampling both ends suffices up
        // to fp noise — hence the 2³⁰ margin).
        let bound = prev[jmin].max(prev[we - 1]) + self.seg::<M>(jmin, we);
        if !monge::pads_dominate(bound) {
            return (0, false);
        }
        let (rows, cols) = if M {
            ((n - we)..=(n - ws), (n - we + 1)..=(n - jmin))
        } else {
            (ws..=we, jmin..=(we - 1))
        };
        let oracle = |i: usize, j: usize| match (M, i.cmp(&j)) {
            (true, std::cmp::Ordering::Less) => {
                self.stats.range_sse(&self.weights, i..j) + prev[n - j]
            }
            (false, std::cmp::Ordering::Greater) => {
                prev[j] + self.stats.range_sse(&self.weights, j..i)
            }
            _ => monge::pad(i.abs_diff(j)),
        };
        // Data-dependent, not a bug: mixed magnitudes can break the
        // computed QI by more than rounding ulps. Fall back to the scan.
        #[cfg(debug_assertions)]
        if monge::validate_qi(oracle, rows.clone(), cols.clone(), 4, 1e-9).is_some() {
            return (0, false);
        }
        let minima = monge::window_minima(engine, oracle, rows.clone(), cols, !M);
        if !minima.values.iter().all(|v| *v < monge::pad_floor()) {
            debug_assert!(
                false,
                "pad won a cell in [{ws}, {we}] despite the magnitude certificate"
            );
            return (minima.evals, false);
        }
        for (r, (&v, &j)) in minima.values.iter().zip(&minima.argmins).enumerate() {
            job.put(self.pos::<M>(rows.start() + r), [v], self.pos::<M>(j));
        }
        (minima.evals, true)
    }

    /// Reconstructs the partition boundaries from the split-point matrix:
    /// rows `1..=k`, each of width `n + 1`, flattened row-major.
    pub(crate) fn backtrack(&self, jm: &[usize], k: usize) -> Vec<usize> {
        let width = self.n + 1;
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(self.n);
        let mut i = self.n;
        for kk in (1..=k).rev() {
            let j = jm[(kk - 1) * width + i];
            debug_assert!(j < i, "split point must shrink the prefix");
            bounds.push(j);
            i = j;
        }
        debug_assert_eq!(i, 0, "backtrack must consume the whole prefix");
        bounds.reverse();
        bounds
    }

    /// The forward sweep every pass runs: rows `1..=kmax` over the whole
    /// input into `buf.rows`, recording split points into `buf.jm` for the
    /// first `record` rows (growing it as needed), and stopping after the
    /// first row whose values at `n` satisfy `stop`. Returns that row, or
    /// 0 when no row stopped the sweep.
    // pta-lint: allow(cancel-coverage) — each row goes through
    // DpEngine::fill_into, which polls the token once per row.
    pub(crate) fn sweep<const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        kmax: usize,
        record: usize,
        buf: &mut SweepBuf<R>,
        tally: &mut Tally,
        mut stop: impl FnMut([f64; R]) -> bool,
    ) -> Result<usize, CoreError> {
        let width = self.n + 1;
        buf.rows.reset(0, self.n);
        for k in 1..=kmax {
            let jrow = if k <= record {
                if buf.jm.len() < k * width {
                    buf.jm.resize(k * width, 0);
                }
                Some(&mut buf.jm[(k - 1) * width..k * width])
            } else {
                None
            };
            let cells = self
                .fill_row::<false, R, S>(s, k, 0..self.n, &mut buf.rows, jrow)
                .map_err(|e| {
                    self.stamp::<R, S>(e, tally, buf.jm.len() / width + 2 * R, DpExecMode::Table)
                })?;
            tally.cells += cells;
            tally.rows += 1;
            if stop(buf.rows.at(self.n)) {
                return Ok(k);
            }
        }
        Ok(0)
    }

    /// `PTAc` in either mode: the materialized table (`c + 2R` rows) or
    /// divide and conquer (`4R` rows).
    pub(crate) fn size_pass<const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        c: usize,
        table: bool,
        buf: &mut SweepBuf<R>,
        tally: &mut Tally,
    ) -> Result<Pass<R>, CoreError> {
        if !table {
            return self.dnc_pass(s, c, 4 * R, tally);
        }
        if buf.jm.len() < c * (self.n + 1) {
            buf.jm = vec![0; c * (self.n + 1)];
        }
        self.sweep(s, c, c, buf, tally, |_| false)?;
        Ok(Pass {
            boundaries: self.backtrack(&buf.jm, c),
            values: buf.rows.at(self.n),
            peak: c + 2 * R,
            mode: DpExecMode::Table,
        })
    }

    /// `PTAε` (Fig. 8): rows until the first value row satisfies
    /// `threshold` at `n`. Split-point rows are recorded while within
    /// `row_budget`; a satisfying row beyond it is recovered by divide and
    /// conquer after the search table is freed. The pass values are the
    /// satisfying row's.
    pub(crate) fn error_pass<const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        threshold: f64,
        row_budget: usize,
        buf: &mut SweepBuf<R>,
        tally: &mut Tally,
    ) -> Result<Pass<R>, CoreError> {
        buf.jm.clear();
        let found = self.sweep(s, self.n, row_budget, buf, tally, |v| v[0] <= threshold)?;
        // With finite inputs E[n][n] = 0 satisfies every valid threshold,
        // so this is reachable only when a non-finite value poisoned the
        // threshold or the rows.
        if found == 0 {
            return Err(CoreError::non_finite_data(
                "error-bounded DP finished without any row satisfying the bound",
            ));
        }
        let values = buf.rows.at(self.n);
        let peak = found.min(row_budget) + 2 * R;
        if found <= row_budget {
            let boundaries = self.backtrack(&buf.jm, found);
            return Ok(Pass { boundaries, values, peak, mode: DpExecMode::Table });
        }
        buf.jm = Vec::new();
        Ok(Pass { values, ..self.dnc_pass(s, found, peak.max(4 * R), tally)? })
    }

    /// Recovers a `c`-piece partition of the whole input with `O(n)`
    /// memory: Hirschberg-style divide and conquer over forward and
    /// mirrored rows. Requires `1 ≤ c ≤ n` and `c ≥ cmin`.
    pub(crate) fn dnc_pass<const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        c: usize,
        peak: usize,
        tally: &mut Tally,
    ) -> Result<Pass<R>, CoreError> {
        debug_assert!(c >= 1 && c <= self.n);
        let mut st = DncState::new(self.n + 1, c, *tally);
        let res = self.dnc(s, 0, self.n, c, &mut st);
        *tally = st.tally;
        let values =
            res.map_err(|e| self.stamp::<R, S>(e, tally, peak, DpExecMode::DivideConquer))?;
        st.cuts.push(self.n);
        debug_assert_eq!(st.cuts.len(), c + 1);
        Ok(Pass { boundaries: st.cuts, values, peak, mode: DpExecMode::DivideConquer })
    }

    /// Appends the internal cuts of a `c`-piece partition of tuples
    /// `lo..hi` to the state's cuts (in increasing order) and returns the
    /// node's midpoint minima — for `c = 1` the single range SSE.
    fn dnc<const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        lo: usize,
        hi: usize,
        c: usize,
        st: &mut DncState<R>,
    ) -> Result<[f64; R], CoreError> {
        debug_assert!(c >= 1 && hi - lo >= c);
        if c == 1 {
            return Ok([self.cost::<false>(lo, hi); R]);
        }
        if hi - lo == c {
            // Every tuple its own piece: all cuts are forced, SSE 0.
            st.cuts.extend(lo + 1..hi);
            return Ok([0.0; R]);
        }
        let k_left = c / 2;
        let (mut best, mut mid) = self.dnc_node(s, lo, hi, k_left, c - k_left, st)?;
        if !best[0].is_finite() {
            // A sparse solver can miss a feasible midpoint range narrower
            // than one stride; redo just this node's rows with the finer
            // solver — the children still recurse with `s`.
            if let Some(fine) = s.refined() {
                (best, mid) = self.dnc_node(&fine, lo, hi, k_left, c - k_left, st)?;
            }
        }
        debug_assert!(best[0].is_finite(), "feasible subproblem must yield a finite midpoint");
        // The children overwrite the scratch rows; this node only needs
        // `mid` from here on, so peak memory stays at 4R rows.
        self.dnc(s, lo, mid, k_left, st)?;
        st.cuts.push(mid);
        self.dnc(s, mid, hi, c - k_left, st)?;
        Ok(best)
    }

    /// One node's row fills and midpoint scan: `k_left` forward rows over
    /// `lo..hi` and `k_right` mirrored rows over the same tuples, then the
    /// midpoint `i` minimizing `F[i] + B[i]` in value row 0 (first on
    /// ties) and the per-row minima.
    // pta-lint: allow(cancel-coverage) — every row fill in the recursion
    // polls the token inside fill_into.
    fn dnc_node<const R: usize, S: WindowSolver<R>>(
        &self,
        s: &S,
        lo: usize,
        hi: usize,
        k_left: usize,
        k_right: usize,
        st: &mut DncState<R>,
    ) -> Result<([f64; R], usize), CoreError> {
        let n = self.n;
        st.fwd.reset(lo, hi);
        st.bwd.reset(n - hi, n - lo);
        for k in 1..=k_left {
            st.tally.cells += self.fill_row::<false, R, S>(s, k, lo..hi, &mut st.fwd, None)?;
        }
        for k in 1..=k_right {
            st.tally.cells +=
                self.fill_row::<true, R, S>(s, k, n - hi..n - lo, &mut st.bwd, None)?;
        }
        st.tally.rows += k_left + k_right;
        let mut best = [f64::INFINITY; R];
        let mut mid = 0;
        for i in (lo + k_left)..=(hi - k_right) {
            let (f, b) = (st.fwd.at(i), st.bwd.at(n - i));
            for r in 0..R {
                let total = f[r] + b[r];
                if total < best[r] {
                    best[r] = total;
                    if r == 0 {
                        mid = i;
                    }
                }
            }
        }
        Ok((best, mid))
    }
}

/// Support for the benches: a single forward row fill over a prebuilt
/// engine (`dp_row`, `parallel`) and the early-break ablation target.
/// Hidden — not a public API and exempt from semver hygiene.
#[doc(hidden)]
pub mod bench_support {
    use super::*;

    /// `PTAc` without the Jagadish early break — the ablation bench's
    /// target; always produces the same reduction, strictly more slowly
    /// on most data. Pins [`DpStrategy::Scan`]: the early break is a
    /// scan-path acceleration, so the ablation holds the row minimizer
    /// fixed.
    pub fn size_bounded_no_early_break(
        input: &SequentialRelation,
        weights: &Weights,
        c: usize,
    ) -> Result<DpOutcome, CoreError> {
        let opts = DpOptions::default().with_strategy(DpStrategy::Scan);
        size_bounded::run(input, weights, c, true, &opts, false)
    }

    /// One-row-fill harness over a prebuilt DP engine.
    pub struct RowFill {
        engine: DpEngine,
    }

    impl RowFill {
        /// Builds the engine (prefix stats + gap vector) once, pinned to
        /// one thread — the `dp_row` bench measures the sequential inner
        /// loops. Use [`RowFill::with_threads`] to measure fan-out.
        pub fn new(
            input: &SequentialRelation,
            weights: &Weights,
            strategy: DpStrategy,
        ) -> Result<Self, CoreError> {
            Self::with_threads(input, weights, strategy, 1)
        }

        /// [`RowFill::new`] with an explicit thread budget (`0` = the
        /// process default) — the `parallel` bench's scaling knob.
        pub fn with_threads(
            input: &SequentialRelation,
            weights: &Weights,
            strategy: DpStrategy,
            threads: usize,
        ) -> Result<Self, CoreError> {
            let opts = DpOptions::default().with_strategy(strategy).with_threads(threads);
            Ok(Self { engine: DpEngine::new(input, weights, &opts, true, true)? })
        }

        /// Arms the harness with a cancellation token — the `bench_dp`
        /// cancellation-overhead gate fills rows under a far-future
        /// deadline token that never fires and compares against the
        /// inert default.
        pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
            self.engine.cancel = cancel;
            self
        }

        /// Row-buffer width (`n + 1`).
        pub fn width(&self) -> usize {
            self.engine.n + 1
        }

        /// Forward DP row `k ≥ 1`, computed from scratch — use as the
        /// `prev` input of [`RowFill::fill`].
        // pta-lint: allow(cancel-coverage) — bench harness: the engine's
        // token is inert by construction, rows are filled uncancellably.
        pub fn row(&self, k: usize) -> Vec<f64> {
            let mut rows = RowPair::<1>::new(self.width());
            for kk in 1..=k {
                #[expect(clippy::expect_used, reason = "harness token is inert")]
                self.engine
                    .fill_row::<false, 1, Exact>(&Exact, kk, 0..self.engine.n, &mut rows, None)
                    .expect("bench harness tokens never fire");
            }
            let [row] = rows.prev;
            row
        }

        /// Fills row `k` reading row `k − 1` from `prev`; returns the
        /// split-point evaluation count.
        #[expect(clippy::expect_used, reason = "harness token is inert")]
        pub fn fill(&self, k: usize, prev: &[f64], cur: &mut [f64]) -> u64 {
            self.engine
                .fill_into::<false, 1, Exact>(&Exact, k, 0..self.engine.n, [prev], [cur], None)
                .expect("bench harness tokens never fire")
                .total()
        }
    }
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};

    pub(crate) fn fig1c() -> SequentialRelation {
        let mut b = SequentialBuilder::new(1);
        let rows = [
            ("A", 1, 2, 800.0),
            ("A", 3, 3, 600.0),
            ("A", 4, 4, 500.0),
            ("A", 5, 6, 350.0),
            ("A", 7, 7, 300.0),
            ("B", 4, 5, 500.0),
            ("B", 7, 8, 500.0),
        ];
        for (g, a, bb, v) in rows {
            b.push(GroupKey::new(vec![Value::str(g)]), TimeInterval::new(a, bb).unwrap(), &[v])
                .unwrap();
        }
        b.build()
    }

    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// A gap-free *monotone* continuous-valued series (a noisy ascending
    /// trend — one Monge-certified run) long enough that
    /// [`DpStrategy::Auto`] takes the SMAWK path.
    pub(crate) fn trend_series(n: usize, seed: u64) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(1);
        let mut v = 0.0;
        for t in 0..n {
            v += lcg(&mut state);
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
        }
        b.build()
    }

    /// A gap-free *unsorted* series — no Monge certificate anywhere, so
    /// every strategy must take the scan path.
    pub(crate) fn wiggly_series(n: usize, seed: u64) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(1);
        for t in 0..n {
            let v = lcg(&mut state);
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
        }
        b.build()
    }

    fn engine_with(input: &SequentialRelation, prune: bool, strategy: DpStrategy) -> DpEngine {
        let w = Weights::uniform(input.dims());
        let opts = DpOptions::default().with_strategy(strategy).with_threads(1);
        DpEngine::new(input, &w, &opts, prune, true).unwrap()
    }

    fn engine_threads(input: &SequentialRelation, threads: usize) -> DpEngine {
        let w = Weights::uniform(input.dims());
        DpEngine::new(input, &w, &DpOptions::default().with_threads(threads), true, true).unwrap()
    }

    /// Forward (`M = false`) or mirrored (`M = true`) exact row `k` over
    /// the whole input.
    fn row<const M: bool>(
        engine: &DpEngine,
        k: usize,
        prev: &[f64],
        cur: &mut [f64],
        jrow: Option<&mut [usize]>,
    ) -> Cells {
        engine.fill_into::<M, 1, Exact>(&Exact, k, 0..engine.n, [prev], [cur], jrow).unwrap()
    }

    /// Fills the full error matrix (rows 1..=kmax) for tests.
    fn full_matrix_strategy(
        input: &SequentialRelation,
        kmax: usize,
        prune: bool,
        strategy: DpStrategy,
    ) -> Vec<Vec<f64>> {
        let engine = engine_with(input, prune, strategy);
        let n = input.len();
        let mut prev = vec![f64::INFINITY; n + 1];
        prev[0] = 0.0;
        let mut rows = Vec::new();
        for k in 1..=kmax {
            let mut cur = vec![f64::INFINITY; n + 1];
            row::<false>(&engine, k, &prev, &mut cur, None);
            rows.push(cur.clone());
            prev = cur;
        }
        rows
    }

    fn full_matrix(input: &SequentialRelation, kmax: usize, prune: bool) -> Vec<Vec<f64>> {
        full_matrix_strategy(input, kmax, prune, DpStrategy::Auto)
    }

    /// Fills the full *suffix* error matrix (rows 1..=kmax) for tests from
    /// mirrored rows: `rows[k − 1][i]` = optimal SSE of tuples `i..n` in
    /// `k` pieces, read at view cell `n − i`.
    fn full_matrix_bwd_strategy(
        input: &SequentialRelation,
        kmax: usize,
        prune: bool,
        strategy: DpStrategy,
    ) -> Vec<Vec<f64>> {
        let engine = engine_with(input, prune, strategy);
        let n = input.len();
        let mut prev = vec![f64::INFINITY; n + 1];
        let mut rows = Vec::new();
        for k in 1..=kmax {
            let mut cur = vec![f64::INFINITY; n + 1];
            row::<true>(&engine, k, &prev, &mut cur, None);
            rows.push((0..=n).map(|i| cur[n - i]).collect());
            prev = cur;
        }
        rows
    }

    fn full_matrix_bwd(input: &SequentialRelation, kmax: usize, prune: bool) -> Vec<Vec<f64>> {
        full_matrix_bwd_strategy(input, kmax, prune, DpStrategy::Auto)
    }

    /// Fig. 4: the error matrix of the running example (values printed
    /// truncated in the paper; we verify to within 1.0).
    #[test]
    fn fig_4_error_matrix() {
        let input = fig1c();
        let inf = f64::INFINITY;
        let expected = [
            vec![0.0, 26_666.67, 67_500.0, 208_333.33, 269_285.71, inf, inf],
            vec![inf, 0.0, 5_000.0, 41_666.67, 49_166.67, 269_285.71, inf],
            vec![inf, inf, 0.0, 5_000.0, 6_666.67, 49_166.67, 269_285.71],
            vec![inf, inf, inf, 0.0, 1_666.67, 6_666.67, 49_166.67],
        ];
        for prune in [false, true] {
            for strategy in [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto] {
                let m = full_matrix_strategy(&input, 4, prune, strategy);
                for (k, row) in expected.iter().enumerate() {
                    for (i, &want) in row.iter().enumerate() {
                        let got = m[k][i + 1];
                        if want.is_infinite() {
                            assert!(got.is_infinite(), "E[{}][{}] = {got}, want inf", k + 1, i + 1);
                        } else {
                            assert!(
                                (got - want).abs() < 1.0,
                                "E[{}][{}] = {got}, want {want} (prune={prune}, {strategy:?})",
                                k + 1,
                                i + 1
                            );
                        }
                    }
                }
            }
        }
    }

    /// Pruned and naive rows agree wherever the naive row is finite.
    #[test]
    fn pruning_never_changes_reachable_cells() {
        let input = fig1c();
        let a = full_matrix(&input, 7, true);
        let b = full_matrix(&input, 7, false);
        for k in 0..7 {
            for i in 1..=7 {
                let (x, y) = (a[k][i], b[k][i]);
                assert!(
                    (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-6,
                    "mismatch at E[{}][{}]: {x} vs {y}",
                    k + 1,
                    i
                );
            }
        }
    }

    /// Monge-minimized rows equal scanned rows bit for bit, forward and
    /// backward, on a certified gap-free window wide enough to exercise
    /// SMAWK.
    #[test]
    fn monge_rows_are_bit_identical_to_scan_rows() {
        let input = trend_series(96, 17);
        let n = input.len();
        let kmax = 24;
        let scan_f = full_matrix_strategy(&input, kmax, true, DpStrategy::Scan);
        let monge_f = full_matrix_strategy(&input, kmax, true, DpStrategy::Monge);
        let auto_f = full_matrix_strategy(&input, kmax, true, DpStrategy::Auto);
        let scan_b = full_matrix_bwd_strategy(&input, kmax, true, DpStrategy::Scan);
        let monge_b = full_matrix_bwd_strategy(&input, kmax, true, DpStrategy::Monge);
        for k in 0..kmax {
            for i in 0..=n {
                assert_eq!(
                    scan_f[k][i].to_bits(),
                    monge_f[k][i].to_bits(),
                    "forward E[{}][{i}]",
                    k + 1
                );
                assert_eq!(scan_f[k][i].to_bits(), auto_f[k][i].to_bits());
                assert_eq!(
                    scan_b[k][i].to_bits(),
                    monge_b[k][i].to_bits(),
                    "backward B[{}][{i}]",
                    k + 1
                );
            }
        }
    }

    /// On uncertified (wiggly) data every strategy falls back to the
    /// scan: zero Monge evaluations, identical rows — exactness is never
    /// traded for speed.
    #[test]
    fn wiggly_data_falls_back_to_scan() {
        let input = wiggly_series(96, 29);
        let n = input.len();
        let scan = engine_with(&input, true, DpStrategy::Scan);
        let monge = engine_with(&input, true, DpStrategy::Monge);
        let width = n + 1;
        let mut prev_s = vec![f64::INFINITY; width];
        let mut prev_m = vec![f64::INFINITY; width];
        let mut cur_s = vec![f64::INFINITY; width];
        let mut cur_m = vec![f64::INFINITY; width];
        for k in 1..=12 {
            let s = row::<false>(&scan, k, &prev_s, &mut cur_s, None);
            let m = row::<false>(&monge, k, &prev_m, &mut cur_m, None);
            assert_eq!(m.monge, 0, "row {k}: no certificate, no Monge evals");
            assert_eq!(m, s, "row {k}: identical work");
            for i in 0..=n {
                assert_eq!(cur_s[i].to_bits(), cur_m[i].to_bits(), "row {k} cell {i}");
            }
            std::mem::swap(&mut prev_s, &mut cur_s);
            std::mem::swap(&mut prev_m, &mut cur_m);
        }
    }

    /// A certified (monotone) window with catastrophic dynamic range:
    /// segment SSEs reach ~1e282, where pads no longer dominate and
    /// cancellation dwarfs the QI tolerance. The magnitude certificate
    /// must route the window to the scan — identical rows, zero Monge
    /// evaluations, no panic in any profile.
    #[test]
    fn extreme_dynamic_range_falls_back_to_scan() {
        let mut b = SequentialBuilder::new(1);
        for t in 0..64i64 {
            let v = if t < 48 { t as f64 } else { t as f64 * 1e140 };
            b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
        }
        let input = b.build();
        let n = input.len();
        let scan = engine_with(&input, true, DpStrategy::Scan);
        let monge = engine_with(&input, true, DpStrategy::Monge);
        let width = n + 1;
        let mut prev_s = vec![f64::INFINITY; width];
        let mut prev_m = vec![f64::INFINITY; width];
        let mut cur_s = vec![f64::INFINITY; width];
        let mut cur_m = vec![f64::INFINITY; width];
        for k in 1..=10 {
            let s = row::<false>(&scan, k, &prev_s, &mut cur_s, None);
            let m = row::<false>(&monge, k, &prev_m, &mut cur_m, None);
            assert_eq!(m.monge, 0, "row {k}: magnitude certificate must reject the window");
            assert_eq!(m.scan, s.scan, "row {k}");
            for i in 0..=n {
                assert_eq!(cur_s[i].to_bits(), cur_m[i].to_bits(), "row {k} cell {i}");
            }
            std::mem::swap(&mut prev_s, &mut cur_s);
            std::mem::swap(&mut prev_m, &mut cur_m);
        }
    }

    /// The monotone-run certificate is exact: per-dimension, direction-
    /// independent, plateau-tolerant.
    #[test]
    fn monotone_run_certificate() {
        // Values 1, 2, 2, 3 (asc) | 1 (reset) | 5, 4, 4 (desc).
        let vals = [1.0, 2.0, 2.0, 3.0, 1.0, 5.0, 4.0, 4.0];
        let mut b = SequentialBuilder::new(1);
        for (t, &v) in vals.iter().enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
        }
        let input = b.build();
        let mono = monotone_run_ends(&input);
        assert_eq!(mono, vec![4, 4, 4, 5, 6, 8, 8, 8]);
        // Multi-dim: the certificate is the intersection of the dims.
        let mut b = SequentialBuilder::new(2);
        let rows = [[1.0, 9.0], [2.0, 8.0], [3.0, 8.5], [4.0, 9.0]];
        for (t, v) in rows.iter().enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), v).unwrap();
        }
        let mono = monotone_run_ends(&b.build());
        // Dim 0 ascends throughout; dim 1 descends then ascends at t=1.
        assert_eq!(mono, vec![2, 4, 4, 4]);
    }

    /// The recorded split points agree between the strategies as well
    /// (same tie-breaking as the scan).
    #[test]
    fn monge_split_points_match_scan() {
        let input = trend_series(80, 23);
        let n = input.len();
        for strategy in [DpStrategy::Monge, DpStrategy::Auto] {
            let scan = engine_with(&input, true, DpStrategy::Scan);
            let other = engine_with(&input, true, strategy);
            let width = n + 1;
            let mut prev_s = vec![f64::INFINITY; width];
            let mut prev_o = vec![f64::INFINITY; width];
            let mut cur_s = vec![f64::INFINITY; width];
            let mut cur_o = vec![f64::INFINITY; width];
            for k in 1..=20 {
                let mut js = vec![0usize; width];
                let mut jo = vec![0usize; width];
                row::<false>(&scan, k, &prev_s, &mut cur_s, Some(&mut js));
                row::<false>(&other, k, &prev_o, &mut cur_o, Some(&mut jo));
                for i in (k)..=n {
                    if cur_s[i].is_finite() {
                        assert_eq!(js[i], jo[i], "row {k} cell {i} ({strategy:?})");
                    }
                }
                std::mem::swap(&mut prev_s, &mut cur_s);
                std::mem::swap(&mut prev_o, &mut cur_o);
            }
        }
    }

    /// The suffix DP is the exact mirror of the forward DP: the whole-input
    /// cell agrees (`B[k][0] = E[k][n]`), and every interior cell matches
    /// F-recomputation over the corresponding suffix.
    #[test]
    fn suffix_rows_mirror_forward_rows() {
        let input = fig1c();
        let n = input.len();
        for prune in [false, true] {
            let fwd = full_matrix(&input, n, prune);
            let bwd = full_matrix_bwd(&input, n, prune);
            for k in 1..=n {
                let (x, y) = (fwd[k - 1][n], bwd[k - 1][0]);
                assert!(
                    (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-6,
                    "k = {k}: forward {x} vs suffix {y} (prune={prune})"
                );
            }
            // Interior: B[k][i] over fig1c computed on the sliced suffix.
            for i in 0..n {
                let suffix = input.slice(i..n);
                let sub = full_matrix(&suffix, n - i, prune);
                for k in 1..=(n - i) {
                    let (x, y) = (sub[k - 1][n - i], bwd[k - 1][i]);
                    assert!(
                        (x.is_infinite() && y.is_infinite())
                            || (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                        "B[{k}][{i}]: sliced {x} vs suffix-row {y} (prune={prune})"
                    );
                }
            }
        }
    }

    /// Divide-and-conquer backtracking reproduces the materialized-table
    /// partition for every feasible size of the running example, under
    /// every strategy.
    #[test]
    fn dnc_matches_table_on_running_example() {
        let input = fig1c();
        for prune in [false, true] {
            for strategy in [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto] {
                let engine = engine_with(&input, prune, strategy);
                let n = input.len();
                let width = n + 1;
                for c in 3..=n {
                    let mut jm = vec![0usize; c * width];
                    let mut prev = vec![f64::INFINITY; width];
                    prev[0] = 0.0;
                    let mut cur = vec![f64::INFINITY; width];
                    for k in 1..=c {
                        let jrow = Some(&mut jm[(k - 1) * width..k * width]);
                        row::<false>(&engine, k, &prev, &mut cur, jrow);
                        std::mem::swap(&mut prev, &mut cur);
                        cur.fill(f64::INFINITY);
                    }
                    let table = engine.backtrack(&jm, c);
                    let dnc = engine.dnc_pass(&Exact, c, 4, &mut Tally::default()).unwrap();
                    assert_eq!(table, dnc.boundaries, "c = {c} (prune={prune}, {strategy:?})");
                    let [optimal_sse] = dnc.values;
                    assert!(
                        (optimal_sse - prev[n]).abs() <= 1e-9 * (1.0 + prev[n]),
                        "c = {c}: dnc optimum {optimal_sse} vs table optimum {}",
                        prev[n]
                    );
                }
            }
        }
    }

    /// Emax = 269 285.714 for the running example (Example 22).
    #[test]
    fn example_22_emax() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let e = max_error(&input, &w).unwrap();
        assert!((e - 269_285.714_285).abs() < 1e-2, "got {e}");
    }

    #[test]
    fn mode_selection() {
        // Old-cap territory auto-selects divide and conquer instead of
        // failing: (2²⁰ + 1) · 2¹² entries is far beyond the budget.
        assert!(DpMode::Auto.materializes_table(1_000, 100));
        assert!(!DpMode::Auto.materializes_table(1 << 20, 1 << 12));
        assert!(DpMode::Table.materializes_table(1 << 20, 1 << 12));
        assert!(!DpMode::DivideConquer.materializes_table(10, 2));
        // (4 + 1) · 10 = 50 entries sit exactly on a budget of 50.
        assert!(DpMode::Budget(50).materializes_table(4, 10));
        assert!(!DpMode::Budget(49).materializes_table(4, 10));
        // Budget overflow saturates instead of wrapping.
        assert!(!DpMode::Auto.materializes_table(usize::MAX, usize::MAX));
    }

    #[test]
    fn row_budgets() {
        assert_eq!(DpMode::DivideConquer.row_budget(100), 0);
        assert_eq!(DpMode::Table.row_budget(100), usize::MAX);
        assert_eq!(DpMode::Budget(1_010).row_budget(100), 10);
        assert_eq!(DpMode::Auto.row_budget(100), DEFAULT_TABLE_BUDGET / 101);
    }

    /// The naive baseline ignores the strategy knob: it exists to measure
    /// the unaccelerated recurrence.
    #[test]
    fn naive_engine_forces_scan() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let opts = DpOptions::default().with_strategy(DpStrategy::Monge);
        let e = DpEngine::new(&input, &w, &opts, false, true).unwrap();
        assert_eq!(e.strategy, DpStrategy::Scan);
    }

    /// Monge rows cost O(window) evaluations where the scan pays
    /// O(window²) — the headline complexity change, measured directly.
    #[test]
    fn monge_row_is_superlinearly_cheaper_on_trend_data() {
        let input = trend_series(512, 5);
        let n = input.len();
        let scan = engine_with(&input, true, DpStrategy::Scan);
        let monge = engine_with(&input, true, DpStrategy::Monge);
        let width = n + 1;
        let mut prev = vec![f64::INFINITY; width];
        let mut cur = vec![f64::INFINITY; width];
        // Row 2 read from the genuine row 1.
        row::<false>(&scan, 1, &prev, &mut cur, None);
        std::mem::swap(&mut prev, &mut cur);
        let s = row::<false>(&scan, 2, &prev, &mut cur, None);
        let mut cur2 = vec![f64::INFINITY; width];
        let m = row::<false>(&monge, 2, &prev, &mut cur2, None);
        assert_eq!(s.monge, 0);
        assert_eq!(m.scan, 0);
        assert!(
            m.monge * 5 < s.scan,
            "monge {} evals vs scan {} — expected ≥ 5× reduction",
            m.monge,
            s.scan
        );
        assert_eq!(cur[..], cur2[..], "identical row values");
    }

    /// A multi-thread budget fans row fills out across chunked windows;
    /// row values, split points, and evaluation counters stay
    /// bit-identical to the one-thread fill — forward and mirrored, on
    /// scan-only (wiggly) and Monge-certified (trend) data. The inputs
    /// are large enough that every row clears the fan-out work gate.
    #[test]
    fn parallel_rows_are_bit_identical_to_sequential() {
        for input in [wiggly_series(700, 41), trend_series(700, 43)] {
            let n = input.len();
            let seq = engine_threads(&input, 1);
            let par = engine_threads(&input, 4);
            assert_eq!(par.pool.threads(), 4);
            let width = n + 1;
            let mut prev_s = vec![f64::INFINITY; width];
            let mut prev_p = vec![f64::INFINITY; width];
            let mut cur_s = vec![f64::INFINITY; width];
            let mut cur_p = vec![f64::INFINITY; width];
            prev_s[0] = 0.0;
            prev_p[0] = 0.0;
            for k in 1..=12 {
                let mut js = vec![0usize; width];
                let mut jp = vec![0usize; width];
                let s = row::<false>(&seq, k, &prev_s, &mut cur_s, Some(&mut js));
                let p = row::<false>(&par, k, &prev_p, &mut cur_p, Some(&mut jp));
                assert_eq!(s, p, "row {k}: identical counters");
                for i in 0..=n {
                    assert_eq!(cur_s[i].to_bits(), cur_p[i].to_bits(), "row {k} cell {i}");
                }
                assert_eq!(js, jp, "row {k}: identical split points");
                std::mem::swap(&mut prev_s, &mut cur_s);
                std::mem::swap(&mut prev_p, &mut cur_p);
            }
            let mut prev_s = vec![f64::INFINITY; width];
            let mut prev_p = vec![f64::INFINITY; width];
            let mut cur_s = vec![f64::INFINITY; width];
            let mut cur_p = vec![f64::INFINITY; width];
            for k in 1..=12 {
                let s = row::<true>(&seq, k, &prev_s, &mut cur_s, None);
                let p = row::<true>(&par, k, &prev_p, &mut cur_p, None);
                assert_eq!(s, p, "bwd row {k}: identical counters");
                for i in 0..=n {
                    assert_eq!(cur_s[i].to_bits(), cur_p[i].to_bits(), "bwd row {k} cell {i}");
                }
                std::mem::swap(&mut prev_s, &mut cur_s);
                std::mem::swap(&mut prev_p, &mut cur_p);
            }
        }
    }

    /// The chunker tiles every window region exactly: chunk extents are
    /// contiguous, in order, and cover the same cells under any budget —
    /// forward and mirrored, for both window solvers.
    #[test]
    fn chunker_tiles_rows_exactly() {
        fn tiles<const M: bool, const R: usize, S: WindowSolver<R>>(e: &DpEngine, s: &S, k: usize) {
            let imax = e.imax_within::<M>(k, 0, e.n);
            let windows = e.collect_windows::<M>(k, 0, imax);
            let work: u64 = windows.iter().map(|w| s.work(w)).sum();
            let chunks = e.chunk_windows::<M, R, S>(s, &windows, work);
            assert!(chunks.len() >= windows.len());
            let mut next = k;
            for (c, edges) in &chunks {
                assert_eq!(c.ws, next, "k = {k}, threads = {}", e.pool.threads());
                assert!(c.we >= c.ws && edges.0 <= c.ws && c.we <= edges.1);
                next = c.we + 1;
            }
            assert_eq!(next, imax + 1, "k = {k}: chunks must end at imax");
        }
        let input = wiggly_series(300, 7);
        for threads in [2, 3, 8] {
            let engine = engine_threads(&input, threads);
            for k in [2usize, 5, 20] {
                tiles::<false, 1, Exact>(&engine, &Exact, k);
                tiles::<true, 1, Exact>(&engine, &Exact, k);
                tiles::<false, 2, approx::Grid>(&engine, &approx::Grid { stride: 3 }, k);
                tiles::<true, 2, approx::Grid>(&engine, &approx::Grid { stride: 3 }, k);
            }
        }
    }

    /// The bench-support harness reproduces the engine's rows.
    #[test]
    fn bench_support_row_fill_matches_engine() {
        let input = trend_series(64, 3);
        let w = Weights::uniform(1);
        let rf = bench_support::RowFill::new(&input, &w, DpStrategy::Auto).unwrap();
        let prev = rf.row(3);
        let mut cur = vec![f64::INFINITY; rf.width()];
        let cells = rf.fill(4, &prev, &mut cur);
        assert!(cells > 0);
        let m = full_matrix(&input, 4, true);
        for i in 0..=input.len() {
            assert_eq!(cur[i].to_bits(), m[3][i].to_bits(), "cell {i}");
        }
    }
}
