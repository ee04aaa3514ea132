//! Run-decomposed exact PTA: per-run error curves, their min-plus merge,
//! and the allocation of pieces to runs (see "Run decomposition" in the
//! [module docs](super)).

use std::ops::Range;

use crate::dp::{DncState, DpEngine, DpExecMode, DpMode, Exact, Pass, RowPair, Tally};
use crate::error::CoreError;

/// Rows a run-path pass reports: the four scratch rows of the per-run
/// cut recovery, its largest phase.
const PEAK_ROWS: usize = 4;

/// What a run-path pass solves for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// `PTAc`: exactly this many pieces.
    Size(usize),
    /// `PTAε`: the fewest pieces whose error is at most this threshold.
    Error(f64),
}

/// A run of at least two tuples and where its error curve sits in the
/// curves buffer: entry `x` of the curve is the run's least error with
/// `x` extra pieces (`x + 1` in all).
struct FreeRun {
    span: Range<usize>,
    curve: Range<usize>,
}

impl FreeRun {
    /// The most extra pieces the stored curve covers.
    fn slack(&self) -> usize {
        self.curve.len() - 1
    }
}

fn slack(free: &[FreeRun]) -> usize {
    free.iter().map(FreeRun::slack).sum()
}

impl DpEngine {
    /// Whether `PTAc` to `c` pieces takes the run path under `mode`.
    pub(crate) fn decomposes_size(&self, mode: DpMode, c: usize) -> bool {
        self.decomposes(mode) && !mode.materializes_table(self.n, c)
    }

    /// Whether `PTAε` takes the run path under `mode`. Its curves run to
    /// each run's full length, so no run may be longer than `cmin`: the
    /// answer has at least `cmin` pieces, so then no run fills more rows
    /// than the sweep would.
    pub(crate) fn decomposes_error(&self, mode: DpMode) -> bool {
        let cmin = self.gaps.cmin();
        self.decomposes(mode)
            && !mode.materializes_table(self.n, self.n)
            && self.gaps.runs().all(|r| r.len() <= cmin)
    }

    /// The part of the selection rule both bounds share: a budgeted mode,
    /// the exact pruned DP, and more than one run.
    fn decomposes(&self, mode: DpMode) -> bool {
        matches!(mode, DpMode::Auto | DpMode::Budget(_))
            && self.prune
            && self.approx_eps().is_none()
            && self.gaps.cmin() >= 2
    }

    /// The run path: per-run curves, the allocation of extra pieces over
    /// the run list, then each run's cuts. The pass value is the sum of
    /// the chosen curve entries.
    pub(crate) fn run_pass(&self, goal: Goal, tally: &mut Tally) -> Result<Pass<1>, CoreError> {
        self.run_pass_inner(goal, tally)
            .map_err(|e| self.stamp::<1, Exact>(e, tally, PEAK_ROWS, DpExecMode::DivideConquer))
    }

    fn run_pass_inner(&self, goal: Goal, tally: &mut Tally) -> Result<Pass<1>, CoreError> {
        let cmin = self.gaps.cmin();
        let depth = match goal {
            Goal::Size(c) => c - cmin + 1,
            Goal::Error(_) => self.n,
        };
        let (free, curves) = self.run_curves(depth, tally)?;
        let slack = slack(&free);
        let mut buf = Vec::new();
        let extra = match goal {
            Goal::Size(c) => c - cmin,
            Goal::Error(threshold) => {
                buf.resize(2 * (slack + 1), 0.0);
                let (f, g) = buf.split_at_mut(slack + 1);
                tally.cells.scan += self.merge_curves(&free, &curves, f, g)?;
                // With finite inputs F(slack) = 0 satisfies every valid
                // threshold; only non-finite data gets here empty-handed.
                f.iter().position(|&v| v <= threshold).ok_or_else(|| {
                    CoreError::non_finite_data(
                        "run-decomposed error-bounded DP found no size satisfying the bound",
                    )
                })?
            }
        };
        debug_assert!(extra <= slack, "c ≤ n leaves at most the runs' slack to allocate");
        // A node's two half-folds side by side, then the scratch row.
        buf.clear();
        buf.resize((2 * extra).min(slack) + 2 + extra.min(slack) + 1, 0.0);
        let mut alloc = vec![0; free.len()];
        self.allocate(&free, &curves, extra, &mut alloc, &mut buf, tally)?;
        let value = free.iter().zip(&alloc).fold(0.0, |v, (r, &x)| v + curves[r.curve.start + x]);
        drop((curves, buf));
        let boundaries = self.run_cuts(&free, &alloc, cmin + extra, tally)?;
        Ok(Pass { boundaries, values: [value], peak: PEAK_ROWS, mode: DpExecMode::DivideConquer })
    }

    /// The error curve of every run of at least two tuples, at most
    /// `depth` entries each: row `k` of a forward fill over the run's
    /// span, read at the span's end, is the run's least error in `k`
    /// pieces. The fills share one row pair and the global prefix sums,
    /// so range SSEs keep their bits.
    // pta-lint: allow(cancel-coverage) — every row goes through
    // DpEngine::fill_into, which polls the token once per row.
    fn run_curves(
        &self,
        depth: usize,
        tally: &mut Tally,
    ) -> Result<(Vec<FreeRun>, Vec<f64>), CoreError> {
        let len = self.gaps.runs().filter(|r| r.len() > 1).map(|r| r.len().min(depth)).sum();
        let mut curves = Vec::with_capacity(len);
        let mut free = Vec::new();
        let mut rows = RowPair::<1>::new(self.n + 1);
        for span in self.gaps.runs().filter(|r| r.len() > 1) {
            rows.reset(span.start, span.end);
            let at = curves.len();
            for k in 1..=span.len().min(depth) {
                tally.cells +=
                    self.fill_row::<false, 1, Exact>(&Exact, k, span.clone(), &mut rows, None)?;
                tally.rows += 1;
                let [e] = rows.at(span.end);
                curves.push(e);
            }
            free.push(FreeRun { span, curve: at..curves.len() });
        }
        Ok((free, curves))
    }

    /// Folds the curves of `free` by min-plus convolution into `f`: `f[d]`
    /// becomes the least total error of the runs with `d` extra pieces,
    /// for every `d < f.len()` (which must not exceed their slack + 1).
    /// Each step writes the next fold into the scratch row `g` (at least
    /// as long as `f`), one candidate share `x` of the new run at a time,
    /// so the inner loop is a branch-free vector minimum; the minimum of a
    /// cell does not depend on the order its candidates are seen in.
    /// Polls the cancel token once per run and returns the number of
    /// candidates evaluated.
    fn merge_curves(
        &self,
        free: &[FreeRun],
        curves: &[f64],
        f: &mut [f64],
        g: &mut [f64],
    ) -> Result<u64, CoreError> {
        let cap = f.len() - 1;
        let (mut cur, mut next_fold) = (&mut *f, &mut g[..=cap]);
        cur[0] = 0.0;
        let mut top = 0;
        let mut evals = 0;
        for r in free {
            self.cancel.check()?;
            let next = (top + r.slack()).min(cap);
            let out = &mut next_fold[..=next];
            out.fill(f64::INFINITY);
            for (x, &ex) in curves[r.curve.clone()].iter().enumerate().take(next + 1) {
                let hi = (x + top).min(next);
                for (o, &fd) in out[x..=hi].iter_mut().zip(&cur[..=hi - x]) {
                    let total = fd + ex;
                    // An unconditional store keeps the loop a vector select.
                    *o = if total < *o { total } else { *o };
                }
                evals += (hi + 1 - x) as u64;
            }
            std::mem::swap(&mut cur, &mut next_fold);
            top = next;
        }
        debug_assert_eq!(top, cap, "the fold must reach every requested cell");
        // Every run swapped the rows once: an odd count leaves the fold
        // in the scratch row.
        if free.len() % 2 == 1 {
            next_fold.copy_from_slice(cur);
        }
        Ok(evals)
    }

    /// Splits `extra` pieces among `free` into `alloc` (zeroed on entry)
    /// so the curves' total is least: Hirschberg over the run list. Each
    /// node folds its two halves up to its target in `buf` (side by side,
    /// then the folds' scratch row), keeps the best split and recurses,
    /// so no `#runs × extra` table is built.
    /// Ties go to the smallest left share: extra pieces land in the
    /// latest runs.
    fn allocate(
        &self,
        free: &[FreeRun],
        curves: &[f64],
        extra: usize,
        alloc: &mut [usize],
        buf: &mut [f64],
        tally: &mut Tally,
    ) -> Result<(), CoreError> {
        self.cancel.check()?;
        if extra == 0 {
            return Ok(());
        }
        if let [_] = free {
            alloc[0] = extra;
            return Ok(());
        }
        let mid = free.len() / 2;
        let (left, right) = free.split_at(mid);
        let (sl, sr) = (slack(left), slack(right));
        if extra == sl + sr {
            for (a, r) in alloc.iter_mut().zip(free) {
                *a = r.slack();
            }
            return Ok(());
        }
        let (cl, cr) = (extra.min(sl), extra.min(sr));
        let (fl, rest) = buf.split_at_mut(cl + 1);
        let (fr, scratch) = rest.split_at_mut(cr + 1);
        tally.cells.scan += self.merge_curves(left, curves, fl, scratch)?
            + self.merge_curves(right, curves, fr, scratch)?;
        let (mut best, mut share) = (f64::INFINITY, 0);
        for x in extra - cr..=cl {
            let total = fl[x] + fr[extra - x];
            if total < best {
                best = total;
                share = x;
            }
        }
        tally.cells.scan += (cl + cr + 1 - extra) as u64;
        let (al, ar) = alloc.split_at_mut(mid);
        self.allocate(left, curves, share, al, buf, tally)?;
        self.allocate(right, curves, extra - share, ar, buf, tally)
    }

    /// The partition boundaries: every run's end, plus each multi-tuple
    /// run's cuts for its share of pieces, recovered by divide and
    /// conquer over the run's span in four scratch rows.
    fn run_cuts(
        &self,
        free: &[FreeRun],
        alloc: &[usize],
        pieces: usize,
        tally: &mut Tally,
    ) -> Result<Vec<usize>, CoreError> {
        let mut st = DncState::new(self.n + 1, pieces, *tally);
        let mut shares = free.iter().zip(alloc).peekable();
        let res: Result<(), CoreError> = self.gaps.runs().try_for_each(|span| {
            if let Some((_, &x)) = shares.next_if(|(r, _)| r.span == span) {
                self.cancel.check()?;
                self.dnc(&Exact, span.start, span.end, x + 1, &mut st)?;
            }
            st.cuts.push(span.end);
            Ok(())
        });
        *tally = st.tally;
        res?;
        debug_assert_eq!(st.cuts.len(), pieces + 1);
        Ok(st.cuts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::dp::size_bounded::size_bounded_with_opts;
    use crate::dp::tests::{fig1c, trend_series};
    use crate::dp::{DpOptions, DpStrategy};
    use crate::gaps::GapVector;
    use crate::weights::Weights;
    use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval};

    fn engine(input: &SequentialRelation, strategy: DpStrategy, prune: bool) -> DpEngine {
        let opts = DpOptions::default().with_strategy(strategy).with_threads(1);
        DpEngine::new(input, &Weights::uniform(1), &opts, prune, true).unwrap()
    }

    /// Runs of lengths 3, 1, 2, 3: no run is longer than `cmin = 4`.
    fn short_runs() -> SequentialRelation {
        let mut b = SequentialBuilder::new(1);
        let mut t = 0;
        for (run, len) in [3, 1, 2, 3].into_iter().enumerate() {
            for i in 0..len {
                let v = (run * 10 + i * i) as f64;
                b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
                t += 1;
            }
            t += 1;
        }
        b.build()
    }

    #[test]
    fn run_walk_covers_the_input() {
        let runs: Vec<_> = engine(&fig1c(), DpStrategy::Auto, true).gaps.runs().collect();
        assert_eq!(runs, [0..5, 5..6, 6..7]);
        assert_eq!(GapVector::build(&SequentialRelation::empty(1)).runs().count(), 0);
    }

    /// The input and the mode select the path; no option does.
    #[test]
    fn selection_rule() {
        let fig = engine(&fig1c(), DpStrategy::Auto, true);
        // The 4 × 8 table fits Auto's budget but not a zero budget.
        assert!(!fig.decomposes_size(DpMode::Auto, 4));
        assert!(fig.decomposes_size(DpMode::Budget(0), 4));
        assert!(fig.decomposes_size(DpMode::Budget(31), 4));
        assert!(!fig.decomposes_size(DpMode::Budget(32), 4));
        assert!(!fig.decomposes_size(DpMode::Table, 4));
        assert!(!fig.decomposes_size(DpMode::DivideConquer, 4));
        // A run of 5 tuples exceeds cmin = 3: PTAε keeps the sweep.
        assert!(!fig.decomposes_error(DpMode::Budget(0)));
        let short = engine(&short_runs(), DpStrategy::Auto, true);
        assert!(short.decomposes_error(DpMode::Budget(0)));
        assert!(!short.decomposes_error(DpMode::Auto));
        // The approximate tier, the naive baseline and single-run inputs
        // keep the sweep.
        assert!(
            !engine(&fig1c(), DpStrategy::Approx(0.1), true).decomposes_size(DpMode::Budget(0), 4)
        );
        assert!(
            engine(&fig1c(), DpStrategy::Approx(0.0), true).decomposes_size(DpMode::Budget(0), 4)
        );
        assert!(!engine(&fig1c(), DpStrategy::Auto, false).decomposes_size(DpMode::Budget(0), 4));
        let single = engine(&trend_series(40, 3), DpStrategy::Auto, true);
        assert!(!single.decomposes_size(DpMode::Budget(0), 10));
        assert!(!single.decomposes_error(DpMode::Budget(0)));
    }

    /// The pass value is the optimum the reduction re-sums to, for every
    /// size, and the pass reports the run path's memory and mode.
    #[test]
    fn run_pass_reaches_the_optimum_for_every_size() {
        let input = short_runs();
        let e = engine(&input, DpStrategy::Auto, true);
        for c in e.gaps.cmin()..=input.len() {
            let table = size_bounded_with_opts(
                &input,
                &Weights::uniform(1),
                c,
                DpOptions::default().with_mode(DpMode::Table),
            )
            .unwrap();
            let pass = e.run_pass(Goal::Size(c), &mut Tally::default()).unwrap();
            assert_eq!(pass.boundaries.len(), c + 1, "c {c}");
            let [value] = pass.values;
            let want = table.reduction.sse();
            assert!((value - want).abs() <= 1e-9 * (1.0 + want), "c {c}: {value} vs {want}");
            assert_eq!((pass.peak, pass.mode), (PEAK_ROWS, DpExecMode::DivideConquer));
        }
    }

    /// An abort anywhere on the run path carries the path's progress: its
    /// mode and memory, and the work done so far.
    #[test]
    fn cancellation_stamps_run_path_progress() {
        let input = short_runs();
        let opts = |fuse| {
            DpOptions::default()
                .with_mode(DpMode::Budget(0))
                .with_cancel(CancelToken::cancel_after_checks(fuse))
        };
        let mut fuse = 0;
        while let Err(e) = size_bounded_with_opts(&input, &Weights::uniform(1), 6, opts(fuse)) {
            let stats = e.dp_progress().expect("typed cancellation");
            assert_eq!((stats.mode, stats.peak_rows), (DpExecMode::DivideConquer, PEAK_ROWS));
            fuse += 1;
        }
        assert!(fuse > 3, "the run path polls in every phase: {fuse} checks");
    }
}
