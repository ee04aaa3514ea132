//! The certified `(1 + ε)`-approximate DP tier
//! ([`DpStrategy::Approx`](super::DpStrategy::Approx)).
//!
//! Segment SSE violates the quadrangle inequality on unsorted data, so
//! flat/uniform inputs fail the Monge certificate and the exact scan stays
//! `O(c · n²)`. This tier breaks that wall with stride-grid candidate
//! sparsification, as a [`WindowSolver`] of the one row skeleton (see the
//! [`dp`](super) module docs): each open window solves only the cells on
//! a uniform grid of stride `b` (plus the window edges), and each solved
//! cell scans only the grid-aligned split candidates (plus the window's
//! `jmin`). A row fill therefore costs `O((window / b)²)` instead of
//! `O(window²)`, with `b ≈ ε · n / c` chosen so the lost resolution stays
//! inside the ε budget. Gap bounds, forced splits, cancellation polls, the
//! pool fan-out and both orientations come from the skeleton; the grid is
//! a pure function of the *original* cell position, so chunked and
//! mirrored windows solve the same cells with the same candidates and
//! every thread budget produces bit-identical rows.
//!
//! The bound is *certified a posteriori*, not assumed: every row carries a
//! bracket of two value rows,
//!
//! * `ub[k][i]` — the value of a **real** `k`-piece partition of the
//!   prefix `0..i` (split points restricted to the grid), so `ub ≥ E`
//!   cell-wise, and
//! * `lb[k][i]` — a **certified lower bound** on the exact `E[k][i]`:
//!   each candidate `j` contributes `lb[k−1][j] + SSE(j + b − 1..i)`.
//!   Any true optimal split `β` has a candidate `j_b ≤ β ≤ j_b + b − 1`
//!   (candidates are never more than `b` apart), and then
//!   `lb[k−1][j_b] ≤ E[k−1][j_b] ≤ E[k−1][β]` (a prefix DP value never
//!   shrinks as the prefix grows) while `SSE(j_b + b − 1..i) ≤
//!   SSE(β..i)` (a segment's SSE about its own mean never exceeds a
//!   superset's), hence `lb[k][i] ≤ E[k][i]` — the grid affects speed
//!   and `ub` quality, never `lb` soundness.
//!
//! The tier runs the exact tier's table, divide-and-conquer, error-row
//! and curve passes at each stride of [`probe_strides`]: a probe is
//! accepted only when the delivered SSE is within `(1 + ε)` of the lower
//! bound, and the schedule ends at `b = 1`, which evaluates every cell and
//! every candidate — bit-identical to the exact scan, hence accepted
//! unconditionally — so `certified_ratio ≤ 1 + ε` holds on every completed
//! run, deterministically.

use super::{Cells, DpEngine, DpOutcome, Job, Pass, RowWindow, SweepBuf, Tally, WindowSolver};
use crate::dp::monge::RowMinEngine;
use crate::error::CoreError;
use crate::reduction::Reduction;

/// The ε a bare `approx` strategy name resolves to: a 10 % SSE slack —
/// large enough that the first probe certifies on realistic data, small
/// enough that downstream error budgets barely move.
pub const DEFAULT_APPROX_EPS: f64 = 0.1;

/// The a posteriori certificate: `Some(ratio)` iff the delivered `sse`
/// is provably within `(1 + eps)` of the exact optimum, given the
/// certified lower bound `lb ≤ E`. A non-positive lower bound certifies
/// only a zero-SSE result (the ratio is unbounded otherwise); ratios
/// are clamped to `≥ 1` — `sse < lb` can only be rounding noise.
fn certify(sse: f64, lb: f64, eps: f64) -> Option<f64> {
    if !sse.is_finite() || !lb.is_finite() {
        return None;
    }
    if lb <= 0.0 {
        return (sse <= 0.0).then_some(1.0);
    }
    let ratio = (sse / lb).max(1.0);
    (ratio <= 1.0 + eps).then_some(ratio)
}

/// The stride schedule a pass probes for a budget `ε` over `n` cells
/// and (roughly) `pieces` DP rows: the first stride targets a per-row
/// snap loss of about `b` points per boundary — `pieces · b ≲ ε · n`
/// residual points keeps the accumulated lower-bound deficit inside the
/// budget, with a 1.5× safety margin — followed by one 4× refinement
/// and the exact fallback `b = 1`, which is bit-identical to the exact
/// scan and accepted unconditionally (this also bounds the probe loop
/// when `lb = 0` or ulp noise defeats the ratio test).
fn probe_strides(eps: f64, n: usize, pieces: usize) -> Vec<usize> {
    let cap = (n / 8).max(1);
    let b0 = ((eps * n as f64) / (1.5 * pieces.max(1) as f64)) as usize;
    let b0 = b0.clamp(1, cap);
    let mut v = Vec::new();
    if b0 >= 2 {
        v.push(b0);
        let b1 = b0 / 4;
        if b1 >= 2 {
            v.push(b1);
        }
    }
    v.push(1);
    v
}

/// The stride-grid window solver over the `[ub, lb]` bracket rows.
/// `stride == 1` degenerates to the exact scan, cell for cell.
pub(crate) struct Grid {
    pub(crate) stride: usize,
}

impl Grid {
    /// Whether view cell `i` is on the fill grid: positions whose
    /// *original* index is grid-aligned, plus the window's own edges.
    /// Edges matter because the next row reads this row at window
    /// boundaries — its `jmin` is either the row floor (the first window's
    /// `ws`) or a gap break (some window's `we`) — so keeping them solved
    /// keeps every future candidate finite wherever the exact DP is
    /// finite. Chunk edges never matter: `edges` are the window's.
    #[inline]
    fn on_grid<const M: bool>(&self, eng: &DpEngine, i: usize, edges: (usize, usize)) -> bool {
        self.stride == 1
            || eng.pos::<M>(i).is_multiple_of(self.stride)
            || i == edges.0
            || i == edges.1
    }
}

impl WindowSolver<2> for Grid {
    const ABORT_RATIO: f64 = f64::INFINITY;

    /// `cells / b` grid cells (plus the two edges) against `span / b`
    /// candidates each, two evaluations per candidate when the brackets
    /// diverge (`b > 1`).
    fn open_work(&self, w: &RowWindow, jmin: usize, _: Option<RowMinEngine>) -> u64 {
        let b = self.stride as u64;
        let filled = w.cells() as u64 / b + 2;
        let cand = (w.we - jmin) as u64 / b + 1;
        filled * cand * if self.stride == 1 { 1 } else { 2 }
    }

    fn cell_work<const M: bool>(&self, eng: &DpEngine, i: usize, dist: usize) -> u64 {
        match self.stride {
            1 => dist as u64,
            b if eng.pos::<M>(i).is_multiple_of(b) => 2 * (dist / b + 1) as u64,
            _ => 0,
        }
    }

    fn refined(&self) -> Option<Self> {
        (self.stride > 1).then_some(Grid { stride: 1 })
    }

    /// Candidates are visited in decreasing view order — grid-aligned
    /// positions below `i`, then `jmin` last — like the exact scan (at
    /// stride 1 the loop *is* the exact scan, update for update). The
    /// upper bracket adds `SSE(j..i)`, the lower bracket
    /// `SSE(j + b − 1..i)`: the ≤ `b − 1` points a true boundary could sit
    /// past `j` are forgiven, which is what makes `lb` sound. The early
    /// break fires once the lower segment SSE alone exceeds *both* running
    /// minima — sound because both segment SSEs grow as the split moves
    /// left and `SSE(j..i) ≥ SSE(j + b − 1..i)`.
    fn solve_open<const M: bool>(
        &self,
        eng: &DpEngine,
        job: Job<'_, 2>,
        prev: &[&[f64]; 2],
        jmin: usize,
        _: Option<RowMinEngine>,
    ) -> Cells {
        let (b, n) = (self.stride, eng.n);
        let [ub_prev, lb_prev] = *prev;
        let Job { w, edges, out: [ub_out, lb_out], mut jout, at } = job;
        let mut scan = 0;
        for i in w.ws..=w.we {
            if !self.on_grid::<M>(eng, i, edges) {
                continue;
            }
            let (mut ub_best, mut lb_best, mut best_j) = (f64::INFINITY, f64::INFINITY, jmin);
            // The largest candidate below i whose original position is
            // grid-aligned.
            let mut j = match (b, M) {
                (1, _) => i - 1,
                (_, true) => n.saturating_sub(((n - i) / b + 1) * b).max(jmin),
                (_, false) => ((i - 1) / b * b).max(jmin),
            };
            loop {
                scan += 1;
                let sse_u = eng.seg::<M>(j, i);
                let sse_l = if b == 1 {
                    sse_u
                } else {
                    scan += 1;
                    eng.seg::<M>((j + b - 1).min(i), i)
                };
                let ub_total = ub_prev[j] + sse_u;
                if ub_total < ub_best {
                    ub_best = ub_total;
                    best_j = j;
                }
                let lb_total = lb_prev[j] + sse_l;
                if lb_total < lb_best {
                    lb_best = lb_total;
                }
                if eng.early_break && sse_l > ub_best && sse_l > lb_best {
                    break;
                }
                if j == jmin {
                    break;
                }
                j = if j >= jmin + b { j - b } else { jmin };
            }
            ub_out[i - at] = ub_best;
            lb_out[i - at] = lb_best;
            if let Some(jr) = jout.as_deref_mut() {
                jr[i - at] = best_j;
            }
        }
        Cells { scan, monge: 0 }
    }
}

/// The probe loop around one pass: runs `pass` (which returns the
/// delivered reduction and the pass itself) at each stride of the
/// schedule for `pieces` rows until the reduction certifies against the
/// pass's lower bracket. Buffers and counters carry across probes.
#[expect(
    clippy::unreachable,
    reason = "the stride-1 probe is bit-identical to the exact scan and accepted unconditionally"
)]
pub(crate) fn probe(
    engine: &DpEngine,
    eps: f64,
    pieces: usize,
    mut pass: impl FnMut(&Grid, &mut SweepBuf<2>, &mut Tally) -> Result<(Reduction, Pass<2>), CoreError>,
) -> Result<DpOutcome, CoreError> {
    let mut buf = SweepBuf::new(engine.n + 1);
    let mut tally = Tally::default();
    for stride in probe_strides(eps, engine.n, pieces) {
        let (reduction, p) = pass(&Grid { stride }, &mut buf, &mut tally)?;
        // The stride-1 probe is the exact scan, update for update, so its
        // partition is the optimum, certificate or not.
        let certified =
            if stride == 1 { Some(1.0) } else { certify(reduction.sse(), p.values[1], eps) };
        if let Some(ratio) = certified {
            return Ok(DpOutcome { reduction, stats: engine.stats(tally, p.peak, p.mode, ratio) });
        }
    }
    unreachable!("the exact stride-1 fallback probe is always accepted")
}

/// Error-vs-size curve under the approximate tier: fills rows
/// `1..=kmax` of the bracket DP and returns the upper curve once every
/// entry is certified — within `(1 + ε)` of its lower bound, below the
/// absolute noise floor (the exact tail of a curve reaches 0, where no
/// ratio certifies), or infinite on both brackets (sizes below `cmin`).
/// An uncertified probe refines the stride globally; stride 1 is exact.
#[expect(
    clippy::unreachable,
    reason = "the stride-1 probe is bit-identical to the exact scan and accepted unconditionally"
)]
pub(crate) fn curve(engine: &DpEngine, kmax: usize, eps: f64) -> Result<Vec<f64>, CoreError> {
    let mut buf = SweepBuf::new(engine.n + 1);
    let mut tally = Tally::default();
    for stride in probe_strides(eps, engine.n, kmax) {
        let (mut ub, mut lb) = (Vec::with_capacity(kmax), Vec::with_capacity(kmax));
        engine.sweep(&Grid { stride }, kmax, 0, &mut buf, &mut tally, |[u, l]| {
            ub.push(u);
            lb.push(l);
            false
        })?;
        if stride == 1 || curve_certified(&ub, &lb, eps) {
            return Ok(ub);
        }
    }
    unreachable!("the exact stride-1 fallback probe is always accepted")
}

/// Whether every curve entry carries its `(1 + ε)` certificate (see
/// [`curve`]).
fn curve_certified(ub: &[f64], lb: &[f64], eps: f64) -> bool {
    let scale = ub.iter().copied().filter(|v| v.is_finite()).fold(0.0f64, f64::max);
    let floor = 1e-9 * (1.0 + scale);
    ub.iter().zip(lb).all(|(&u, &l)| {
        if u.is_infinite() && l.is_infinite() {
            return true;
        }
        u <= floor || (l > 0.0 && u <= (1.0 + eps) * l)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::dp::curve::optimal_error_curve_with_cancel;
    use crate::dp::error_bounded::error_bounded_with_opts;
    use crate::dp::size_bounded::size_bounded_with_opts;
    use crate::dp::tests::{fig1c, wiggly_series};
    use crate::dp::{DpMode, DpOptions, DpStrategy};
    use crate::weights::Weights;

    fn curve(
        input: &pta_temporal::SequentialRelation,
        kmax: usize,
        s: DpStrategy,
        t: usize,
    ) -> Vec<f64> {
        let w = Weights::uniform(1);
        optimal_error_curve_with_cancel(input, &w, kmax, s, t, CancelToken::inert()).unwrap()
    }

    fn opts(strategy: DpStrategy) -> DpOptions {
        DpOptions { strategy, threads: 1, ..DpOptions::default() }
    }

    #[test]
    fn certify_accepts_within_budget_and_clamps() {
        assert_eq!(certify(1.04, 1.0, 0.05), Some(1.04));
        assert_eq!(certify(0.99, 1.0, 0.05), Some(1.0));
        assert_eq!(certify(1.06, 1.0, 0.05), None);
        assert_eq!(certify(0.0, 0.0, 0.05), Some(1.0));
        assert_eq!(certify(0.5, 0.0, 0.05), None);
        assert_eq!(certify(f64::INFINITY, 1.0, 0.05), None);
        assert_eq!(certify(1.0, f64::NAN, 0.05), None);
    }

    #[test]
    fn probe_strides_schedule_targets_the_budget() {
        // The flat-gate shape: ε = 0.1, n = 4000, c = 64 gives one
        // sparsified probe at stride 4, then the exact fallback.
        assert_eq!(probe_strides(0.1, 4000, 64), vec![4, 1]);
        // Tight ε cannot afford a grid at all: straight to exact.
        assert_eq!(probe_strides(0.01, 4000, 64), vec![1]);
        // Loose ε adds the 4× refinement probe.
        assert_eq!(probe_strides(1.0, 4000, 64), vec![41, 10, 1]);
        // The n/8 cap keeps at least ~8 grid cells per row.
        assert_eq!(probe_strides(1.0, 64, 1), vec![8, 2, 1]);
        // Degenerate sizes never panic and end exact.
        assert_eq!(probe_strides(0.5, 3, 1), vec![1]);
        assert_eq!(*probe_strides(0.3, 500, 500).last().unwrap(), 1);
    }

    #[test]
    fn size_bounded_bound_holds_on_running_example() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.01, 0.1, 0.5] {
            for c in 3..=6 {
                let exact = size_bounded_with_opts(&input, &w, c, opts(DpStrategy::Scan)).unwrap();
                let approx =
                    size_bounded_with_opts(&input, &w, c, opts(DpStrategy::Approx(eps))).unwrap();
                let ratio = approx.stats.certified_ratio;
                assert!(ratio >= 1.0 && ratio <= 1.0 + eps, "eps {eps} c {c}: ratio {ratio}");
                assert!(
                    approx.reduction.sse() <= (1.0 + eps) * exact.reduction.sse() + 1e-9,
                    "eps {eps} c {c}"
                );
                assert_eq!(approx.stats.strategy, DpStrategy::Approx(eps));
            }
        }
    }

    #[test]
    fn both_modes_certify_on_wiggly_data() {
        // ε = 0.3 over n = 450, c = 30 probes stride 3 first; the probe
        // must certify (the accumulated lower-bound slack ≈ c·(b − 1)
        // points of local variance sits inside the 0.3 · SSE budget),
        // so the sparsified run's evaluation count beats the exact
        // scan's.
        let input = wiggly_series(450, 11);
        let w = Weights::uniform(1);
        for mode in [DpMode::Table, DpMode::DivideConquer] {
            let o = DpOptions { mode, ..opts(DpStrategy::Approx(0.3)) };
            let exact_o = DpOptions { mode, ..opts(DpStrategy::Scan) };
            let exact = size_bounded_with_opts(&input, &w, 30, exact_o).unwrap();
            let approx = size_bounded_with_opts(&input, &w, 30, o).unwrap();
            assert!(approx.stats.certified_ratio <= 1.3, "{mode:?}");
            assert!(
                approx.reduction.sse() <= 1.3 * exact.reduction.sse() + 1e-9,
                "{mode:?}: {} vs {}",
                approx.reduction.sse(),
                exact.reduction.sse()
            );
            // At this small n the bracket rows' paired evaluations can
            // offset the sparsification in the divide-and-conquer mode;
            // the table path must already win (the n = 4000 bench gate
            // pins the asymptotic ≥5× reduction).
            if mode == DpMode::Table {
                assert!(
                    approx.stats.cells < exact.stats.cells,
                    "{mode:?}: sparsification must cut evaluations ({} vs {})",
                    approx.stats.cells,
                    exact.stats.cells
                );
            }
        }
    }

    #[test]
    fn error_bounded_satisfies_threshold_with_certificate() {
        let input = wiggly_series(120, 2);
        let w = Weights::uniform(1);
        let emax = crate::dp::max_error(&input, &w).unwrap();
        for eps_bound in [0.05, 0.2, 0.6] {
            let out = error_bounded_with_opts(&input, &w, eps_bound, opts(DpStrategy::Approx(0.1)))
                .unwrap();
            assert!(out.reduction.sse() <= eps_bound * emax + 1e-6);
            assert!(out.stats.certified_ratio <= 1.1);
            assert_eq!(out.stats.strategy, DpStrategy::Approx(0.1));
            // The upper bracket dominates the exact row values, so the
            // approximate size can never undercut the exact minimum.
            let exact =
                error_bounded_with_opts(&input, &w, eps_bound, opts(DpStrategy::Scan)).unwrap();
            assert!(out.reduction.len() >= exact.reduction.len());
        }
    }

    #[test]
    fn curve_entries_stay_within_budget() {
        let input = wiggly_series(140, 9);
        let exact = curve(&input, 40, DpStrategy::Scan, 0);
        let approx = curve(&input, 40, DpStrategy::Approx(0.1), 0);
        assert_eq!(exact.len(), approx.len());
        for (k, (e, a)) in exact.iter().zip(&approx).enumerate() {
            if e.is_infinite() {
                assert!(a.is_infinite(), "size {}", k + 1);
            } else {
                assert!(*a >= *e - 1e-9, "size {}: upper bracket below optimum", k + 1);
                assert!(*a <= 1.1 * *e + 1e-9, "size {}: {} vs {}", k + 1, a, e);
            }
        }
    }

    #[test]
    fn thread_budgets_produce_bit_identical_curves() {
        // ε = 0.5 over n = 600, kmax = 48 starts at stride 4, so the
        // fan-out actually runs sparsified (chunked) open windows.
        let input = wiggly_series(600, 13);
        let base = curve(&input, 48, DpStrategy::Approx(0.5), 1);
        for threads in [2, 4] {
            let par = curve(&input, 48, DpStrategy::Approx(0.5), threads);
            for (k, (a, b)) in base.iter().zip(&par).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}, size {}", k + 1);
            }
        }
    }
}
