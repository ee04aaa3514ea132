//! `PTAε`: exact error-bounded PTA (Fig. 8).

use pta_temporal::SequentialRelation;

use crate::dp::runs::Goal;
use crate::dp::{
    approx, max_error_over_runs, DpEngine, DpOptions, DpOutcome, Exact, SweepBuf, Tally,
};
use crate::error::CoreError;
use crate::reduction::Reduction;
use crate::weights::Weights;

/// Exact error-bounded PTA: the *smallest* reduction of `input` whose SSE
/// stays within `epsilon · SSE_max` (Def. 7), where `SSE_max` is the error
/// of the maximal reduction to `cmin` tuples.
///
/// The DP fills rows `k = 1, 2, ...`; the optimal error `E[k][n]`
/// decreases monotonically with `k`, so the first satisfying row gives the
/// minimal size (§5.5). Same asymptotic cost as `PTAc`. The row count is
/// unknown up front, so split-point rows are recorded only while they fit
/// the mode's table budget; a satisfying row beyond the budget is
/// recovered by divide-and-conquer backtracking instead — memory stays
/// bounded and no input size is rejected.
pub fn error_bounded(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
) -> Result<DpOutcome, CoreError> {
    error_bounded_with_opts(input, weights, epsilon, DpOptions::default())
}

/// `PTAε` with every knob chosen by the caller (see
/// [`size_bounded_with_opts`](crate::dp::size_bounded::size_bounded_with_opts));
/// under a gap-tolerant policy both the maximal error and the feasible
/// merges follow the policy.
pub fn error_bounded_with_opts(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
    opts: DpOptions,
) -> Result<DpOutcome, CoreError> {
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(CoreError::invalid_error_bound(epsilon));
    }
    let n = input.len();
    if n == 0 {
        return Ok(DpOutcome { reduction: Reduction::identity(input), stats: Default::default() });
    }
    let engine = DpEngine::new(input, weights, &opts, true, true)?;
    let emax = max_error_over_runs(weights, &engine.stats, &engine.gaps);
    if !emax.is_finite() {
        return Err(CoreError::non_finite_data("maximal reduction error is not finite"));
    }
    // Absolute tolerance so ε = 1 stops exactly at cmin despite the DP and
    // the direct Emax summation accumulating rounding differently.
    let threshold = epsilon * emax + 1e-9 * (1.0 + emax);
    run_with_threshold(input, weights, &engine, &opts, threshold)
}

/// The Fig. 8 row loop against a precomputed absolute threshold — the
/// exact pass, or the approximate tier's probes around it. Factored out
/// so the non-finite backstop of [`DpEngine::error_pass`] is
/// unit-testable.
fn run_with_threshold(
    input: &SequentialRelation,
    weights: &Weights,
    engine: &DpEngine,
    opts: &DpOptions,
    threshold: f64,
) -> Result<DpOutcome, CoreError> {
    let row_budget = opts.mode.row_budget(engine.n).min(engine.n);
    let reduce = |b: &[usize]| {
        Reduction::from_boundaries_with_policy(input, weights, &engine.stats, b, opts.policy)
    };
    if let Some(eps) = engine.approx_eps() {
        // The row count is unknown up front; 32 pieces is a conservative
        // stand-in — a deeper run just starts at a finer stride.
        return approx::probe(engine, eps, 32, |grid, buf, tally| {
            let pass = engine.error_pass(grid, threshold, row_budget, buf, tally)?;
            Ok((reduce(&pass.boundaries)?, pass))
        });
    }
    let mut tally = Tally::default();
    let pass = if engine.decomposes_error(opts.mode) {
        engine.run_pass(Goal::Error(threshold), &mut tally)?
    } else {
        let mut buf = SweepBuf::new(engine.n + 1);
        engine.error_pass(&Exact, threshold, row_budget, &mut buf, &mut tally)?
    };
    let reduction = reduce(&pass.boundaries)?;
    Ok(DpOutcome { reduction, stats: engine.stats(tally, pass.peak, pass.mode, 1.0) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::size_bounded::size_bounded;
    use crate::dp::tests::fig1c;
    use crate::dp::{DpExecMode, DpMode};

    /// Example 7, consistent reading (see DESIGN.md errata): ε = 1 gives
    /// the maximal reduction to 3 tuples; ε = 0.2 gives 4 tuples as in
    /// Fig. 1(d). (The paper prints "2%", but E[4][7]/SSE_max ≈ 18.3% and
    /// E[5][7]/SSE_max ≈ 2.5%, so 2% would give 6 tuples; 20% gives
    /// exactly 4.)
    #[test]
    fn example_7_bounds() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let full = error_bounded(&input, &w, 1.0).unwrap();
        assert_eq!(full.reduction.len(), 3);
        let r02 = error_bounded(&input, &w, 0.2).unwrap();
        assert_eq!(r02.reduction.len(), 4);
        assert!((r02.reduction.sse() - 49_166.666_667).abs() < 1e-3);
        let r002 = error_bounded(&input, &w, 0.02).unwrap();
        assert_eq!(r002.reduction.len(), 6);
    }

    #[test]
    fn zero_epsilon_merges_only_free_pairs() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let out = error_bounded(&input, &w, 0.0).unwrap();
        // No adjacent pair has identical values, so nothing merges freely.
        assert_eq!(out.reduction.len(), 7);
        assert_eq!(out.reduction.sse(), 0.0);
    }

    /// The error-bounded result of size k matches the size-bounded optimum
    /// for the same k (both are optimal reductions to k tuples).
    #[test]
    fn agrees_with_size_bounded_at_same_size() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.05, 0.2, 0.5, 1.0] {
            let eb = error_bounded(&input, &w, eps).unwrap();
            let sb = size_bounded(&input, &w, eb.reduction.len()).unwrap();
            assert!(
                (eb.reduction.sse() - sb.reduction.sse()).abs() < 1e-6,
                "eps {eps}: {} vs {}",
                eb.reduction.sse(),
                sb.reduction.sse()
            );
        }
    }

    /// Divide-and-conquer recovery returns the same minimal reduction as
    /// the recorded table, and reports bounded memory while doing so.
    #[test]
    fn modes_agree_across_epsilons() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.0, 0.02, 0.05, 0.2, 0.5, 1.0] {
            let table = error_bounded_with_opts(
                &input,
                &w,
                eps,
                DpOptions::default().with_mode(DpMode::Table),
            )
            .unwrap();
            let dnc = error_bounded_with_opts(
                &input,
                &w,
                eps,
                DpOptions::default().with_mode(DpMode::DivideConquer),
            )
            .unwrap();
            assert_eq!(table.stats.mode, DpExecMode::Table);
            assert_eq!(dnc.stats.mode, DpExecMode::DivideConquer);
            assert!(dnc.stats.peak_rows <= 4, "eps {eps}: {} rows", dnc.stats.peak_rows);
            assert_eq!(table.reduction.source_ranges(), dnc.reduction.source_ranges(), "eps {eps}");
            assert!((table.reduction.sse() - dnc.reduction.sse()).abs() < 1e-9, "eps {eps}");
        }
    }

    /// A poisoned (NaN) threshold must surface as a typed error, not as a
    /// release-mode index underflow in backtrack — the `found == 0`
    /// backstop for non-finite data that slipped past the builder.
    #[test]
    fn nan_threshold_yields_typed_error_not_panic() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let opts = DpOptions::default().with_threads(1);
        let engine = DpEngine::new(&input, &w, &opts, true, true).unwrap();
        let err = run_with_threshold(&input, &w, &engine, &opts, f64::NAN).unwrap_err();
        assert!(err.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
        assert!(err.to_string().contains("non-finite"));
    }

    /// The satisfied bound really holds, and size is minimal: one tuple
    /// fewer would violate the bound.
    #[test]
    fn result_is_minimal_satisfying_size() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let emax = crate::dp::max_error(&input, &w).unwrap();
        for eps in [0.01, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let out = error_bounded(&input, &w, eps).unwrap();
            let c = out.reduction.len();
            assert!(out.reduction.sse() <= eps * emax + 1e-6);
            if c > input.cmin() {
                let smaller = size_bounded(&input, &w, c - 1).unwrap();
                assert!(
                    smaller.reduction.sse() > eps * emax - 1e-6,
                    "eps {eps}: reduction to {} tuples also satisfies the bound",
                    c - 1
                );
            }
        }
    }

    #[test]
    fn epsilon_out_of_range_is_rejected() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let low = error_bounded(&input, &w, -0.1).unwrap_err();
        assert!(low.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
        let high = error_bounded(&input, &w, 1.5).unwrap_err();
        assert!(high.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
    }

    #[test]
    fn empty_input() {
        let input = SequentialRelation::empty(1);
        let out = error_bounded(&input, &Weights::uniform(1), 0.5).unwrap();
        assert!(out.reduction.is_empty());
    }
}
