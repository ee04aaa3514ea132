//! Oracle for the run-decomposed exact DP: on multi-run inputs the exact
//! optimum is a separable allocation of pieces to gap-free runs, and the
//! run path (per-run curves, min-plus merge, allocation by divide and
//! conquer over the run list, per-run cuts) must agree with the
//! materialized table everywhere.
//!
//! `DpMode::Budget(0)` never fits a table, so it sends every multi-run
//! `PTAc` query down the run path, and every multi-run `PTAε` query whose
//! longest run is at most `cmin` (the inputs here assert that).
//!
//! **Tie rule.** Among allocations whose computed totals tie, the run path
//! keeps the one with the smallest left share at every node of its
//! recursion over the run list, so extra pieces land in the latest runs.
//! Within a run, the cuts follow divide-and-conquer recovery over the
//! run's span (the first minimizing midpoint). `GOLDEN` pins the result.

mod common;

use common::{random_sequential, random_sequential_continuous};
use pta_core::{
    gms_error_bounded, gms_size_bounded, max_error, pta_error_bounded_with_opts,
    pta_size_bounded_with_opts, DpExecMode, DpMode, DpOptions, DpOutcome, DpStats, GapVector,
    Weights,
};
use pta_temporal::SequentialRelation;

const RUNS: DpMode = DpMode::Budget(0);

fn opts(mode: DpMode, threads: usize) -> DpOptions {
    DpOptions::default().with_mode(mode).with_threads(threads)
}

/// Grouped, gappy inputs: `(name, continuous values, relation)`.
fn inputs() -> Vec<(&'static str, bool, SequentialRelation)> {
    vec![
        ("int_p1", false, random_sequential(11, 90, 1, 0.05, 0.2)),
        ("int_p2", false, random_sequential(12, 80, 2, 0.08, 0.15)),
        ("cont_p1", true, random_sequential_continuous(13, 90, 1, 0.05, 0.2)),
        ("cont_p2", true, random_sequential_continuous(14, 80, 2, 0.08, 0.15)),
    ]
}

fn longest_run(input: &SequentialRelation) -> usize {
    let gaps = GapVector::build(input);
    let mut ends = gaps.breaks().to_vec();
    ends.push(input.len());
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let len = end - start;
            start = end;
            len
        })
        .max()
        .unwrap_or(0)
}

/// Counters compared across thread budgets (which only differ in
/// `threads`).
fn counters(s: &DpStats) -> DpStats {
    DpStats { threads: 0, ..*s }
}

/// A run-path outcome matches the table's: same size, SSE within 1e-9
/// relative, and the same bits wherever the boundaries agree — on
/// continuous data, where the optimum is unique, the boundaries must.
fn assert_matches_table(tag: &str, continuous: bool, runs: &DpOutcome, table: &DpOutcome) {
    let (r, t) = (&runs.reduction, &table.reduction);
    assert_eq!(r.len(), t.len(), "{tag}: size");
    assert!(
        (r.sse() - t.sse()).abs() <= 1e-9 * (1.0 + t.sse()),
        "{tag}: {} vs {}",
        r.sse(),
        t.sse()
    );
    if continuous {
        assert_eq!(r.source_ranges(), t.source_ranges(), "{tag}: unique optimum");
    }
    if r.source_ranges() == t.source_ranges() {
        assert_eq!(r.sse().to_bits(), t.sse().to_bits(), "{tag}: same boundaries, same bits");
    }
    assert_eq!(runs.stats.mode, DpExecMode::DivideConquer, "{tag}");
    assert!(runs.stats.peak_rows <= 4, "{tag}: peak rows {}", runs.stats.peak_rows);
}

fn assert_thread_invariant(tag: &str, one: &DpOutcome, two: &DpOutcome) {
    assert_eq!(one.reduction.source_ranges(), two.reduction.source_ranges(), "{tag}");
    assert_eq!(one.reduction.sse().to_bits(), two.reduction.sse().to_bits(), "{tag}");
    assert_eq!(counters(&one.stats), counters(&two.stats), "{tag}: counters");
}

#[test]
fn size_bounded_matches_the_table_for_every_c() {
    for (name, continuous, input) in inputs() {
        let w = Weights::uniform(input.dims());
        assert!(input.cmin() >= 2, "{name}: the run path needs several runs");
        for c in input.cmin()..input.len() {
            let tag = format!("{name} c {c}");
            let table = pta_size_bounded_with_opts(&input, &w, c, opts(DpMode::Table, 1)).unwrap();
            let runs = pta_size_bounded_with_opts(&input, &w, c, opts(RUNS, 1)).unwrap();
            assert_eq!(runs.reduction.len(), c, "{tag}");
            assert_matches_table(&tag, continuous, &runs, &table);
            let two = pta_size_bounded_with_opts(&input, &w, c, opts(RUNS, 2)).unwrap();
            assert_eq!(two.stats.threads, 2);
            assert_thread_invariant(&tag, &runs, &two);
        }
    }
}

#[test]
fn error_bounded_matches_the_table_across_the_eps_grid() {
    for (name, continuous, input) in inputs() {
        let w = Weights::uniform(input.dims());
        assert!(longest_run(&input) <= input.cmin(), "{name}: PTAε must take the run path");
        for eps in [0.0, 0.01, 0.1, 0.3, 0.7, 1.0] {
            let tag = format!("{name} eps {eps}");
            let table =
                pta_error_bounded_with_opts(&input, &w, eps, opts(DpMode::Table, 1)).unwrap();
            let runs = pta_error_bounded_with_opts(&input, &w, eps, opts(RUNS, 1)).unwrap();
            assert_matches_table(&tag, continuous, &runs, &table);
            let two = pta_error_bounded_with_opts(&input, &w, eps, opts(RUNS, 2)).unwrap();
            assert_thread_invariant(&tag, &runs, &two);
        }
    }
}

/// Input size of the tie pin; boundaries are encoded as a `u64` bit
/// mask, so `N < 64`.
const N: usize = 62;

/// `(c, boundary mask, SSE bits)` of the run path for every `c` in
/// `cmin..N` on `dp_tie_golden`'s tie-heavy input; bit `i` of a mask is
/// set iff prefix length `i` is a partition boundary (`0` and `N`
/// included).
const GOLDEN: &[(usize, u64, u64)] = &[
    (11, 0x4402200449000509, 0x40ab3ee9ac357552),
    (12, 0x4402202449000509, 0x40a8f867e49c67e7),
    (13, 0x440220a449000509, 0x40a62ab5b26a35b5),
    (14, 0x440220a449000519, 0x40a42ca8e59d68e9),
    (15, 0x440220a449000599, 0x40a284569c78d6a0),
    (16, 0x448220a449000599, 0x40a11668ae8ae8b2),
    (17, 0x448220a649000599, 0x409fc3accaccacd2),
    (18, 0x448220a749000599, 0x409d58d15d15d164),
    (19, 0x4c8220a749000599, 0x409b43432432432b),
    (20, 0x5c8220a749000599, 0x4099129879879880),
    (21, 0x7c8220a749000599, 0x40974fedcedcedd6),
    (22, 0x5c8220a749880599, 0x40954808f08f08f6),
    (23, 0x5c8220a7498c0599, 0x40935541d41d41da),
    (24, 0x7c8220a7498c0599, 0x4091929729729730),
    (25, 0x7c8230a7498c0599, 0x408fadd8fd8fd90a),
    (26, 0x7c8220a7498f0599, 0x408c7e7424598b76),
    (27, 0x7c8230a7498f0599, 0x4089071ecf043620),
    (28, 0x7cc230a7498f0599, 0x4085e71ecf043620),
    (29, 0x7cc232a7498f0599, 0x4082f82fe0154732),
    (30, 0x7cc232a74d8f0599, 0x408091c979aee0ca),
    (31, 0x7cc236a74d8f0599, 0x407d9e3d9e086c3d),
    (32, 0x7cca36a74d8f0599, 0x407a6b0a6ad5390a),
    (33, 0x7cca36a74d8f0799, 0x40776b0a6ad5390a),
    (34, 0x7cca36a74d8f0f99, 0x4074de1861861876),
    (35, 0x7cce36a74d8f0f99, 0x40729e1861861877),
    (36, 0x7cca36a74d8f0f9f, 0x40702ae52e52e542),
    (37, 0x7cce36a74d8f0f9f, 0x406bd5ca5ca5ca86),
    (38, 0x7cce76a74d8f0f9f, 0x4067d4b94b94b97a),
    (39, 0x7cce36a77d8f0f9f, 0x40643b1fb1fb1fdc),
    (40, 0x7cce76a77d8f0f9f, 0x40603a0ea0ea0ed0),
    (41, 0x7cce76a77dcf0f9f, 0x4059eb94b94b951c),
    (42, 0x7cce76a77fcf0f9f, 0x40551ec7ec7ec84d),
    (43, 0x7cce76a77fcf1f9f, 0x4051d061861861ea),
    (44, 0x7dce76a77fcf1f9f, 0x404d3a5ca5ca5d4f),
    (45, 0x7dce77a77fcf1f9f, 0x4047d3f63f63f6d7),
    (46, 0x7dce77b77fcf1f9f, 0x40426d8fd8fd905e),
    (47, 0x7dce77b77fcfaf9f, 0x403ec7ec7ec7ed84),
    (48, 0x7dce77b77fcfdf9f, 0x40372e52e52e5401),
    (49, 0x7dee77b77fcfdf9f, 0x403121861861873a),
    (50, 0x7dfe77b77fcfdf9f, 0x4024c30c30c30de6),
    (51, 0x7dfe7fb77fcfdf9f, 0x401d861861861b24),
    (52, 0x7dfe7fb7ffcfdf9f, 0x4011861861861aa4),
    (53, 0x7dfe7fb7ffcfdfbf, 0x4005555555555989),
    (54, 0x7dfe7fb7ffcfffbf, 0x3ff7777777777fa0),
    (55, 0x7dff7fb7ffcfffbf, 0x3fe5555555556940),
    (56, 0x7dff7fb7ffdfffbf, 0x3fe0000000001080),
    (57, 0x7dff7fb7ffffffbf, 0x3d5c000000000000),
    (58, 0x7fff7fb7ffffffbf, 0x3d20000000000000),
    (59, 0x7fff7fb7ffffffff, 0x0),
    (60, 0x7fffffb7ffffffff, 0x0),
    (61, 0x7fffffbfffffffff, 0x0),
];

fn mask(out: &DpOutcome) -> u64 {
    out.reduction.source_ranges().iter().fold(1u64 << N, |m, r| m | 1u64 << r.start)
}

#[test]
fn run_path_keeps_its_tie_breaks() {
    let input = random_sequential(29, N, 1, 0.05, 0.12);
    assert_eq!(input.len(), N);
    let w = Weights::uniform(1);
    let mut got = Vec::new();
    for c in input.cmin()..N {
        let one = pta_size_bounded_with_opts(&input, &w, c, opts(RUNS, 1)).unwrap();
        let two = pta_size_bounded_with_opts(&input, &w, c, opts(RUNS, 2)).unwrap();
        assert_thread_invariant(&format!("c {c}"), &one, &two);
        let table = pta_size_bounded_with_opts(&input, &w, c, opts(DpMode::Table, 1)).unwrap();
        assert_matches_table(&format!("c {c}"), false, &one, &table);
        got.push((c, mask(&one), one.reduction.sse().to_bits()));
    }
    let listing: String =
        got.iter().map(|(c, m, s)| format!("    ({c}, {m:#x}, {s:#x}),\n")).collect();
    assert_eq!(got, GOLDEN, "tie-breaks moved; current table:\n{listing}");
}

/// Release-scale smoke: ≈50k tuples of grouped, gappy data under the
/// default `Auto` mode, which takes the run path for both bounds here.
/// Run with `cargo test --release --test run_decomposition --
/// --include-ignored`.
#[test]
#[ignore = "≈50k tuples; run in release"]
fn run_path_scales_to_fifty_thousand_tuples() {
    let input = random_sequential(7, 50_000, 1, 0.01, 0.3);
    let w = Weights::uniform(1);
    let n = input.len();
    assert!(longest_run(&input) <= input.cmin());
    let c = (0.73 * n as f64).ceil() as usize;
    let out = pta_size_bounded_with_opts(&input, &w, c, DpOptions::default()).unwrap();
    assert_eq!(out.reduction.len(), c);
    assert_eq!(out.stats.mode, DpExecMode::DivideConquer);
    assert!(out.stats.peak_rows <= 4);
    let greedy = gms_size_bounded(&input, &w, c).unwrap();
    assert!(out.reduction.sse() <= greedy.stats.total_error * (1.0 + 1e-9));

    let eps = 0.05;
    let budget = eps * max_error(&input, &w).unwrap();
    let eb = pta_error_bounded_with_opts(&input, &w, eps, DpOptions::default()).unwrap();
    assert!(eb.reduction.sse() <= budget * (1.0 + 1e-9), "{} > {budget}", eb.reduction.sse());
    assert!(eb.stats.peak_rows <= 4);
    let greedy = gms_error_bounded(&input, &w, eps).unwrap();
    assert!(eb.reduction.len() <= greedy.reduction.len());
}
