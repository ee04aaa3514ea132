//! Golden pin of *which* optimal cuts each backtracking mode picks on
//! tie-heavy data.
//!
//! On grouped, gappy, small-integer data many partitions share the optimal
//! SSE bit for bit. The materialized table and divide-and-conquer
//! backtracking legitimately resolve those ties differently (see
//! `tie_breaking_matches_scan_on_exact_ties`), so the equivalence suites
//! compare them by size and SSE only. This file pins the exact boundaries
//! and SSE bits each mode returns for every feasible size, at one and two
//! threads: a change to the row fills or the recursion that moves a tie
//! shows up here even when every optimality check still passes.

mod common;

use common::random_sequential;
use pta_core::{pta_size_bounded_with_opts, DpMode, DpOptions, Weights};
use pta_temporal::SequentialRelation;

/// Input size; boundaries are encoded as a `u64` bit mask, so `N < 64`.
const N: usize = 62;

/// `(c, table boundary mask, table SSE bits, dnc boundary mask, dnc SSE
/// bits)` for every `c` in `cmin..N`; bit `i` of a mask is set iff prefix
/// length `i` is a partition boundary (`0` and `N` included).
const GOLDEN: &[(usize, u64, u64, u64, u64)] = &[
    (11, 0x4402200449000509, 0x40ab3ee9ac357552, 0x4402200449000509, 0x40ab3ee9ac357552),
    (12, 0x4402202449000509, 0x40a8f867e49c67e7, 0x4402202449000509, 0x40a8f867e49c67e7),
    (13, 0x440220a449000509, 0x40a62ab5b26a35b5, 0x440220a449000509, 0x40a62ab5b26a35b5),
    (14, 0x440220a449000519, 0x40a42ca8e59d68e9, 0x440220a449000519, 0x40a42ca8e59d68e9),
    (15, 0x440220a449000599, 0x40a284569c78d6a0, 0x440220a449000599, 0x40a284569c78d6a0),
    (16, 0x448220a449000599, 0x40a11668ae8ae8b2, 0x448220a449000599, 0x40a11668ae8ae8b2),
    (17, 0x448220a649000599, 0x409fc3accaccacd2, 0x448220a649000599, 0x409fc3accaccacd2),
    (18, 0x448220a749000599, 0x409d58d15d15d164, 0x448220a749000599, 0x409d58d15d15d164),
    (19, 0x4c8220a749000599, 0x409b43432432432b, 0x4c8220a749000599, 0x409b43432432432b),
    (20, 0x5c8220a749000599, 0x4099129879879880, 0x5c8220a749000599, 0x4099129879879880),
    (21, 0x7c8220a749000599, 0x40974fedcedcedd6, 0x7c8220a749000599, 0x40974fedcedcedd6),
    (22, 0x5c8220a749880599, 0x40954808f08f08f6, 0x5c8220a749880599, 0x40954808f08f08f6),
    (23, 0x5c8220a7498c0599, 0x40935541d41d41da, 0x5c8220a7498c0599, 0x40935541d41d41da),
    (24, 0x7c8220a7498c0599, 0x4091929729729730, 0x7c8220a7498c0599, 0x4091929729729730),
    (25, 0x7c8230a7498c0599, 0x408fadd8fd8fd90a, 0x7c8230a7498c0599, 0x408fadd8fd8fd90a),
    (26, 0x7c8220a7498f0599, 0x408c7e7424598b76, 0x7c8220a7498f0599, 0x408c7e7424598b76),
    (27, 0x7c8230a7498f0599, 0x4089071ecf043620, 0x7c8230a7498f0599, 0x4089071ecf043620),
    (28, 0x7cc230a7498f0599, 0x4085e71ecf043620, 0x7cc230a7498f0599, 0x4085e71ecf043620),
    (29, 0x7cc232a7498f0599, 0x4082f82fe0154732, 0x7cc232a7498f0599, 0x4082f82fe0154732),
    (30, 0x7cc232a74d8f0599, 0x408091c979aee0ca, 0x7cc232a74d8f0599, 0x408091c979aee0ca),
    (31, 0x7cc236a74d8f0599, 0x407d9e3d9e086c3d, 0x7cc236a74d8f0599, 0x407d9e3d9e086c3d),
    (32, 0x7cca36a74d8f0599, 0x407a6b0a6ad5390a, 0x7cca36a74b8f0599, 0x407a6b0a6ad5390a),
    (33, 0x7cca36a74d8f0799, 0x40776b0a6ad5390a, 0x7cca36a74d8f0799, 0x40776b0a6ad5390a),
    (34, 0x7cca36a74d8f0f99, 0x4074de1861861876, 0x7cca36a74b8f0f99, 0x4074de1861861876),
    (35, 0x7cce36a74d8f0f99, 0x40729e1861861877, 0x7cce36a74b8f0f99, 0x40729e1861861877),
    (36, 0x7cca36a74d8f0f9f, 0x40702ae52e52e542, 0x7cca36a74b8f0f9f, 0x40702ae52e52e542),
    (37, 0x7cce36a74d8f0f9f, 0x406bd5ca5ca5ca86, 0x7cce36a74b8f0f9f, 0x406bd5ca5ca5ca86),
    (38, 0x7cce76a74d8f0f9f, 0x4067d4b94b94b97a, 0x7cce76a74b8f0f9f, 0x4067d4b94b94b97a),
    (39, 0x7cce36a77d8f0f9f, 0x40643b1fb1fb1fdc, 0x7cce36a77d8f0f9f, 0x40643b1fb1fb1fdc),
    (40, 0x7cce76a77d8f0f9f, 0x40603a0ea0ea0ed0, 0x7cce76a77d8f0f9f, 0x40603a0ea0ea0ed0),
    (41, 0x7cce76a77dcf0f9f, 0x4059eb94b94b951c, 0x7cce76a77dcf0f9f, 0x4059eb94b94b951c),
    (42, 0x7cce76a77fcf0f9f, 0x40551ec7ec7ec84d, 0x7cce76a77fcf0f9f, 0x40551ec7ec7ec84d),
    (43, 0x7cce76a77fcf1f9f, 0x4051d061861861ea, 0x7cce76a77fcf1f9f, 0x4051d061861861ea),
    (44, 0x7dce76a77fcf1f9f, 0x404d3a5ca5ca5d4f, 0x7dce76a77fcf1f9f, 0x404d3a5ca5ca5d4f),
    (45, 0x7dce77a77fcf1f9f, 0x4047d3f63f63f6d7, 0x7dce76b77fcf1f9f, 0x4047d3f63f63f6d7),
    (46, 0x7dce77b77fcf1f9f, 0x40426d8fd8fd905e, 0x7dce77b77fcf1f9f, 0x40426d8fd8fd905e),
    (47, 0x7dce77b77fcfaf9f, 0x403ec7ec7ec7ed84, 0x7dce77b77fcfaf9f, 0x403ec7ec7ec7ed84),
    (48, 0x7dce77b77fcfdf9f, 0x40372e52e52e5401, 0x7dce77b77fcfdf9f, 0x40372e52e52e5401),
    (49, 0x7dee77b77fcfdf9f, 0x403121861861873a, 0x7dee77b77fcfdf9f, 0x403121861861873a),
    (50, 0x7dfe77b77fcfdf9f, 0x4024c30c30c30de6, 0x7dfe77b77fcfdf9f, 0x4024c30c30c30de6),
    (51, 0x7dfe7fb77fcfdf9f, 0x401d861861861b24, 0x7dfe7fb77fcfdf9f, 0x401d861861861b24),
    (52, 0x7dfe7fb7ffcfdf9f, 0x4011861861861aa4, 0x7dfe7fb7ffcfdf9f, 0x4011861861861aa4),
    (53, 0x7dfe7fb7ffcfdfbf, 0x4005555555555989, 0x7dfe7fb7ffcfdfbf, 0x4005555555555989),
    (54, 0x7dfe7fb7ffcfffbf, 0x3ff7777777777fa0, 0x7dfe7fb7ffcfffbf, 0x3ff7777777777fa0),
    (55, 0x7dff7fb7ffcfffbf, 0x3fe5555555556940, 0x7dff7fb7ffcfffbf, 0x3fe5555555556940),
    (56, 0x7dff7fb7ffefffbf, 0x3fe0000000001080, 0x7dff7fb7ffdfffbf, 0x3fe0000000001080),
    (57, 0x7dff7fb7ffffffbf, 0x3d5c000000000000, 0x7dff7fb7ffffffbf, 0x3d5c000000000000),
    (58, 0x7fff7fb7ffffffbf, 0x3d20000000000000, 0x7fff7fb7ffffffbf, 0x3d20000000000000),
    (59, 0x7fff7fb7ffffffff, 0x0, 0x7fff7fb7ffffffff, 0x0),
    (60, 0x7fffffb7ffffffff, 0x0, 0x7fff7fbfffffffff, 0x0),
    (61, 0x7ffffff7ffffffff, 0x0, 0x7fff7fffffffffff, 0x0),
];

fn input() -> SequentialRelation {
    random_sequential(29, N, 1, 0.05, 0.12)
}

fn run(input: &SequentialRelation, c: usize, mode: DpMode, threads: usize) -> (u64, u64) {
    let w = Weights::uniform(input.dims());
    let opts = DpOptions::default().with_mode(mode).with_threads(threads);
    let out = pta_size_bounded_with_opts(input, &w, c, opts).unwrap();
    let mut mask = 1u64 << N;
    for r in out.reduction.source_ranges() {
        mask |= 1u64 << r.start;
    }
    (mask, out.reduction.sse().to_bits())
}

#[test]
fn backtracking_modes_keep_their_tie_breaks() {
    let input = input();
    assert_eq!(input.len(), N);
    let mut got = Vec::new();
    for c in input.cmin()..N {
        let table = run(&input, c, DpMode::Table, 1);
        let dnc = run(&input, c, DpMode::DivideConquer, 1);
        assert_eq!(run(&input, c, DpMode::Table, 2), table, "c {c}: table at 2 threads");
        assert_eq!(run(&input, c, DpMode::DivideConquer, 2), dnc, "c {c}: dnc at 2 threads");
        got.push((c, table.0, table.1, dnc.0, dnc.1));
    }
    let listing: String = got
        .iter()
        .map(|(c, tm, ts, dm, ds)| format!("    ({c}, {tm:#x}, {ts:#x}, {dm:#x}, {ds:#x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "tie-breaks moved; current table:\n{listing}");
    // The pin is only meaningful if the modes really disagree somewhere.
    assert!(got.iter().any(|(_, tm, _, dm, _)| tm != dm), "no tie separates the modes");
}
