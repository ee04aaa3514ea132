//! The batch workloads, `gappy-exact` and `bulk-greedy`: an analyst's
//! `reduce` over a CSV document, from CSV text in memory to output CSV
//! bytes, through `pta::read_csv` → `PtaQuery::execute` →
//! `pta_temporal::csv::write_relation`.

use std::time::{Duration, Instant};

use pta::{Agg, Algorithm, Bound, Delta, PtaQuery, RowPolicy};
use pta_core::{
    max_error, pta_error_bounded_with_opts, pta_size_bounded_with_opts, DpExecMode, DpOptions,
    DpStats, Estimates, GPtaC, GPtaE, GapPolicy, GreedyStats, Reduction, Weights,
};
use pta_ita::{ita, ItaQuerySpec, StreamingIta};
use pta_temporal::csv::{parse_schema, write_relation};
use pta_temporal::Schema;

use crate::gen::{fnv1a, gappy_csv};
use crate::report::{calibrated, median, secs, Report};
use crate::trace::Tracer;
use crate::{time_reps, Args, THREADS};

/// Relative slack for SSE comparisons between differently summed
/// figures (greedy accumulates merge errors, the DP sums prefix stats).
const SSE_SLACK: f64 = 1e-9;

pub struct BatchSpec {
    pub groups: usize,
    pub rows: usize,
    /// Interval starts are drawn from `1..=horizon`.
    pub horizon: i64,
    /// Exact DP (`PTAc`/`PTAε`) or greedy with δ = 1 (`gPTAc`/`gPTAε`).
    pub exact: bool,
    /// `c = ⌈c_ratio · n⌉` for the size-bounded query.
    pub c_ratio: f64,
    pub eps: f64,
}

pub const GAPPY_EXACT: BatchSpec =
    BatchSpec { groups: 2, rows: 4000, horizon: 200_000, exact: true, c_ratio: 0.73, eps: 0.05 };

pub const BULK_GREEDY: BatchSpec =
    BatchSpec { groups: 100, rows: 4000, horizon: 200_000, exact: false, c_ratio: 0.51, eps: 0.05 };

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Size,
    Error,
}

impl Kind {
    fn suffix(self) -> &'static str {
        match self {
            Kind::Size => "ptac",
            Kind::Error => "ptae",
        }
    }
}

const KINDS: [Kind; 2] = [Kind::Size, Kind::Error];

/// What a later run (or the parent commit) must reproduce bit for bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Fingerprint {
    size: usize,
    sse_bits: u64,
    csv_hash: u64,
}

impl Fingerprint {
    fn sse(&self) -> f64 {
        f64::from_bits(self.sse_bits)
    }
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One generated input plus the reference figures the oracle needs.
struct Input {
    text: String,
    schema: Schema,
    spec: ItaQuerySpec,
    rows: usize,
    n: usize,
    runs: usize,
    c: usize,
    eps: f64,
    exact: bool,
    /// `ε · E_max`: the error-bounded query's SSE budget.
    budget: f64,
    /// Exact runs only: greedy gPTAc's SSE at `c` and gPTAε's size at ε,
    /// which the exact optimum may not exceed.
    greedy_sse: f64,
    greedy_size: usize,
}

impl Input {
    fn new(spec: &BatchSpec, seed: u64) -> Res<Input> {
        let text = gappy_csv(seed, spec.groups, spec.rows, spec.horizon);
        let schema = parse_schema(crate::gen::SCHEMA).map_err(err)?;
        let ita_spec = ItaQuerySpec::new(&["G"], vec![Agg::avg("V").as_output("AvgV")]);
        let (rel, _) =
            pta::read_csv(schema.clone(), &text, THREADS, RowPolicy::Strict).map_err(err)?;
        let seq = ita(&rel, &ita_spec).map_err(err)?;
        let n = seq.len();
        let c = (spec.c_ratio * n as f64).ceil() as usize;
        let emax = max_error(&seq, &Weights::uniform(1)).map_err(err)?;
        let mut input = Input {
            text,
            schema,
            spec: ita_spec,
            rows: rel.len(),
            n,
            runs: seq.cmin(),
            c,
            eps: spec.eps,
            exact: spec.exact,
            budget: spec.eps * emax,
            greedy_sse: f64::INFINITY,
            greedy_size: usize::MAX,
        };
        if spec.exact {
            input.greedy_sse = input.run(&input.query(Kind::Size, false))?.sse();
            input.greedy_size = input.run(&input.query(Kind::Error, false))?.size;
        }
        Ok(input)
    }

    fn query(&self, kind: Kind, exact: bool) -> PtaQuery {
        let q = PtaQuery::new()
            .group_by(&["G"])
            .aggregate(Agg::avg("V").as_output("AvgV"))
            .threads(THREADS)
            .bound(match kind {
                Kind::Size => Bound::Size(self.c),
                Kind::Error => Bound::Error(self.eps),
            });
        if exact {
            q
        } else {
            q.algorithm(Algorithm::Greedy { delta: Delta::Finite(1) })
        }
    }

    /// One query as the user runs it: CSV text → output CSV bytes.
    fn run(&self, query: &PtaQuery) -> Res<Fingerprint> {
        let (rel, _) = pta::read_csv(self.schema.clone(), &self.text, THREADS, RowPolicy::Strict)
            .map_err(err)?;
        let out = query.execute(&rel).map_err(err)?;
        let mut bytes = Vec::new();
        write_relation(&out.table, &mut bytes).map_err(err)?;
        Ok(Fingerprint {
            size: out.reduction.len(),
            sse_bits: out.reduction.sse().to_bits(),
            csv_hash: fnv1a(&bytes),
        })
    }

    /// The oracle: the answer's bound holds, and on exact runs the
    /// optimum is no worse than greedy's.
    fn check(&self, kind: Kind, fp: &Fingerprint) -> Result<(), String> {
        let sse = fp.sse();
        let ok = match kind {
            Kind::Size => {
                fp.size == self.c && (!self.exact || sse <= self.greedy_sse * (1.0 + SSE_SLACK))
            }
            Kind::Error => {
                sse <= self.budget * (1.0 + SSE_SLACK)
                    && (!self.exact || fp.size <= self.greedy_size)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} answer size {} sse {sse} breaks the oracle (c {}, budget {}, greedy sse {}, \
                 greedy size {})",
                kind.suffix(),
                fp.size,
                self.c,
                self.budget,
                self.greedy_sse,
                self.greedy_size
            ))
        }
    }
}

/// Checks and counts one answer: the oracle, and equality with the first
/// answer of its kind in this run.
fn record(
    report: &mut Report,
    input: &Input,
    kind: Kind,
    first: &mut [Option<Fingerprint>; 2],
    got: Res<Fingerprint>,
) {
    let verdict = got.and_then(|fp| {
        input.check(kind, &fp)?;
        let slot = &mut first[kind as usize];
        match slot {
            None => {
                *slot = Some(fp);
                Ok(())
            }
            Some(f) if *f == fp => Ok(()),
            Some(f) => Err(format!("{} answer {fp:?} differs from the first {f:?}", kind.suffix())),
        }
    });
    match verdict {
        Ok(()) => report.tally(true),
        Err(why) => report.fail(why),
    }
}

/// Set-up: CSV text to a relation in memory, repeated, in seconds.
fn setup_samples(input: &Input) -> Res<Vec<f64>> {
    time_reps(Duration::from_millis(800), 5, 200, || {
        pta::read_csv(input.schema.clone(), &input.text, THREADS, RowPolicy::Strict).map_err(err)
    })
}

pub fn run(spec: &BatchSpec, args: &Args) -> Result<Report, String> {
    let input = Input::new(spec, args.seed)?;
    let mut report = Report::default();
    report.note(format!(
        "input: {} CSV rows, ITA n {}, ita.runs {}, c {}, eps {}, exact {}",
        input.rows, input.n, input.runs, input.c, input.eps, input.exact
    ));
    let budget = Duration::from_secs(args.seconds);
    let mut first = [None, None];
    if args.trace {
        report.trace = Some(run_traced(&input, budget, &mut report, &mut first)?);
    } else {
        let (setup, slow) = calibrated(|| setup_samples(&input));
        let setup = setup?;
        // Wall seconds per kind, and the same calibrated.
        let mut raw: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut cal: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let queries = KINDS.map(|k| input.query(k, input.exact));
        let t0 = Instant::now();
        while raw[0].is_empty() || t0.elapsed() < budget {
            for kind in KINDS {
                let ((got, wall), slow) = calibrated(|| {
                    let t = Instant::now();
                    (input.run(&queries[kind as usize]), secs(t.elapsed()))
                });
                raw[kind as usize].push(wall);
                cal[kind as usize].push(wall / slow);
                record(&mut report, &input, kind, &mut first, got);
            }
        }
        report.note(format!(
            "uncalibrated medians: ptac_ms {} ptae_ms {} setup_s {}",
            median(&raw[0]) * 1e3,
            median(&raw[1]) * 1e3,
            median(&setup)
        ));
        report.timing("setup_s", "s", 1.0 / slow, &setup);
        report.value("peak_rss_mb", "MB", crate::report::peak_rss_mb()?);
        report.timing("ptac_ms", "ms", 1e3, &cal[0]);
        report.timing("ptae_ms", "ms", 1e3, &cal[1]);
        let busy: f64 = cal.iter().flatten().sum();
        report.value("ops_per_s", "1/s", (cal[0].len() + cal[1].len()) as f64 / busy);
    }
    for kind in KINDS {
        if let Some(fp) = first[kind as usize] {
            report.note(format!(
                "result {}: size {} sse_bits {:#018x} csv_fnv1a {:#018x}",
                kind.suffix(),
                fp.size,
                fp.sse_bits,
                fp.csv_hash
            ));
        }
    }
    Ok(report)
}

/// Counters of one traced query.
#[derive(Default)]
struct QueryLayers {
    dp: Option<DpStats>,
    greedy: Option<GreedyStats>,
    output_bytes: usize,
}

/// The facade pipeline of one query, rebuilt from each layer's public
/// entry point with a span around every call (drops included, so the
/// spans cover the query's whole wall time).
fn traced_query(
    tr: &mut Tracer,
    input: &Input,
    kind: Kind,
) -> Res<(usize, Fingerprint, QueryLayers)> {
    let root = tr.open(if kind == Kind::Size { "query.ptac" } else { "query.ptae" });
    let weights = Weights::uniform(1);
    let mut layers = QueryLayers::default();
    let (rel, _) = tr
        .span("csv", || {
            pta::read_csv(input.schema.clone(), &input.text, THREADS, RowPolicy::Strict)
        })
        .map_err(err)?;
    let reduction: Reduction = if input.exact {
        let seq = tr.span("ita", || ita(&rel, &input.spec)).map_err(err)?;
        tr.span("csv", || drop(rel));
        let opts = DpOptions::default().with_threads(THREADS);
        let out = tr
            .span("dp", || match kind {
                Kind::Size => pta_size_bounded_with_opts(&seq, &weights, input.c, opts),
                Kind::Error => pta_error_bounded_with_opts(&seq, &weights, input.eps, opts),
            })
            .map_err(err)?;
        tr.span("ita", || drop(seq));
        layers.dp = Some(out.stats);
        out.reduction
    } else {
        let estimates = if kind == Kind::Error {
            let seq = tr.span("ita", || ita(&rel, &input.spec)).map_err(err)?;
            let est = tr.span("greedy", || Estimates::exact(&seq, &weights)).map_err(err)?;
            tr.span("ita", || drop(seq));
            Some(est)
        } else {
            None
        };
        let rows = tr
            .span("ita.stream", || {
                StreamingIta::new(&rel, &input.spec).map(Iterator::collect::<Vec<_>>)
            })
            .map_err(err)?;
        tr.span("csv", || drop(rel));
        let out = tr
            .span("greedy", || {
                let delta = Delta::Finite(1);
                match estimates {
                    None => {
                        let mut alg =
                            GPtaC::with_policy(weights.clone(), input.c, delta, GapPolicy::Strict);
                        for row in &rows {
                            alg.push(&row.key, row.interval, &row.values)?;
                        }
                        alg.finish()
                    }
                    Some(est) => {
                        let mut alg = GPtaE::with_policy(
                            weights.clone(),
                            input.eps,
                            delta,
                            est,
                            GapPolicy::Strict,
                        )?;
                        for row in &rows {
                            alg.push(&row.key, row.interval, &row.values)?;
                        }
                        alg.finish()
                    }
                }
            })
            .map_err(err)?;
        tr.span("ita.stream", || drop(rows));
        if out.stats.clamped_to_cmin {
            return Err(format!("gPTAc clamped to cmin {}", out.reduction.len()));
        }
        layers.greedy = Some(out.stats);
        out.reduction
    };
    let bytes = tr.span("output", || -> Res<Vec<u8>> {
        let table =
            pta::to_temporal_relation(reduction.relation(), &["G"], &["AvgV"]).map_err(err)?;
        let mut bytes = Vec::new();
        write_relation(&table, &mut bytes).map_err(err)?;
        Ok(bytes)
    })?;
    let fp = Fingerprint {
        size: reduction.len(),
        sse_bits: reduction.sse().to_bits(),
        csv_hash: fnv1a(&bytes),
    };
    layers.output_bytes = bytes.len();
    tr.span("output", || drop((reduction, bytes)));
    tr.close(root);
    Ok((root, fp, layers))
}

/// The traced run: untraced size-bounded queries (the base of
/// `trace.overhead`), then traced queries of both kinds, then the ITA
/// entry points alone. Every traced answer must equal the facade's.
fn run_traced(
    input: &Input,
    budget: Duration,
    report: &mut Report,
    first: &mut [Option<Fingerprint>; 2],
) -> Result<Tracer, String> {
    let base_query = input.query(Kind::Size, input.exact);
    let mut untraced = Vec::new();
    let t0 = Instant::now();
    while untraced.is_empty() || t0.elapsed() < budget / 3 {
        let t = Instant::now();
        let got = input.run(&base_query);
        untraced.push(secs(t.elapsed()));
        record(report, input, Kind::Size, first, got);
    }
    // The facade's error-bounded answer, for the traced one to match.
    record(report, input, Kind::Error, first, input.run(&input.query(Kind::Error, input.exact)));

    let mut tr = Tracer::default();
    let mut roots: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut layers: [Vec<QueryLayers>; 2] = [Vec::new(), Vec::new()];
    let t1 = Instant::now();
    while roots[0].is_empty() || t1.elapsed() < budget * 2 / 3 {
        for kind in KINDS {
            match traced_query(&mut tr, input, kind) {
                Ok((root, fp, l)) => {
                    record(report, input, kind, first, Ok(fp));
                    roots[kind as usize].push(root);
                    layers[kind as usize].push(l);
                }
                Err(e) => report.fail(e),
            }
        }
    }

    let rel = pta::read_csv(input.schema.clone(), &input.text, THREADS, RowPolicy::Strict)
        .map_err(err)?
        .0;
    let reps = Duration::from_millis(600);
    let ita_s = time_reps(reps, 3, 100, || ita(&rel, &input.spec).map_err(err))?;
    let stream_s = time_reps(reps, 3, 100, || {
        StreamingIta::new(&rel, &input.spec).map(Iterator::count).map_err(err)
    })?;

    let csv: Vec<f64> = roots.iter().flatten().map(|&r| tr.child_secs(r, "csv")).collect();
    report.timing("csv.parse_s", "s", 1.0, &csv);
    report.value("csv.rows_per_s", "1/s", input.rows as f64 / median(&csv));
    report_ita(report, &ita_s, &stream_s, input.n, input.runs);
    report.value("query.c", "count", input.c as f64);
    for kind in KINDS {
        let k = kind.suffix();
        let rs = &roots[kind as usize];
        let ls = &layers[kind as usize];
        let per = |name: &str| -> Vec<f64> { rs.iter().map(|&r| tr.child_secs(r, name)).collect() };
        let walls: Vec<f64> = rs.iter().map(|&r| tr.get(r).secs()).collect();
        let dp_s = per("dp");
        let dp_share: Vec<f64> = dp_s.iter().zip(&walls).map(|(d, w)| d / w).collect();
        report_dp(report, k, median(&dp_s), ls.first().and_then(|l| l.dp));
        report.value(&format!("dp.share.{k}"), "ratio", median(&dp_share));
        let g = ls.first().and_then(|l| l.greedy).unwrap_or_default();
        report.timing(&format!("greedy.s.{k}"), "s", 1.0, &per("greedy"));
        report.value(&format!("greedy.merges.{k}"), "count", g.merges as f64);
        report.value(&format!("greedy.max_heap.{k}"), "count", g.max_heap_size as f64);
        report.timing(&format!("output.s.{k}"), "s", 1.0, &per("output"));
        report.value(
            &format!("output.bytes.{k}"),
            "bytes",
            ls.first().map_or(0, |l| l.output_bytes) as f64,
        );
    }
    report_serve_absent(report);
    let coverage = KINDS
        .iter()
        .map(|&k| median(&roots[k as usize].iter().map(|&r| tr.coverage(r)).collect::<Vec<_>>()))
        .fold(f64::INFINITY, f64::min);
    if coverage < 0.95 {
        report.check_failures.push(format!("trace.coverage {coverage} < 0.95"));
    }
    report.value("trace.coverage", "ratio", coverage);
    let traced: Vec<f64> = roots[0].iter().map(|&r| tr.get(r).secs()).collect();
    report.value("trace.overhead", "ratio", median(&traced) / median(&untraced));
    Ok(tr)
}

/// `ita.*` metrics, shared with the serve workload.
pub fn report_ita(report: &mut Report, ita_s: &[f64], stream_s: &[f64], n: usize, runs: usize) {
    report.timing("ita.s", "s", 1.0, ita_s);
    report.timing("ita.stream_s", "s", 1.0, stream_s);
    report.value("ita.tuples", "count", n as f64);
    report.value("ita.runs", "count", runs as f64);
    report.value("ita.mean_run_len", "count", n as f64 / runs.max(1) as f64);
}

/// `dp.*.<kind>` metrics; the counters read zero without `stats` (no DP
/// ran, or its entry point reports none).
pub fn report_dp(report: &mut Report, kind: &str, secs: f64, stats: Option<DpStats>) {
    let s = stats.unwrap_or_default();
    report.value(&format!("dp.s.{kind}"), "s", secs);
    report.value(&format!("dp.cells.{kind}"), "count", s.cells as f64);
    report.value(&format!("dp.scan_cells.{kind}"), "count", s.scan_cells as f64);
    report.value(&format!("dp.monge_cells.{kind}"), "count", s.monge_cells as f64);
    let ns = if s.cells > 0 { secs * 1e9 / s.cells as f64 } else { 0.0 };
    report.value(&format!("dp.ns_per_cell.{kind}"), "ns", ns);
    report.value(&format!("dp.peak_rows.{kind}"), "count", s.peak_rows as f64);
    report.value(&format!("dp.threads.{kind}"), "count", s.threads as f64);
    // 0 = no counters, 1 = materialized split table, 2 = divide and conquer.
    let mode = match stats.map(|s| s.mode) {
        None => 0.0,
        Some(DpExecMode::Table) => 1.0,
        Some(DpExecMode::DivideConquer) => 2.0,
    };
    report.value(&format!("dp.mode.{kind}"), "code", mode);
}

/// The `serve.*` metrics read zero on workloads that start no server.
fn report_serve_absent(report: &mut Report) {
    for (name, unit) in crate::serve::SERVE_METRICS {
        report.value(name, unit, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TINY_GAPPY;

    #[test]
    fn a_wrong_answer_raises_fail_frac() {
        let input = Input::new(&TINY_GAPPY, 5).unwrap();
        let mut report = Report::default();
        let mut first = [None, None];
        for kind in KINDS {
            let fp = input.run(&input.query(kind, true)).unwrap();
            record(&mut report, &input, kind, &mut first, Ok(fp));
        }
        assert_eq!(report.fail_frac(), 0.0);
        let good = first[0].unwrap();
        // One tuple too many breaks the size bound.
        let oversized = Fingerprint { size: good.size + 1, ..good };
        record(&mut report, &input, Kind::Size, &mut first, Ok(oversized));
        // The same size with another output document differs from the first.
        let other_csv = Fingerprint { csv_hash: good.csv_hash ^ 1, ..good };
        record(&mut report, &input, Kind::Size, &mut first, Ok(other_csv));
        // An SSE above greedy's at the same size cannot be optimal.
        let worse = Fingerprint { sse_bits: (input.greedy_sse * 2.0).to_bits(), ..good };
        record(&mut report, &input, Kind::Size, &mut first, Ok(worse));
        record(&mut report, &input, Kind::Error, &mut first, Err("refused".into()));
        assert_eq!((report.failed, report.attempted), (4, 6));
        assert!(!report.correct());
    }

    #[test]
    fn the_traced_pipeline_matches_the_facade() {
        for spec in [TINY_GAPPY, crate::tests::TINY_BULK] {
            let input = Input::new(&spec, 8).unwrap();
            let mut tr = Tracer::default();
            for kind in KINDS {
                let (root, fp, _) = traced_query(&mut tr, &input, kind).unwrap();
                assert_eq!(fp, input.run(&input.query(kind, spec.exact)).unwrap());
                assert!(tr.coverage(root) > 0.5);
            }
        }
    }
}
