//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7): it prints the same rows/series the paper
//! plots and writes a CSV under `results/`. Binaries accept
//! `--scale small|medium|paper` (default `medium`) — absolute dataset
//! sizes are scaled, the *shapes* reproduce at every scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pta::{Comparator, Summary, SummaryStats};
use pta_core::Delta;
use pta_temporal::SequentialRelation;

pub use pta_datasets::Scale;

/// Command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset scale.
    pub scale: Scale,
    /// Directory CSV outputs are written to.
    pub out_dir: PathBuf,
}

impl HarnessArgs {
    /// Parses `--scale <s>` and `--out <dir>` from `std::env::args`,
    /// exiting with a usage message on unknown flags.
    pub fn parse() -> Self {
        let mut scale = Scale::Medium;
        let mut out_dir = PathBuf::from("results");
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    scale = Scale::parse(&v).unwrap_or_else(|| {
                        eprintln!("unknown scale {v:?}; use small|medium|paper");
                        std::process::exit(2);
                    });
                }
                "--out" => {
                    out_dir = PathBuf::from(args.next().unwrap_or_default());
                }
                "--help" | "-h" => {
                    println!("usage: <bin> [--scale small|medium|paper] [--out DIR]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other:?}");
                    std::process::exit(2);
                }
            }
        }
        Self { scale, out_dir }
    }

    /// Writes a CSV file under the output directory.
    pub fn write_csv<R: AsRef<[String]>>(&self, name: &str, header: &[&str], rows: &[R]) {
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(name);
        let mut buf = String::new();
        buf.push_str(&header.join(","));
        buf.push('\n');
        for row in rows {
            buf.push_str(&row.as_ref().join(","));
            buf.push('\n');
        }
        match fs::File::create(&path).and_then(|mut f| f.write_all(buf.as_bytes())) {
            Ok(()) => println!("[written {}]", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Prints an aligned text table.
pub fn print_table<R: AsRef<[String]>>(title: &str, header: &[&str], rows: &[R]) {
    println!("\n== {title} ==");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.as_ref().iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(cols) {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        s
    };
    println!("{}", line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * cols));
    for row in rows {
        println!("{}", line(row.as_ref()));
    }
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Formats a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A row of strings (helper for the table printers).
pub fn row<D: Display>(cells: impl IntoIterator<Item = D>) -> Vec<String> {
    cells.into_iter().map(|c| c.to_string()).collect()
}

/// The printable name of a read-ahead δ (shared by the δ-study harnesses
/// fig17 and fig20).
pub fn delta_name(d: Delta) -> String {
    match d {
        Delta::Finite(k) => k.to_string(),
        Delta::Unbounded => "inf".into(),
    }
}

/// Normalised optimal-PTA error (%) at the reduction ratios (%) requested
/// — Fig. 14's curves, one `Comparator` call: reduction ratio `r` maps to
/// size `n − r/100 · (n − cmin)`, the whole grid shares a single DP run,
/// and errors are scaled to `E_max`. (Before the comparator existed every
/// fig binary carried its own copy of this mapping.)
pub fn optimal_error_pct_at_ratios(
    relation: &SequentialRelation,
    ratios: &[f64],
) -> Vec<(f64, f64)> {
    #[expect(
        clippy::expect_used,
        reason = "harness helper; \"exact\" is a built-in summarizer and is always registered"
    )]
    let comparator = Comparator::new().method("exact").expect("exact is registered");
    #[expect(
        clippy::expect_used,
        reason = "harness helper; the weights are uniform so the dims check cannot fail"
    )]
    let cmp = comparator
        .reduction_ratios(ratios.iter().copied())
        .run_sequential(relation)
        .expect("dims match");
    #[expect(clippy::expect_used, reason = "the method was selected above")]
    let exact = cmp.method("exact").expect("selected above");
    ratios.iter().enumerate().map(|(i, &r)| (r, cmp.error_pct(exact.sse_at(i)))).collect()
}

/// The DP cell counter of a summary produced by `exact`/`dp-naive`
/// (panics on other summarizers — harness-internal helper).
pub fn dp_cells(summary: &Summary) -> u64 {
    match &summary.stats {
        SummaryStats::Dp(stats) => stats.cells,
        #[expect(
            clippy::panic,
            reason = "harness-internal helper with a documented panic contract; never reached \
                      from library callers"
        )]
        other => panic!("summary of {} carries no DP stats: {other:?}", summary.algorithm),
    }
}

/// `count` sample points spread evenly over `lo..=hi` (inclusive,
/// deduplicated, always containing both ends).
pub fn linspace_usize(lo: usize, hi: usize, count: usize) -> Vec<usize> {
    if hi <= lo || count <= 1 {
        return vec![lo.min(hi), hi]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
    }
    let mut out: Vec<usize> = (0..count).map(|i| lo + (hi - lo) * i / (count - 1)).collect();
    out.dedup();
    out
}

/// The mean and standard error of a sample.
pub fn mean_stderr(values: &[f64]) -> (f64, f64) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = finite.len() as f64;
    let mean = finite.iter().sum::<f64>() / n;
    if finite.len() < 2 {
        return (mean, 0.0);
    }
    let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_covers_ends() {
        let v = linspace_usize(10, 100, 5);
        assert_eq!(v.first(), Some(&10));
        assert_eq!(v.last(), Some(&100));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mean_stderr_ignores_non_finite() {
        let (m, se) = mean_stderr(&[1.0, 3.0, f64::INFINITY]);
        assert_eq!(m, 2.0);
        assert!(se > 0.0);
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(f64::INFINITY), "inf");
        assert!(fmt(1.5e9).contains('e'));
    }
}
