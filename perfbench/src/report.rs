//! Sample statistics, machine-speed calibration and the result line.

use std::time::Duration;

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p ∈ (0, 1)` of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples above
/// it, as `(label, value)`; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)]
        .into_iter()
        .find(|&(_, p)| xs.len() as f64 * (1.0 - p) >= 10.0)
        .map(|(label, p)| (label, percentile(xs, p)))
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The calibration kernel's time, in seconds, at the reference speed:
/// its typical time on the 2-vCPU machine the benchmark was sized on.
const KERNEL_REF_S: f64 = 0.005;

/// A fixed, deterministic, single-threaded CPU kernel.
fn kernel() {
    let mut buf = vec![0.0f64; 8192];
    let mut x = 1u64;
    let mut acc = 0.0;
    for _ in 0..200 {
        for (i, b) in buf.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (*b + (x >> 40) as f64 * 1e-3) * 0.999 + i as f64;
            acc += *b * 1e-9;
        }
    }
    std::hint::black_box(acc);
}

/// How much slower than the reference the machine runs right now: the
/// fastest of four runs of the kernel over its reference time. The
/// fastest filters transient stalls (including the cleanup a preceding
/// query leaves behind); a sustained slowdown slows all four.
pub fn slowdown() -> f64 {
    let best = (0..4)
        .map(|_| {
            let t = std::time::Instant::now();
            kernel();
            secs(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min);
    best / KERNEL_REF_S
}

/// Runs `f` between two readings of the machine's slowdown and returns
/// its value with their geometric mean. A wall time measured inside `f`
/// divided by it is the calibrated time: what the same work takes at the
/// reference speed. The host the benchmark was sized on drifts by ±20%
/// over tens of seconds; a plain median of one run cannot average that
/// out, a calibrated one mostly does.
pub fn calibrated<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = slowdown();
    let value = f();
    (value, (before * slowdown()).sqrt())
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How many samples the value summarizes (1 for a single reading).
    samples: usize,
    tail: Option<(&'static str, f64)>,
}

/// A run's result: the operation tally, the metrics, and notes (input
/// properties and result fingerprints) printed ahead of the JSON line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Self-check failures that are not operations (e.g. trace coverage).
    pub check_failures: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    /// A traced run's spans, written out once the run ends.
    pub trace: Option<crate::trace::Tracer>,
}

impl Report {
    /// Counts one operation; `ok == false` is a failure.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.tally(false);
        if self.failed <= 5 {
            self.note(format!("FAILED: {why}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A timing metric: the median of `samples`, scaled by `scale`.
    pub fn timing(&mut self, name: &str, unit: &'static str, scale: f64, samples: &[f64]) {
        let scaled: Vec<f64> = samples.iter().map(|x| x * scale).collect();
        self.metrics.push(Metric {
            name: name.to_string(),
            value: median(&scaled),
            unit,
            samples: samples.len(),
            tail: tail(&scaled),
        });
    }

    /// A single reading (a count, a ratio, or a derived figure).
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples: 1, tail: None });
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.check_failures.is_empty()
    }

    /// Prints the notes, one human-readable line per metric, and the
    /// result object as the last line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for c in &self.check_failures {
            println!("# CHECK FAILED: {c}");
        }
        println!(
            "# fail_frac = {} ({} failed of {} attempted)",
            self.fail_frac(),
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            let tail = m.tail.map(|(l, v)| format!(", {l} {v}")).unwrap_or_default();
            println!("# {} = {} {} (samples {}{tail})", m.name, m.value, m.unit, m.samples);
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN/∞; a metric that is not finite is a bug
                // in this benchmark, reported through `correct`.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    #[cfg(test)]
    pub fn metric_names(&self) -> Vec<(&str, &str, usize)> {
        self.metrics.iter().map(|m| (m.name.as_str(), m.unit, m.samples)).collect()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(("p99", 990.0)));
    }

    #[test]
    fn failures_raise_fail_frac_and_clear_correct() {
        let mut r = Report::default();
        r.tally(true);
        assert!(r.correct());
        r.fail("wrong".into());
        assert_eq!(r.fail_frac(), 0.5);
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
