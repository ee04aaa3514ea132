//! Incumbents-like salary history dataset.
//!
//! The paper's Incumbents relation (University of Arizona) records
//! employee salary changes over time: project id, department id, salary
//! and a month interval (83 857 tuples). Queries I1–I3 group by
//! (department, project): the ITA result has 16 144 tuples in 131 maximal
//! runs — i.e. ~131 (department, project, activity-period) segments of
//! ~123 constant-salary runs each.
//!
//! The generator creates that shape directly: a configurable number of
//! (department, project) groups, each active over one or two periods,
//! staffed by employees whose salaries change step-wise.

use pta_temporal::{DataType, Schema, TemporalRelation, TimeInterval, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct IncumbentsParams {
    /// Number of (department, project) groups.
    pub groups: usize,
    /// Fraction of groups with a second activity period (creates gaps).
    pub second_period_prob: f64,
    /// Employees per group.
    pub staff_per_group: usize,
    /// Mean salary records per employee per period.
    pub records_per_employee: f64,
    /// Month domain `[0, months)`.
    pub months: i64,
    /// RNG seed.
    pub seed: u64,
}

impl IncumbentsParams {
    /// Small test configuration.
    pub fn small() -> Self {
        Self {
            groups: 12,
            second_period_prob: 0.25,
            staff_per_group: 6,
            records_per_employee: 3.0,
            months: 400,
            seed: 7,
        }
    }

    /// Laptop-friendly (~25k input tuples, ITA ≈ 5–8k).
    pub fn medium() -> Self {
        Self {
            groups: 60,
            second_period_prob: 0.3,
            staff_per_group: 12,
            records_per_employee: 4.0,
            months: 1_200,
            seed: 7,
        }
    }

    /// Paper-shaped (~84k input tuples, ITA ≈ 16k, ~130 runs).
    pub fn paper() -> Self {
        Self {
            groups: 100,
            second_period_prob: 0.3,
            staff_per_group: 24,
            records_per_employee: 5.0,
            months: 2_400,
            seed: 7,
        }
    }
}

/// Generates the relation with schema
/// `(Dept: Str, Proj: Str, Salary: Int, T)`.
pub fn generate(params: IncumbentsParams) -> TemporalRelation {
    let mut rng = StdRng::seed_from_u64(params.seed);
    #[expect(clippy::expect_used, reason = "static schema literal; cannot fail")]
    let schema =
        Schema::of(&[("Dept", DataType::Str), ("Proj", DataType::Str), ("Salary", DataType::Int)])
            .expect("static schema is valid");
    let mut rel = TemporalRelation::new(schema);

    for g in 0..params.groups {
        let dept = format!("D{:02}", g % 17);
        let proj = format!("P{g:04}");
        let periods = if rng.random_bool(params.second_period_prob) { 2 } else { 1 };
        let mut cursor = rng.random_range(0..params.months / 4);
        for _ in 0..periods {
            let period_len = rng.random_range(params.months / 6..params.months / 2);
            let period_end = (cursor + period_len).min(params.months - 1);
            if cursor >= period_end {
                break;
            }
            for _ in 0..params.staff_per_group {
                let mut month = cursor + rng.random_range(0..(period_len / 3).max(1));
                let mut salary: i64 = rng.random_range(2_000..9_000);
                let records = 1 + rng.random_range(0.0..params.records_per_employee * 2.0) as usize;
                for _ in 0..records {
                    if month >= period_end {
                        break;
                    }
                    let dur = rng.random_range(3i64..=24).min(period_end - month);
                    #[expect(clippy::expect_used, reason = "dur >= 1 keeps the interval valid")]
                    let iv = TimeInterval::new(month, month + dur - 1).expect("dur >= 1");
                    #[expect(clippy::expect_used, reason = "row matches the static schema above")]
                    rel.push(
                        vec![
                            Value::str(dept.as_str()),
                            Value::str(proj.as_str()),
                            Value::Int(salary),
                        ],
                        iv,
                    )
                    .expect("generated row matches schema");
                    month += dur;
                    salary += rng.random_range(-300i64..600);
                }
            }
            // Gap before the second activity period.
            cursor = period_end + rng.random_range(params.months / 8..params.months / 3);
            if cursor >= params.months - 2 {
                break;
            }
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_ita::{ita, AggregateSpec, ItaQuerySpec};

    #[test]
    fn deterministic() {
        assert_eq!(generate(IncumbentsParams::small()), generate(IncumbentsParams::small()));
    }

    #[test]
    fn grouped_ita_has_many_runs() {
        let rel = generate(IncumbentsParams::small());
        let spec = ItaQuerySpec::new(&["Dept", "Proj"], vec![AggregateSpec::avg("Salary")]);
        let s = ita(&rel, &spec).unwrap();
        s.validate().unwrap();
        // The paper's I* queries have cmin ≫ 1 (131 runs for 16k tuples):
        // groups and second periods must create runs.
        assert!(s.cmin() >= IncumbentsParams::small().groups, "cmin {}", s.cmin());
        assert!(s.len() > s.cmin() * 5, "runs should contain many tuples");
    }
}
