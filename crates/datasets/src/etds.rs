//! ETDS-like employee temporal dataset.
//!
//! The paper's ETDS relation (F. Wang's employee temporal data set)
//! records the evolution of a company's employees: employee number, sex,
//! department, title, salary and a contract validity interval in months
//! (2 875 697 records). Queries E1–E3 aggregate salary without grouping
//! (ITA size 6 394, no gaps, `cmin = 1`); E4 groups by (employee,
//! department) and explodes to 5 419 493 ITA tuples.
//!
//! The generator reproduces those shapes: careers are chains of contract
//! records over a month domain sized so the un-grouped ITA result has one
//! constant run per eventful month, and per-(employee, department)
//! grouping yields more ITA tuples than input records.

use pta_temporal::{DataType, Schema, TemporalRelation, TimeInterval, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct EtdsParams {
    /// Number of employees.
    pub employees: usize,
    /// Month domain `[0, months)`.
    pub months: i64,
    /// Mean number of contract records per employee.
    pub contracts_per_employee: f64,
    /// RNG seed.
    pub seed: u64,
}

impl EtdsParams {
    /// A laptop-friendly configuration (~40k records over ~2000 months).
    pub fn medium() -> Self {
        Self { employees: 8_000, months: 2_000, contracts_per_employee: 5.0, seed: 42 }
    }

    /// A small configuration for tests (~2k records).
    pub fn small() -> Self {
        Self { employees: 500, months: 600, contracts_per_employee: 4.0, seed: 42 }
    }

    /// Paper-sized: ~2.9M records over ~6 500 months.
    pub fn paper() -> Self {
        Self { employees: 480_000, months: 6_500, contracts_per_employee: 6.0, seed: 42 }
    }
}

const DEPARTMENTS: [&str; 9] =
    ["d001", "d002", "d003", "d004", "d005", "d006", "d007", "d008", "d009"];
const TITLES: [&str; 7] = [
    "Engineer",
    "Senior Engineer",
    "Staff",
    "Senior Staff",
    "Assistant Engineer",
    "Technique Leader",
    "Manager",
];

/// Generates the relation with schema
/// `(EmpNo: Int, Sex: Str, Dept: Str, Title: Str, Salary: Int, T)`.
pub fn generate(params: EtdsParams) -> TemporalRelation {
    let mut rng = StdRng::seed_from_u64(params.seed);
    #[expect(clippy::expect_used, reason = "static schema literal; cannot fail")]
    let schema = Schema::of(&[
        ("EmpNo", DataType::Int),
        ("Sex", DataType::Str),
        ("Dept", DataType::Str),
        ("Title", DataType::Str),
        ("Salary", DataType::Int),
    ])
    .expect("static schema is valid");
    let mut rel = TemporalRelation::new(schema);

    for emp in 0..params.employees {
        let sex = if rng.random_bool(0.5) { "M" } else { "F" };
        let mut dept = DEPARTMENTS[rng.random_range(0..DEPARTMENTS.len())];
        let mut title_idx = rng.random_range(0..3usize);
        // Career start anywhere in the first 80% of the domain.
        let mut month = rng.random_range(0..(params.months * 4 / 5).max(1));
        let mut salary: i64 = rng.random_range(38_000..60_000);
        let contracts =
            1 + rng.random_range(0.0..params.contracts_per_employee * 2.0).floor() as usize;
        for _ in 0..contracts {
            if month >= params.months {
                break;
            }
            let duration = rng.random_range(6i64..=48).min(params.months - month);
            let end = month + duration - 1;
            #[expect(clippy::expect_used, reason = "duration >= 1 keeps month <= end")]
            let iv = TimeInterval::new(month, end).expect("duration >= 1");
            #[expect(clippy::expect_used, reason = "row is built from the static schema above")]
            rel.push(
                vec![
                    Value::Int(emp as i64),
                    Value::str(sex),
                    Value::str(dept),
                    Value::str(TITLES[title_idx.min(TITLES.len() - 1)]),
                    Value::Int(salary),
                ],
                iv,
            )
            .expect("generated row matches schema");
            // Renewal: usually seamless, occasionally after a break or
            // with a department switch / promotion / raise.
            month = end + 1;
            if rng.random_bool(0.15) {
                month += rng.random_range(1i64..18);
            }
            if rng.random_bool(0.12) {
                dept = DEPARTMENTS[rng.random_range(0..DEPARTMENTS.len())];
            }
            if rng.random_bool(0.25) && title_idx + 1 < TITLES.len() {
                title_idx += 1;
            }
            salary += rng.random_range(0i64..6_000);
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_ita::{ita, AggregateSpec, ItaQuerySpec};

    #[test]
    fn generation_is_deterministic() {
        let a = generate(EtdsParams::small());
        let b = generate(EtdsParams::small());
        assert_eq!(a, b);
        assert!(a.len() > 1_000, "got {}", a.len());
    }

    #[test]
    fn ungrouped_ita_has_no_gaps_and_dense_coverage() {
        let rel = generate(EtdsParams::small());
        let spec = ItaQuerySpec::new(&[], vec![AggregateSpec::avg("Salary")]);
        let s = ita(&rel, &spec).unwrap();
        // Dense employment ⇒ a single maximal run, like the paper's E1–E3
        // (cmin = 1).
        assert_eq!(s.cmin(), 1, "expected gap-free coverage");
        assert!(s.len() > 300, "ITA size {}", s.len());
    }

    /// The paper's E4 phenomenon: grouping by (employee, dept) keeps the
    /// ITA result (essentially) as large as the argument relation — fine
    /// grouping prevents any useful coalescing, which is what makes E4 a
    /// stress case for reduction. Asserted across several seeds so the
    /// test pins the workload *shape*, not one PRNG stream: per-seed the
    /// grouped ITA size may fall below the input by at most a couple of
    /// tuples, and it must match or exceed it for most seeds.
    #[test]
    fn grouped_ita_retains_input_size() {
        let spec = ItaQuerySpec::new(&["EmpNo", "Dept"], vec![AggregateSpec::avg("Salary")]);
        let mut at_least_input = 0usize;
        let seeds = 1..=8u64;
        let total = seeds.clone().count();
        for seed in seeds {
            let rel = generate(EtdsParams { seed, ..EtdsParams::small() });
            let s = ita(&rel, &spec).unwrap();
            assert!(
                s.len() + 2 >= rel.len(),
                "seed {seed}: grouped ITA {} collapsed well below input {}",
                s.len(),
                rel.len()
            );
            if s.len() >= rel.len() {
                at_least_input += 1;
            }
            assert!(s.cmin() > rel.len() / 4, "seed {seed}: many per-group segments expected");
        }
        assert!(
            at_least_input * 2 > total,
            "grouped ITA matched/exceeded input for only {at_least_input}/{total} seeds"
        );
    }
}
