//! The Table-1 query catalogue: prepared ITA results for the evaluation.
//!
//! Each entry pairs a generator with the aggregation query the paper runs
//! over it (Table 1), producing the sequential relation that PTA and the
//! comparison algorithms consume. The paper's published ITA sizes and
//! `cmin` values are attached so the `table1` harness can print
//! paper-vs-ours side by side.

use pta_ita::{ita, AggregateSpec, ItaQuerySpec};
use pta_temporal::SequentialRelation;

use crate::etds::{self, EtdsParams};
use crate::incumbents::{self, IncumbentsParams};
use crate::timeseries;

/// Experiment scale: `Small` for tests, `Medium` (default) for
/// laptop-friendly harness runs, `Paper` for the published dataset sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-fast, for tests.
    Small,
    /// Laptop-friendly evaluation runs.
    #[default]
    Medium,
    /// The paper's dataset sizes.
    Paper,
}

impl Scale {
    /// Parses `small` / `medium` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Self::Small),
            "medium" => Some(Self::Medium),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }
}

/// The Table-1 queries (the uniform S1/S2 workloads are parameterised per
/// experiment and live in [`crate::uniform`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "the variants are the Table-1 query ids documented above")]
pub enum QueryId {
    E1,
    E2,
    E3,
    E4,
    I1,
    I2,
    I3,
    T1,
    T2,
    T3,
}

impl QueryId {
    /// All queries in Table-1 order.
    pub const ALL: [QueryId; 10] = [
        QueryId::E1,
        QueryId::E2,
        QueryId::E3,
        QueryId::E4,
        QueryId::I1,
        QueryId::I2,
        QueryId::I3,
        QueryId::T1,
        QueryId::T2,
        QueryId::T3,
    ];

    /// The printable name.
    pub fn name(self) -> &'static str {
        match self {
            QueryId::E1 => "E1",
            QueryId::E2 => "E2",
            QueryId::E3 => "E3",
            QueryId::E4 => "E4",
            QueryId::I1 => "I1",
            QueryId::I2 => "I2",
            QueryId::I3 => "I3",
            QueryId::T1 => "T1",
            QueryId::T2 => "T2",
            QueryId::T3 => "T3",
        }
    }

    /// The paper's published (ITA size, cmin) for this query (Table 1).
    pub fn paper_shape(self) -> (usize, usize) {
        match self {
            QueryId::E1 | QueryId::E2 | QueryId::E3 => (6_394, 1),
            QueryId::E4 => (5_419_493, 339_067),
            QueryId::I1 | QueryId::I2 | QueryId::I3 => (16_144, 131),
            QueryId::T1 => (1_800, 1),
            QueryId::T2 => (8_746, 1),
            QueryId::T3 => (6_574, 216),
        }
    }

    /// Human description matching Table 1.
    pub fn description(self) -> &'static str {
        match self {
            QueryId::E1 => "ETDS: avg(Salary), no grouping",
            QueryId::E2 => "ETDS: max(Salary), no grouping",
            QueryId::E3 => "ETDS: sum(Salary), no grouping",
            QueryId::E4 => "ETDS: avg(Salary) by (EmpNo, Dept)",
            QueryId::I1 => "Incumbents: avg(Salary) by (Dept, Proj)",
            QueryId::I2 => "Incumbents: max(Salary) by (Dept, Proj)",
            QueryId::I3 => "Incumbents: sum(Salary) by (Dept, Proj)",
            QueryId::T1 => "chaotic time series, 1 dimension",
            QueryId::T2 => "tide time series, 1 dimension",
            QueryId::T3 => "wind time series, 12 dimensions",
        }
    }
}

/// A prepared query: the ITA result ready for reduction.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Which Table-1 query this is.
    pub id: QueryId,
    /// The ITA result (or raw series for T*).
    pub relation: SequentialRelation,
}

impl PreparedQuery {
    /// Shorthand for the relation's minimum reachable size.
    pub fn cmin(&self) -> usize {
        self.relation.cmin()
    }
}

fn etds_params(scale: Scale) -> EtdsParams {
    match scale {
        Scale::Small => EtdsParams::small(),
        Scale::Medium => EtdsParams::medium(),
        Scale::Paper => EtdsParams::paper(),
    }
}

fn incumbents_params(scale: Scale) -> IncumbentsParams {
    match scale {
        Scale::Small => IncumbentsParams::small(),
        Scale::Medium => IncumbentsParams::medium(),
        Scale::Paper => IncumbentsParams::paper(),
    }
}

/// Prepares one query at the given scale (deterministic).
pub fn prepare(id: QueryId, scale: Scale) -> PreparedQuery {
    let relation = match id {
        #[expect(clippy::expect_used, reason = "spec names columns of the generated schema")]
        QueryId::E1 | QueryId::E2 | QueryId::E3 => {
            let rel = etds::generate(etds_params(scale));
            let agg = match id {
                QueryId::E1 => AggregateSpec::avg("Salary"),
                QueryId::E2 => AggregateSpec::max("Salary"),
                _ => AggregateSpec::sum("Salary"),
            };
            ita(&rel, &ItaQuerySpec::new(&[], vec![agg])).expect("generated query is valid")
        }
        #[expect(clippy::expect_used, reason = "spec names columns of the generated schema")]
        QueryId::E4 => {
            let rel = etds::generate(etds_params(scale));
            ita(&rel, &ItaQuerySpec::new(&["EmpNo", "Dept"], vec![AggregateSpec::avg("Salary")]))
                .expect("generated query is valid")
        }
        #[expect(clippy::expect_used, reason = "spec names columns of the generated schema")]
        QueryId::I1 | QueryId::I2 | QueryId::I3 => {
            let rel = incumbents::generate(incumbents_params(scale));
            let agg = match id {
                QueryId::I1 => AggregateSpec::avg("Salary"),
                QueryId::I2 => AggregateSpec::max("Salary"),
                _ => AggregateSpec::sum("Salary"),
            };
            ita(&rel, &ItaQuerySpec::new(&["Dept", "Proj"], vec![agg]))
                .expect("generated query is valid")
        }
        QueryId::T1 => {
            let n = match scale {
                Scale::Small => 300,
                _ => 1_800,
            };
            timeseries::chaotic(n, 1)
        }
        QueryId::T2 => {
            let n = match scale {
                Scale::Small => 600,
                Scale::Medium => 3_000,
                Scale::Paper => 8_746,
            };
            timeseries::tide(n, 2)
        }
        QueryId::T3 => {
            let (n, runs) = match scale {
                Scale::Small => (600, 40),
                Scale::Medium => (2_400, 100),
                Scale::Paper => (6_574, 216),
            };
            timeseries::wind(n, 12, runs, 3)
        }
    };
    PreparedQuery { id, relation }
}

/// Prepares every Table-1 query at the given scale.
pub fn table1(scale: Scale) -> Vec<PreparedQuery> {
    QueryId::ALL.iter().map(|&id| prepare(id, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_queries_are_well_formed() {
        for id in QueryId::ALL {
            let q = prepare(id, Scale::Small);
            q.relation.validate().unwrap();
            assert!(!q.relation.is_empty(), "{} is empty", id.name());
            let (_, paper_cmin) = id.paper_shape();
            // Shape sanity: ungrouped queries stay gap-free like the paper.
            if paper_cmin == 1 {
                assert_eq!(q.cmin(), 1, "{} should be a single run", id.name());
            } else {
                assert!(q.cmin() > 1, "{} should have runs", id.name());
            }
        }
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("MEDIUM"), Some(Scale::Medium));
        assert_eq!(Scale::parse("x"), None);
    }
}
