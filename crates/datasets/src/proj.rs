//! The paper's running example: the `proj` relation of Fig. 1(a).

use pta_temporal::{DataType, Schema, TemporalRelation, TimeInterval, Value};

/// The expected ITA result values of Fig. 1(c): `(Proj, AvgSal, tb, te)`.
pub const PROJ_ITA_VALUES: [(&str, f64, i64, i64); 7] = [
    ("A", 800.0, 1, 2),
    ("A", 600.0, 3, 3),
    ("A", 500.0, 4, 4),
    ("A", 350.0, 5, 6),
    ("A", 300.0, 7, 7),
    ("B", 500.0, 4, 5),
    ("B", 500.0, 7, 8),
];

/// Builds the `proj` relation: five project assignments with employee,
/// project, monthly salary and validity period.
#[expect(clippy::expect_used, reason = "static rows written against the schema below")]
pub fn proj_relation() -> TemporalRelation {
    #[expect(clippy::expect_used, reason = "static schema literal; cannot fail")]
    let schema =
        Schema::of(&[("Empl", DataType::Str), ("Proj", DataType::Str), ("Sal", DataType::Int)])
            .expect("static schema is valid");
    let rows = [
        ("John", "A", 800, 1, 4),
        ("Ann", "A", 400, 3, 6),
        ("Tom", "A", 300, 4, 7),
        ("John", "B", 500, 4, 5),
        ("John", "B", 500, 7, 8),
    ];
    TemporalRelation::from_rows(
        schema,
        rows.iter().map(|(e, p, s, a, b)| {
            #[expect(clippy::expect_used, reason = "static interval literals are valid")]
            let iv = TimeInterval::new(*a, *b).expect("static intervals are valid");
            (vec![Value::str(*e), Value::str(*p), Value::Int(*s)], iv)
        }),
    )
    .expect("static rows match the schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_matches_fig_1a() {
        let r = proj_relation();
        assert_eq!(r.len(), 5);
        assert_eq!(r.time_extent(), Some(TimeInterval::new(1, 8).unwrap()));
    }
}
