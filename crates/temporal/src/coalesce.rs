//! The coalescing operator.
//!
//! Coalescing (Böhlen, Snodgrass, Soo, VLDB 1996) merges value-equivalent
//! tuples whose timestamps overlap or meet into tuples over maximal
//! intervals. ITA (Def. 1) applies it as its final step so that result
//! tuples cover maximal periods of constant aggregate values.

use std::collections::HashMap;

use crate::interval::TimeInterval;
use crate::relation::TemporalRelation;
use crate::tuple::Tuple;
use crate::value::Value;

/// Coalesces `relation`: value-equivalent tuples with overlapping or
/// adjacent (meeting) timestamps are replaced by tuples over maximal
/// intervals. The output is sorted by value-equivalence class discovery
/// order and chronologically within each class.
pub fn coalesce(relation: &TemporalRelation) -> TemporalRelation {
    let mut classes: HashMap<Vec<Value>, Vec<TimeInterval>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for t in relation.iter() {
        let key = t.values().to_vec();
        let entry = classes.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        entry.push(t.interval());
    }

    let mut out = TemporalRelation::new(relation.schema().clone());
    for key in order {
        let Some(mut intervals) = classes.remove(&key) else { continue };
        intervals.sort_by_key(|iv| (iv.start(), iv.end()));
        let mut merged: Vec<TimeInterval> = Vec::with_capacity(intervals.len());
        for iv in intervals.iter() {
            match merged.last_mut() {
                Some(last) if iv.start() <= last.end().saturating_add(1) => {
                    *last = last.span(iv);
                }
                _ => merged.push(*iv),
            }
        }
        for iv in merged {
            #[expect(
                clippy::expect_used,
                reason = "key and values come from this relation's own tuples, so the schema \
                          re-check cannot fail"
            )]
            out.push(key.clone(), iv).expect("coalesced tuple matches schema");
        }
    }
    out
}

/// Returns `true` when `relation` is already coalesced: no two
/// value-equivalent tuples overlap or meet.
pub fn is_coalesced(relation: &TemporalRelation) -> bool {
    let tuples: Vec<&Tuple> = relation.iter().collect();
    for (i, a) in tuples.iter().enumerate() {
        for b in &tuples[i + 1..] {
            if a.values() == b.values()
                && (a.interval().overlaps(&b.interval())
                    || a.interval().meets(&b.interval())
                    || b.interval().meets(&a.interval()))
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn rel(rows: &[(&str, i64, i64)]) -> TemporalRelation {
        let schema = Schema::of(&[("K", DataType::Str)]).unwrap();
        let mut r = TemporalRelation::new(schema);
        for (k, a, b) in rows {
            r.push(vec![Value::str(*k)], TimeInterval::new(*a, *b).unwrap()).unwrap();
        }
        r
    }

    #[test]
    fn merges_meeting_intervals() {
        let r = rel(&[("x", 1, 2), ("x", 3, 5)]);
        let c = coalesce(&r);
        assert_eq!(c.len(), 1);
        assert_eq!(c.tuples()[0].interval(), TimeInterval::new(1, 5).unwrap());
    }

    #[test]
    fn merges_overlapping_intervals() {
        let r = rel(&[("x", 1, 4), ("x", 3, 9)]);
        let c = coalesce(&r);
        assert_eq!(c.len(), 1);
        assert_eq!(c.tuples()[0].interval(), TimeInterval::new(1, 9).unwrap());
    }

    #[test]
    fn keeps_gapped_intervals_apart() {
        let r = rel(&[("x", 1, 2), ("x", 4, 5)]);
        let c = coalesce(&r);
        assert_eq!(c.len(), 2);
        assert!(is_coalesced(&c));
    }

    #[test]
    fn distinguishes_values() {
        let r = rel(&[("x", 1, 2), ("y", 3, 4)]);
        let c = coalesce(&r);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn chains_of_meeting_intervals_collapse() {
        let r = rel(&[("x", 5, 6), ("x", 1, 2), ("x", 3, 4)]);
        let c = coalesce(&r);
        assert_eq!(c.len(), 1);
        assert_eq!(c.tuples()[0].interval(), TimeInterval::new(1, 6).unwrap());
    }

    #[test]
    fn detects_uncoalesced_input() {
        assert!(!is_coalesced(&rel(&[("x", 1, 3), ("x", 4, 5)])));
        assert!(is_coalesced(&rel(&[("x", 1, 3), ("x", 5, 5)])));
    }
}
