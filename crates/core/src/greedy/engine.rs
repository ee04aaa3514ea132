//! Shared machinery of the greedy algorithms: segment list + indexed heap
//! + gap bookkeeping.

use std::collections::HashMap;

use pta_temporal::{GroupId, GroupKey, SequentialRelation, TemporalError, TimeInterval};

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::greedy::heap::IndexedMinHeap;
use crate::greedy::list::{SegmentList, NIL};
use crate::greedy::{Delta, GreedyOutcome, GreedyStats};
use crate::policy::GapPolicy;
use crate::reduction::Reduction;
use crate::sse::dsim;
use crate::weights::Weights;

/// The live state shared by GMS, gPTAc and gPTAε: arriving ITA tuples
/// become list nodes whose heap key is the `dsim` with their predecessor
/// (`∞` for segment heads), and merging the heap top folds a node into its
/// predecessor while re-keying both neighbours.
pub(crate) struct GreedyEngine {
    pub(crate) weights: Weights,
    pub(crate) policy: GapPolicy,
    /// Checked once per streamed row and once per merge in the drain
    /// loops; inert by default, so only armed tokens pay for the checks.
    pub(crate) cancel: CancelToken,
    pub(crate) list: SegmentList,
    pub(crate) heap: IndexedMinHeap,
    group_keys: Vec<GroupKey>,
    group_ids: HashMap<GroupKey, GroupId>,
    next_id: u64,
    next_src: usize,
    /// Id of the last node inserted with an infinite key — the paper's
    /// `LastGapId` (segment heads count: the very first node is one).
    pub(crate) last_gap_id: u64,
    /// Live nodes before / at-or-after the last gap node (`BG` / `AG`).
    pub(crate) bg: usize,
    pub(crate) ag: usize,
    pub(crate) etot: f64,
    pub(crate) merges: u64,
    pub(crate) max_live: usize,
}

impl std::fmt::Debug for GreedyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyEngine")
            .field("live", &self.live())
            .field("etot", &self.etot)
            .field("merges", &self.merges)
            .finish()
    }
}

impl GreedyEngine {
    pub(crate) fn with_policy(weights: Weights, policy: GapPolicy) -> Self {
        Self {
            weights,
            policy,
            cancel: CancelToken::default(),
            list: SegmentList::new(),
            heap: IndexedMinHeap::new(),
            group_keys: Vec::new(),
            group_ids: HashMap::new(),
            next_id: 0,
            next_src: 0,
            last_gap_id: 0,
            bg: 0,
            ag: 0,
            etot: 0.0,
            merges: 0,
            max_live: 0,
        }
    }

    /// Number of live segments (the paper's `|H|`).
    pub(crate) fn live(&self) -> usize {
        self.list.len()
    }

    /// Ingests one ITA tuple (Fig. 11 lines 5–12). Returns its slot.
    pub(crate) fn push_row(
        &mut self,
        key: &GroupKey,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<u32, CoreError> {
        self.cancel.check()?;
        if values.len() != self.weights.dims() {
            return Err(CoreError::Temporal(TemporalError::DimensionMismatch {
                got: values.len(),
                expected: self.weights.dims(),
            }));
        }
        let src = self.next_src;
        for (d, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(CoreError::Temporal(TemporalError::NonFiniteValue {
                    context: format!("streamed row {src}, dimension {d}"),
                }));
            }
        }
        // Resolve / intern the group and enforce stream order.
        let tail = self.list.tail();
        let group = match self.group_ids.get(key) {
            Some(&gid) => {
                if tail != NIL && self.list.node(tail).group != gid {
                    return Err(CoreError::Temporal(TemporalError::NonSequential {
                        index: src,
                        reason: format!("group {key} reappears after another group"),
                    }));
                }
                gid
            }
            None => {
                let gid = self.group_keys.len() as GroupId;
                self.group_keys.push(key.clone());
                self.group_ids.insert(key.clone(), gid);
                gid
            }
        };
        let merge_key = if tail != NIL {
            let t = self.list.node(tail);
            if t.group == group {
                if interval.start() <= t.interval.end() {
                    return Err(CoreError::Temporal(TemporalError::NonSequential {
                        index: src,
                        reason: format!(
                            "interval {} starts before predecessor {} ends",
                            interval, t.interval
                        ),
                    }));
                }
                if self.policy.mergeable_raw(true, t.interval.end(), interval.start()) {
                    dsim(&self.weights, t.len, &t.values, interval.len(), values)
                } else {
                    f64::INFINITY
                }
            } else {
                f64::INFINITY
            }
        } else {
            f64::INFINITY
        };

        self.next_id += 1;
        self.next_src += 1;
        let id = self.next_id;
        let slot = self.list.push_back(id, group, interval, values.to_vec(), src);
        self.heap.insert(slot, merge_key, id);
        if merge_key.is_infinite() {
            self.last_gap_id = id;
            self.bg += self.ag;
            self.ag = 1;
        } else {
            self.ag += 1;
        }
        self.max_live = self.max_live.max(self.list.len());
        Ok(slot)
    }

    /// Merges the heap-top node into its predecessor, accumulating its key
    /// into the total error and re-keying the neighbours. Returns the
    /// merged-away key. The caller must have checked the key is finite.
    pub(crate) fn merge_top(&mut self) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: every caller peeks the heap before calling merge_top"
        )]
        let (slot, key, _) = self.heap.peek().expect("merge_top on empty heap");
        debug_assert!(key.is_finite(), "cannot merge across a gap");
        self.heap.remove(slot);
        let survivor = self.list.merge_into_prev(slot);
        self.etot += key;
        self.merges += 1;

        // Re-key the survivor against its predecessor...
        let s = self.list.node(survivor);
        let new_key = match s.prev {
            NIL => f64::INFINITY,
            p => {
                let pn = self.list.node(p);
                if self.policy.mergeable_raw(
                    pn.group == s.group,
                    pn.interval.end(),
                    s.interval.start(),
                ) {
                    dsim(&self.weights, pn.len, &pn.values, s.len, &s.values)
                } else {
                    f64::INFINITY
                }
            }
        };
        self.heap.update(survivor, new_key);
        // ...and the successor against the survivor.
        let next = self.list.node(survivor).next;
        if next != NIL {
            let s = self.list.node(survivor);
            let nx = self.list.node(next);
            let nk = if self.policy.mergeable_raw(
                s.group == nx.group,
                s.interval.end(),
                nx.interval.start(),
            ) {
                dsim(&self.weights, s.len, &s.values, nx.len, &nx.values)
            } else {
                f64::INFINITY
            };
            self.heap.update(next, nk);
        }
        key
    }

    /// Does `slot` have at least δ adjacent successors (the heuristic of
    /// §6.2.1)? `Unbounded` is never satisfied, which confines merging to
    /// the Prop.-3 criterion and yields GMS-identical output (Thm. 2).
    pub(crate) fn has_delta_successors(&self, slot: u32, delta: Delta) -> bool {
        let d = match delta {
            Delta::Finite(d) => d,
            Delta::Unbounded => return false,
        };
        let mut cur = slot;
        for _ in 0..d {
            let next = self.list.node(cur).next;
            if next == NIL {
                return false;
            }
            let (a, b) = (self.list.node(cur), self.list.node(next));
            if !self.policy.mergeable_raw(a.group == b.group, a.interval.end(), b.interval.start())
            {
                return false;
            }
            cur = next;
        }
        true
    }

    /// Drains the list into a [`GreedyOutcome`].
    // pta-lint: allow(cancel-coverage) — merge work is already done; this
    // only drains the final list (callers poll once per merge before it).
    pub(crate) fn into_outcome(self, clamped_to_cmin: bool) -> Result<GreedyOutcome, CoreError> {
        let p = self.weights.dims();
        let mut parts = Vec::with_capacity(self.list.len());
        for (_, node) in self.list.iter() {
            parts.push((
                self.group_keys.get(node.group as usize).cloned().unwrap_or_else(GroupKey::empty),
                node.interval,
                node.values.clone(),
                node.first_src..node.end_src,
            ));
        }
        let stats = GreedyStats {
            max_heap_size: self.max_live,
            merges: self.merges,
            total_error: self.etot,
            tuples_in: self.next_src,
            clamped_to_cmin,
        };
        let reduction = Reduction::from_parts(p, parts, self.etot)?;
        Ok(GreedyOutcome { reduction, stats })
    }

    /// Feeds every tuple of a sequential relation (offline use).
    pub(crate) fn push_relation_row(
        &mut self,
        input: &SequentialRelation,
        i: usize,
    ) -> Result<u32, CoreError> {
        let key = input.group_key(input.group(i))?.clone();
        self.push_row(&key, input.interval(i), input.values(i))
    }
}
