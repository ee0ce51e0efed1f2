//! The `vios` index: per-evidence-entry, per-tuple violation counts.
//!
//! The greedy replacement for the `f3` approximation function (Figure 2 of
//! the paper) needs, for every distinct evidence set `S` and tuple `t`, the
//! number of ordered pairs with `Sat(t₁,t₂) = S` in which `t` participates.
//! The `f2` function needs the set of tuples participating in each entry.
//! Storing per-(entry, tuple) counts costs `O(distinct · tuples)` in the
//! worst case but is tiny in practice because the number of distinct
//! evidence sets is orders of magnitude smaller than the number of pairs
//! (the paper makes the same observation in Section 5).

#![doc = "conformance: ordered-output"]

use adc_data::fx::FxHashMap;

/// Per-evidence-entry, per-tuple pair-participation counts.
///
/// Equality compares the per-entry count maps by content (hash maps are
/// order-insensitive), so two indexes are equal exactly when every
/// `(entry, tuple)` pair carries the same count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vios {
    /// `per_entry[e][t]` = number of ordered pairs with evidence entry `e`
    /// in which tuple `t` participates (as either element of the pair).
    per_entry: Vec<FxHashMap<u32, u32>>,
    num_tuples: usize,
}

impl Vios {
    /// Create an empty index for `num_entries` evidence entries over
    /// `num_tuples` tuples.
    pub fn new(num_entries: usize, num_tuples: usize) -> Self {
        Vios {
            per_entry: vec![FxHashMap::default(); num_entries],
            num_tuples,
        }
    }

    /// Record the ordered pair `(t, t_prime)` as having evidence entry `entry`.
    pub fn record_pair(&mut self, entry: usize, t: u32, t_prime: u32) {
        if entry >= self.per_entry.len() {
            self.per_entry.resize(entry + 1, FxHashMap::default());
        }
        let m = &mut self.per_entry[entry];
        *m.entry(t).or_insert(0) += 1;
        *m.entry(t_prime).or_insert(0) += 1;
    }

    /// Record `count` ordered pairs of entry `entry` that all involve tuple
    /// `t` — the closed-form bulk credit used by the sweep kernel, which
    /// knows from partition arithmetic how many pairs a tuple participates
    /// in without materialising them. Equivalent to `t` appearing in `count`
    /// separate [`Vios::record_pair`] calls for this entry (the partner
    /// tuples receive their own bulk credits). A zero `count` is a no-op and
    /// leaves no residue key.
    pub fn record_bulk(&mut self, entry: usize, t: u32, count: u32) {
        if count == 0 {
            return;
        }
        if entry >= self.per_entry.len() {
            self.per_entry.resize(entry + 1, FxHashMap::default());
        }
        *self.per_entry[entry].entry(t).or_insert(0) += count;
    }

    /// Retract a previously recorded ordered pair `(t, t_prime)` from entry
    /// `entry`, decrementing both tuples' participation counts and dropping
    /// keys that reach zero (so a fully retracted tuple leaves no residue).
    ///
    /// This is the delta-maintenance inverse of [`Vios::record_pair`].
    ///
    /// # Panics
    /// Panics if the pair was not recorded against this entry — the caller's
    /// delta bookkeeping has diverged from the batch state.
    pub fn retract_pair(&mut self, entry: usize, t: u32, t_prime: u32) {
        let m = self
            .per_entry
            .get_mut(entry)
            // conformance: allow(panic) — documented panic: firing means the caller's delta bookkeeping diverged from the batch state
            .unwrap_or_else(|| panic!("retracting a pair from unknown vios entry {entry}"));
        for tuple in [t, t_prime] {
            let count = m
                .get_mut(&tuple)
                // conformance: allow(panic) — documented panic: firing means the caller's delta bookkeeping diverged from the batch state
                .unwrap_or_else(|| panic!("retracting unrecorded pair ({t},{t_prime}) from vios"));
            *count -= 1;
            if *count == 0 {
                m.remove(&tuple);
            }
        }
    }

    /// Re-target the per-entry maps through a compaction remap log (as
    /// returned by [`crate::evidence::EvidenceAccumulator::compact`]):
    /// entry `e` moves to `remap[e]`; swept entries (`None`) must already be
    /// empty — every pair of a zero-count evidence entry has been retracted.
    ///
    /// # Panics
    /// Panics if this index tracks more entries than `remap` covers, or if a
    /// swept entry still holds participation counts.
    pub fn remap_entries(&mut self, remap: &[Option<usize>]) {
        assert!(
            self.per_entry.len() <= remap.len(),
            "vios tracks {} entries but the remap log covers only {}",
            self.per_entry.len(),
            remap.len()
        );
        let kept = remap[..self.per_entry.len()]
            .iter()
            .filter(|m| m.is_some())
            .count();
        let mut new_per: Vec<FxHashMap<u32, u32>> = vec![FxHashMap::default(); kept];
        for (old, counts) in std::mem::take(&mut self.per_entry).into_iter().enumerate() {
            match remap[old] {
                Some(new) => new_per[new] = counts,
                None => assert!(
                    counts.is_empty(),
                    "compaction swept vios entry {old} which still holds pair counts"
                ),
            }
        }
        self.per_entry = new_per;
    }

    /// Renumber tuple ids after a deletion batch: tuple `t` becomes
    /// `old_to_new[t]` (`None` = deleted; such tuples must already carry no
    /// counts, i.e. every pair involving them has been retracted), and the
    /// tracked tuple count becomes `num_tuples`.
    ///
    /// # Panics
    /// Panics if a deleted tuple still participates in a recorded pair.
    pub fn renumber_tuples(&mut self, old_to_new: &[Option<u32>], num_tuples: usize) {
        for counts in &mut self.per_entry {
            *counts = std::mem::take(counts)
                .into_iter()
                .map(|(t, c)| {
                    let new = old_to_new
                        .get(t as usize)
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| {
                            // conformance: allow(panic) — delete-contract violation: the monitor retracts all of a tuple's pairs before dropping it
                            panic!("deleted tuple {t} still participates in recorded pairs")
                        });
                    (new, c)
                })
                .collect();
        }
        self.num_tuples = num_tuples;
    }

    /// Update the tracked tuple count (after an insert-only batch, where no
    /// renumbering is needed).
    pub fn set_num_tuples(&mut self, num_tuples: usize) {
        self.num_tuples = num_tuples;
    }

    /// Grow the entry list to `num_entries` (no-op if already that large), so
    /// an index stays aligned with an accumulator that interned new entries
    /// the index has not seen pairs for yet.
    pub fn ensure_entries(&mut self, num_entries: usize) {
        if self.per_entry.len() < num_entries {
            self.per_entry.resize(num_entries, FxHashMap::default());
        }
    }

    /// Merge a shard index whose entry ids are *local* to the shard's own
    /// accumulator, translating them through `mapping` (as returned by
    /// [`crate::evidence::EvidenceAccumulator::merge_set`] for that shard):
    /// shard entry `e` contributes its counts to entry `mapping[e]` here.
    ///
    /// # Panics
    /// Panics if the shard tracks more entries than `mapping` covers.
    pub fn merge_mapped(&mut self, shard: &Vios, mapping: &[usize]) {
        assert!(
            shard.per_entry.len() <= mapping.len(),
            "shard has {} entries but mapping covers only {}",
            shard.per_entry.len(),
            mapping.len()
        );
        for (local, counts) in shard.per_entry.iter().enumerate() {
            let global = mapping[local];
            if global >= self.per_entry.len() {
                self.per_entry.resize(global + 1, FxHashMap::default());
            }
            let m = &mut self.per_entry[global];
            // conformance: allow(unordered) — feeds a commutative additive merge; the target map's content is order-independent
            for (&t, &c) in counts {
                *m.entry(t).or_insert(0) += c;
            }
        }
    }

    /// Number of evidence entries tracked.
    pub fn num_entries(&self) -> usize {
        self.per_entry.len()
    }

    /// Number of tuples of the underlying relation.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// Tuples participating in at least one pair of entry `entry`, with their
    /// participation counts. The iteration order is **unspecified** — callers
    /// that surface the tuples must sort; the in-tree consumers either sort a
    /// collected copy or fold commutatively.
    pub fn entry_tuples(&self, entry: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        // conformance: allow(unordered) — order documented unspecified; every consumer sorts a collected copy or folds commutatively
        self.per_entry[entry].iter().map(|(&t, &c)| (t, c))
    }

    /// Participation count of tuple `t` in entry `entry`.
    pub fn count(&self, entry: usize, t: u32) -> u32 {
        self.per_entry
            .get(entry)
            .and_then(|m| m.get(&t).copied())
            .unwrap_or(0)
    }

    /// Accumulate, over the given entries, the per-tuple participation counts
    /// (the `v(t)` values computed by `SortTuples` in Figure 2 of the paper).
    pub fn accumulate_counts(
        &self,
        entries: impl IntoIterator<Item = usize>,
    ) -> FxHashMap<u32, u64> {
        let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
        for e in entries {
            for (&t, &c) in &self.per_entry[e] {
                *counts.entry(t).or_insert(0) += c as u64;
            }
        }
        counts
    }

    /// Number of distinct tuples participating in at least one pair of the
    /// given entries (used by the `f2` approximation function).
    pub fn distinct_tuples(&self, entries: impl IntoIterator<Item = usize>) -> usize {
        // A bitmap over tuple ids, grown to the largest id seen: far cheaper
        // per tuple than a hash set.
        let mut seen: Vec<u64> = Vec::new();
        for e in entries {
            // conformance: allow(unordered) — order collapses into a set cardinality; only the count escapes
            for &t in self.per_entry[e].keys() {
                let word = t as usize / 64;
                if word >= seen.len() {
                    seen.resize(word + 1, 0);
                }
                seen[word] |= 1 << (t % 64);
            }
        }
        seen.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut v = Vios::new(2, 4);
        v.record_pair(0, 0, 1);
        v.record_pair(0, 1, 2);
        v.record_pair(1, 3, 0);
        assert_eq!(v.count(0, 1), 2);
        assert_eq!(v.count(0, 0), 1);
        assert_eq!(v.count(0, 3), 0);
        assert_eq!(v.count(1, 3), 1);
        assert_eq!(v.num_entries(), 2);
        assert_eq!(v.num_tuples(), 4);
    }

    #[test]
    fn entry_growth_on_demand() {
        let mut v = Vios::new(0, 2);
        v.record_pair(3, 0, 1);
        assert_eq!(v.num_entries(), 4);
        assert_eq!(v.count(3, 0), 1);
        assert_eq!(v.count(2, 0), 0);
    }

    #[test]
    fn retract_pair_inverts_record_pair() {
        let mut v = Vios::new(2, 4);
        v.record_pair(0, 0, 1);
        v.record_pair(0, 1, 2);
        v.retract_pair(0, 0, 1);
        assert_eq!(v.count(0, 0), 0);
        assert_eq!(v.count(0, 1), 1);
        assert_eq!(v.count(0, 2), 1);
        // Fully retracted tuples leave no residue keys.
        v.retract_pair(0, 1, 2);
        assert_eq!(v.entry_tuples(0).count(), 0);
        assert_eq!(v, {
            let mut fresh = Vios::new(2, 4);
            fresh.record_pair(0, 5, 6); // make entry 0 non-trivially compared
            fresh.retract_pair(0, 5, 6);
            fresh
        });
    }

    #[test]
    #[should_panic(expected = "unrecorded pair")]
    fn retract_unrecorded_pair_panics() {
        let mut v = Vios::new(1, 3);
        v.record_pair(0, 0, 1);
        v.retract_pair(0, 0, 2);
    }

    #[test]
    fn remap_entries_follows_compaction() {
        let mut v = Vios::new(3, 4);
        v.record_pair(0, 0, 1);
        v.record_pair(2, 2, 3);
        // Entry 1 was swept (it is empty), entries 0 and 2 slide down.
        v.remap_entries(&[Some(0), None, Some(1)]);
        assert_eq!(v.num_entries(), 2);
        assert_eq!(v.count(0, 0), 1);
        assert_eq!(v.count(1, 2), 1);
    }

    #[test]
    #[should_panic(expected = "still holds pair counts")]
    fn remap_refuses_to_sweep_live_entries() {
        let mut v = Vios::new(2, 3);
        v.record_pair(1, 0, 1);
        v.remap_entries(&[Some(0), None]);
    }

    #[test]
    fn renumber_tuples_after_deletion() {
        let mut v = Vios::new(1, 4);
        v.record_pair(0, 0, 2);
        v.record_pair(0, 2, 3);
        // Delete tuple 1: 0→0, 2→1, 3→2.
        v.renumber_tuples(&[Some(0), None, Some(1), Some(2)], 3);
        assert_eq!(v.num_tuples(), 3);
        assert_eq!(v.count(0, 0), 1);
        assert_eq!(v.count(0, 1), 2);
        assert_eq!(v.count(0, 2), 1);
    }

    #[test]
    #[should_panic(expected = "still participates")]
    fn renumber_refuses_to_drop_live_tuples() {
        let mut v = Vios::new(1, 2);
        v.record_pair(0, 0, 1);
        v.renumber_tuples(&[Some(0), None], 1);
    }

    #[test]
    fn accumulate_counts_over_entries() {
        let mut v = Vios::new(3, 5);
        v.record_pair(0, 0, 1);
        v.record_pair(1, 0, 2);
        v.record_pair(2, 3, 4);
        let counts = v.accumulate_counts([0, 1]);
        assert_eq!(counts.get(&0).copied(), Some(2));
        assert_eq!(counts.get(&1).copied(), Some(1));
        assert_eq!(counts.get(&2).copied(), Some(1));
        assert_eq!(counts.get(&3), None);
    }

    #[test]
    fn distinct_tuples_over_entries() {
        let mut v = Vios::new(3, 6);
        v.record_pair(0, 0, 1);
        v.record_pair(1, 1, 2);
        v.record_pair(2, 4, 5);
        assert_eq!(v.distinct_tuples([0, 1]), 3);
        assert_eq!(v.distinct_tuples([2]), 2);
        assert_eq!(v.distinct_tuples([]), 0);
        assert_eq!(v.distinct_tuples([0, 1, 2]), 5);
        // Tuple ids past the first 64-bit word.
        v.record_pair(3, 1, 130);
        assert_eq!(v.distinct_tuples([0, 3]), 3);
    }

    #[test]
    fn entry_tuples_iteration() {
        let mut v = Vios::new(1, 3);
        v.record_pair(0, 0, 1);
        v.record_pair(0, 0, 2);
        let mut pairs: Vec<(u32, u32)> = v.entry_tuples(0).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (1, 1), (2, 1)]);
    }
}
