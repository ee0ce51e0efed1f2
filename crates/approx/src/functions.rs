//! The approximation-function trait and the concrete functions of the paper.

use crate::normal;
use adc_data::FixedBitSet;
use adc_evidence::{EvidenceSet, Vios};

/// Everything an approximation function may consult: the interned evidence
/// set and (for tuple-level measures) the `vios` participation index.
///
/// The context deliberately excludes the raw relation — mirroring the paper,
/// all three functions are computable from `Evi(D)` plus `vios`. The
/// enumerator scores up to `|S| + 2` sets per search node (the threshold
/// test, one `IsMinimal` check per element of `S`, and `WillCover`), and
/// hands each call the node's uncovered entries through
/// [`ApproximationFunction::score_uncovered`], so a call costs time in the
/// entries left uncovered rather than in the whole evidence set.
#[derive(Clone, Copy)]
pub struct ApproxContext<'a> {
    /// The evidence multiset of the (sampled) database.
    pub evidence: &'a EvidenceSet,
    /// Per-entry per-tuple participation counts; required by `f2` and `f3`.
    pub vios: Option<&'a Vios>,
}

impl<'a> ApproxContext<'a> {
    /// Build a context from an evidence set alone (sufficient for `f1`).
    pub fn new(evidence: &'a EvidenceSet) -> Self {
        ApproxContext {
            evidence,
            vios: None,
        }
    }

    /// Build a context with the `vios` index (required for `f2` / `f3`).
    pub fn with_vios(evidence: &'a EvidenceSet, vios: &'a Vios) -> Self {
        ApproxContext {
            evidence,
            vios: Some(vios),
        }
    }

    fn vios(&self) -> &'a Vios {
        self.vios
            // conformance: allow(panic) — documented precondition of f2/f3; the miner front-end re-checks it with an explanatory error before enumeration
            .expect("this approximation function requires the vios index; build evidence with track_vios = true")
    }
}

/// A valid approximation function `f : (D, S_ϕ) → [0, 1]`.
///
/// Implementations receive the DC through its **complement set** `Ŝ_ϕ` (the
/// hitting set over the predicate space): an evidence entry disjoint from
/// `Ŝ_ϕ` is a class of violating pairs. This is exactly the representation
/// the enumeration algorithm maintains, so no translation is needed in the
/// hot path.
pub trait ApproximationFunction {
    /// Short name used in reports ("f1", "f2", ...).
    fn name(&self) -> &'static str;

    /// The score `f(D, S_ϕ) ∈ [0, 1]`; the DC is an ε-ADC iff `1 − score ≤ ε`.
    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64;

    /// The same score, given the ids of the evidence entries disjoint from
    /// `complement_set`. `uncovered` lists them as ascending,
    /// pairwise-disjoint runs whose union is exactly that set; the runs
    /// themselves come in no particular order.
    ///
    /// Under indifference to redundancy a valid function depends on the DC
    /// only through the entries it leaves uncovered, and the enumerator
    /// already holds those at every search node, so it calls this method
    /// instead of [`ApproximationFunction::score`]. The default ignores
    /// `uncovered` and calls `score`, so a function that implements only
    /// `score` stays correct, at the cost of its own scan. An override must
    /// return bit for bit what `score` returns for the same DC.
    fn score_uncovered(
        &self,
        ctx: &ApproxContext<'_>,
        complement_set: &FixedBitSet,
        uncovered: &[&[u32]],
    ) -> f64 {
        let _ = uncovered;
        self.score(ctx, complement_set)
    }

    /// `true` if [`ApproximationFunction::score`] consults the `vios` index.
    fn requires_vios(&self) -> bool {
        false
    }

    /// Convenience: `1 − score`, the "exception rate" compared against ε.
    fn exception_rate(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        1.0 - self.score(ctx, complement_set)
    }
}

/// The entry ids of `uncovered` runs.
fn entry_ids<'a>(uncovered: &'a [&'a [u32]]) -> impl Iterator<Item = usize> + 'a {
    uncovered
        .iter()
        .flat_map(|run| run.iter().map(|&e| e as usize))
}

/// Fraction of ordered pairs in the `uncovered` entries (`1 − f1`); zero for
/// an empty relation, as [`EvidenceSet::violation_fraction`].
fn violation_fraction(evidence: &EvidenceSet, uncovered: &[&[u32]]) -> f64 {
    if evidence.total_pairs() == 0 {
        return 0.0;
    }
    let violations: u64 = entry_ids(uncovered).map(|e| evidence.entry(e).count).sum();
    violations as f64 / evidence.total_pairs() as f64
}

/// `f1`: the fraction of ordered tuple pairs satisfying the DC
/// (`g₁ = 1 − f₁` is the violating-pair rate used by AFASTDC/DCFinder).
#[derive(Debug, Default, Clone, Copy)]
pub struct F1ViolationRate;

impl ApproximationFunction for F1ViolationRate {
    fn name(&self) -> &'static str {
        "f1"
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let uncovered = ctx.evidence.uncovered_indexes(complement_set);
        self.score_uncovered(ctx, complement_set, &[&uncovered])
    }

    fn score_uncovered(
        &self,
        ctx: &ApproxContext<'_>,
        _complement_set: &FixedBitSet,
        uncovered: &[&[u32]],
    ) -> f64 {
        1.0 - violation_fraction(ctx.evidence, uncovered)
    }
}

/// `f2`: the fraction of tuples that are **not** involved in any violating
/// pair ("problematic tuples" measure of Kivinen & Mannila, lifted to DCs).
#[derive(Debug, Default, Clone, Copy)]
pub struct F2ProblematicTuples;

impl ApproximationFunction for F2ProblematicTuples {
    fn name(&self) -> &'static str {
        "f2"
    }

    fn requires_vios(&self) -> bool {
        true
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let uncovered = ctx.evidence.uncovered_indexes(complement_set);
        self.score_uncovered(ctx, complement_set, &[&uncovered])
    }

    fn score_uncovered(
        &self,
        ctx: &ApproxContext<'_>,
        _complement_set: &FixedBitSet,
        uncovered: &[&[u32]],
    ) -> f64 {
        let n = ctx.evidence.num_tuples();
        if n == 0 {
            return 1.0;
        }
        let problematic = ctx.vios().distinct_tuples(entry_ids(uncovered));
        (n - problematic) as f64 / n as f64
    }
}

/// `f3`: the greedy replacement for the cardinality-repair measure
/// (Figure 2 of the paper). The exact measure — the largest sub-instance
/// satisfying the DC — is NP-hard for DCs, so the paper (and we) greedily
/// remove the tuples participating in the most violations until every
/// violation is covered, and report `1 − |R|/|D|` where `R` is the removed
/// set.
#[derive(Debug, Default, Clone, Copy)]
pub struct F3GreedyRepair;

impl F3GreedyRepair {
    /// Size of the greedy repair set `R` for the DC with complement set
    /// `complement_set` (the loop of Figure 2).
    pub fn greedy_repair_size(
        &self,
        ctx: &ApproxContext<'_>,
        complement_set: &FixedBitSet,
    ) -> usize {
        let uncovered = ctx.evidence.uncovered_indexes(complement_set);
        Self::repair_size(ctx, &[&uncovered])
    }

    /// The loop of Figure 2 over the `uncovered` entry runs.
    fn repair_size(ctx: &ApproxContext<'_>, uncovered: &[&[u32]]) -> usize {
        let evidence = ctx.evidence;
        // u = total number of violating pairs (bag semantics).
        let u: u64 = entry_ids(uncovered).map(|e| evidence.entry(e).count).sum();
        if u == 0 {
            return 0;
        }
        // SortTuples: v(t) = Σ_{uncovered S} vios[S][t], descending.
        let counts = ctx.vios().accumulate_counts(entry_ids(uncovered));
        let mut sorted: Vec<(u32, u64)> = counts.into_iter().collect();
        sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut covered = 0u64;
        let mut removed = 0usize;
        for (_, v) in sorted {
            if covered >= u {
                break;
            }
            covered += v;
            removed += 1;
        }
        removed
    }
}

impl ApproximationFunction for F3GreedyRepair {
    fn name(&self) -> &'static str {
        "f3"
    }

    fn requires_vios(&self) -> bool {
        true
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let uncovered = ctx.evidence.uncovered_indexes(complement_set);
        self.score_uncovered(ctx, complement_set, &[&uncovered])
    }

    fn score_uncovered(
        &self,
        ctx: &ApproxContext<'_>,
        _complement_set: &FixedBitSet,
        uncovered: &[&[u32]],
    ) -> f64 {
        let n = ctx.evidence.num_tuples();
        if n == 0 {
            return 1.0;
        }
        let removed = Self::repair_size(ctx, uncovered);
        (n - removed) as f64 / n as f64
    }
}

/// `f₁'`: the sample-adjusted violation-rate function of Section 7.2.
///
/// When mining from a uniform sample `J`, accepting a DC iff
/// `1 − p̂ ≥ z·√(p̂(1−p̂)/n) + (1 − ε)` guarantees (under the normal
/// approximation) that with probability at least `1 − α` the DC is an ε-ADC
/// on the full database. Equivalently, the DC is accepted on the sample iff
/// it is an ε-ADC w.r.t. `f₁' = (1 − p̂) − z·√(p̂(1−p̂)/n)`.
#[derive(Debug, Clone, Copy)]
pub struct SampleAdjustedF1 {
    /// The normal quantile `z₁₋₂α` for the requested confidence level.
    pub z: f64,
}

impl SampleAdjustedF1 {
    /// Build from the error bound `α` of the paper (confidence `1 − α` that an
    /// accepted DC is an ε-ADC on the full database).
    pub fn with_alpha(alpha: f64) -> Self {
        SampleAdjustedF1 {
            z: normal::z_for_alpha(alpha),
        }
    }
}

impl Default for SampleAdjustedF1 {
    /// Defaults to α = 0.05 (95 % one-sided confidence).
    fn default() -> Self {
        Self::with_alpha(0.05)
    }
}

impl ApproximationFunction for SampleAdjustedF1 {
    fn name(&self) -> &'static str {
        "f1'"
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let uncovered = ctx.evidence.uncovered_indexes(complement_set);
        self.score_uncovered(ctx, complement_set, &[&uncovered])
    }

    fn score_uncovered(
        &self,
        ctx: &ApproxContext<'_>,
        _complement_set: &FixedBitSet,
        uncovered: &[&[u32]],
    ) -> f64 {
        let n = ctx.evidence.total_pairs() as f64;
        if n == 0.0 {
            return 1.0;
        }
        let p_hat = violation_fraction(ctx.evidence, uncovered);
        let margin = self.z * (p_hat * (1.0 - p_hat) / n).sqrt();
        ((1.0 - p_hat) - margin).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_data::{AttributeType, Relation, Schema, Value};
    use adc_evidence::{ClusterEvidenceBuilder, Evidence, EvidenceBuilder};
    use adc_predicates::{DenialConstraint, PredicateSpace, SpaceConfig, TupleRole};

    /// The full running example of the paper (Table 1), 15 tuples.
    pub(crate) fn running_example() -> Relation {
        let schema = Schema::of(&[
            ("Name", AttributeType::Text),
            ("State", AttributeType::Text),
            ("Zip", AttributeType::Integer),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let rows: [(&str, &str, i64, i64, i64); 15] = [
            ("Alice", "NY", 11803, 28_000, 2_400),
            ("Mark", "NY", 10102, 42_000, 4_700),
            ("Bob", "NY", 13914, 93_000, 11_800),
            ("Mary", "NY", 10437, 58_000, 6_700),
            ("Alice", "NY", 10437, 26_000, 2_100),
            ("Julia", "WA", 98112, 27_000, 1_400),
            ("Jimmy", "WA", 98112, 24_000, 1_600),
            ("Sam", "WA", 98112, 49_000, 6_800),
            ("Jeff", "WA", 98112, 56_000, 7_800),
            ("Gary", "WA", 98112, 50_000, 7_200),
            ("Ron", "WA", 98112, 58_000, 8_000),
            ("Jennifer", "WA", 98112, 61_000, 8_500),
            ("Adam", "WA", 98112, 20_000, 1_000),
            ("Tim", "IL", 62078, 39_000, 5_000),
            ("Sarah", "IL", 98112, 54_000, 5_000),
        ];
        let mut b = Relation::builder(schema);
        for (n, s, z, i, t) in rows {
            b.push_row(vec![
                n.into(),
                s.into(),
                Value::Int(z),
                Value::Int(i),
                Value::Int(t),
            ])
            .unwrap();
        }
        b.build()
    }

    struct Fixture {
        space: PredicateSpace,
        evidence: Evidence,
    }

    fn fixture() -> Fixture {
        let r = running_example();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let evidence = ClusterEvidenceBuilder.build(&r, &space, true);
        Fixture { space, evidence }
    }

    /// ϕ₁ = ¬(State = State' ∧ Income > Income' ∧ Tax ≤ Tax').
    fn phi1(space: &PredicateSpace) -> DenialConstraint {
        DenialConstraint::new(vec![
            space.find("State", "=", TupleRole::Other, "State").unwrap(),
            space
                .find("Income", ">", TupleRole::Other, "Income")
                .unwrap(),
            space.find("Tax", "≤", TupleRole::Other, "Tax").unwrap(),
        ])
    }

    /// ϕ₂ = ¬(Zip = Zip' ∧ State ≠ State').
    fn phi2(space: &PredicateSpace) -> DenialConstraint {
        DenialConstraint::new(vec![
            space.find("Zip", "=", TupleRole::Other, "Zip").unwrap(),
            space.find("State", "≠", TupleRole::Other, "State").unwrap(),
        ])
    }

    #[test]
    fn f1_matches_example_1_2_for_phi1() {
        // The paper: 2 of 210 ordered pairs violate ϕ₁ (≈0.95 %).
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let dc = phi1(&fx.space);
        let cset = dc.complement_set(&fx.space);
        let f1 = F1ViolationRate;
        let rate = f1.exception_rate(&ctx, &cset);
        assert!((rate - 2.0 / 210.0).abs() < 1e-12, "violation rate {rate}");
        assert!(f1.score(&ctx, &cset) > 0.99);
    }

    #[test]
    fn f1_matches_example_1_2_for_phi2() {
        // The paper: 16 of 210 ordered pairs violate ϕ₂ (≈7.62 %).
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let cset = phi2(&fx.space).complement_set(&fx.space);
        let rate = F1ViolationRate.exception_rate(&ctx, &cset);
        assert!((rate - 16.0 / 210.0).abs() < 1e-12, "violation rate {rate}");
    }

    #[test]
    fn f3_matches_example_1_2_removal_counts() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        // ϕ₁: remove one of {t6,t7} and one of {t14,t15} -> 2 tuples (13.3% of 15).
        let cset1 = phi1(&fx.space).complement_set(&fx.space);
        assert_eq!(F3GreedyRepair.greedy_repair_size(&ctx, &cset1), 2);
        assert!((F3GreedyRepair.exception_rate(&ctx, &cset1) - 2.0 / 15.0).abs() < 1e-12);
        // ϕ₂: removing t15 alone suffices -> 1 tuple (6.67%).
        let cset2 = phi2(&fx.space).complement_set(&fx.space);
        assert_eq!(F3GreedyRepair.greedy_repair_size(&ctx, &cset2), 1);
        assert!((F3GreedyRepair.exception_rate(&ctx, &cset2) - 1.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn example_1_2_threshold_crossover() {
        // With ε = 0.05: ϕ₁ is an ADC under f1 but not under f3;
        // with ε = 0.07: ϕ₂ is an ADC under f3 but not under f1.
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        let cset1 = phi1(&fx.space).complement_set(&fx.space);
        let cset2 = phi2(&fx.space).complement_set(&fx.space);
        assert!(F1ViolationRate.exception_rate(&ctx, &cset1) <= 0.05);
        assert!(F3GreedyRepair.exception_rate(&ctx, &cset1) > 0.05);
        assert!(F3GreedyRepair.exception_rate(&ctx, &cset2) <= 0.07);
        assert!(F1ViolationRate.exception_rate(&ctx, &cset2) > 0.07);
    }

    #[test]
    fn f2_counts_problematic_tuples() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        // ϕ₁ violations involve tuples {t6,t7} and {t14,t15}: 4 problematic tuples.
        let cset1 = phi1(&fx.space).complement_set(&fx.space);
        let f2 = F2ProblematicTuples;
        assert!((f2.exception_rate(&ctx, &cset1) - 4.0 / 15.0).abs() < 1e-12);
        // ϕ₂ violations involve t15 and each of t6..t13: 9 problematic tuples.
        let cset2 = phi2(&fx.space).complement_set(&fx.space);
        assert!((f2.exception_rate(&ctx, &cset2) - 9.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn proposition_5_3_bound_holds_on_running_example() {
        // If 1 − f_i ≤ ε (i ∈ {2,3}) then 1 − f1 ≤ 2ε.
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        for dc in [phi1(&fx.space), phi2(&fx.space)] {
            let cset = dc.complement_set(&fx.space);
            let e1 = F1ViolationRate.exception_rate(&ctx, &cset);
            let e2 = F2ProblematicTuples.exception_rate(&ctx, &cset);
            let e3 = F3GreedyRepair.exception_rate(&ctx, &cset);
            assert!(e1 <= 2.0 * e2 + 1e-12);
            // f3-greedy over-approximates the optimal repair, so the bound of
            // Proposition 5.3 (stated for the exact f3) still holds a fortiori.
            assert!(e1 <= 2.0 * e3 + 1e-12);
        }
    }

    #[test]
    fn valid_dc_scores_one_under_all_functions() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        // Name ≠ Name' ∨ Zip ≠ Zip' ... pick a DC with full predicate set: the
        // complement set of ALL predicates hits every non-empty evidence entry.
        let all = FixedBitSet::full(fx.space.len());
        for kind in crate::ApproxKind::ALL {
            let f = kind.instantiate();
            assert!(
                f.score(&ctx, &all) >= 1.0 - 1e-12,
                "{} should be 1.0 for the all-predicates hitting set",
                f.name()
            );
        }
    }

    #[test]
    fn empty_complement_set_scores_zero_under_f1() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        let empty = FixedBitSet::new(fx.space.len());
        assert!(F1ViolationRate.score(&ctx, &empty) < 1e-12);
        assert!(F2ProblematicTuples.score(&ctx, &empty) < 1e-12);
        // Greedy repair must remove roughly half the tuples to cover all pairs,
        // so the score is well below 1.
        assert!(F3GreedyRepair.score(&ctx, &empty) < 0.7);
    }

    #[test]
    fn sample_adjusted_f1_is_bounded_by_f1() {
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let f1 = F1ViolationRate;
        let f1p = SampleAdjustedF1::default();
        assert!(f1p.z > 1.64 && f1p.z < 1.65);
        for dc in [phi1(&fx.space), phi2(&fx.space)] {
            let cset = dc.complement_set(&fx.space);
            let plain = f1.score(&ctx, &cset);
            let adjusted = f1p.score(&ctx, &cset);
            assert!(adjusted <= plain + 1e-12);
            // The margin shrinks as n grows; with 210 pairs it is small but positive.
            assert!(plain - adjusted < 0.05);
        }
    }

    #[test]
    fn requires_vios_flags() {
        assert!(!F1ViolationRate.requires_vios());
        assert!(F2ProblematicTuples.requires_vios());
        assert!(F3GreedyRepair.requires_vios());
        assert!(!SampleAdjustedF1::default().requires_vios());
    }

    #[test]
    #[should_panic(expected = "requires the vios index")]
    fn f2_without_vios_panics() {
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let empty = FixedBitSet::new(fx.space.len());
        let _ = F2ProblematicTuples.score(&ctx, &empty);
    }

    /// Every function this crate provides.
    fn all_functions() -> [Box<dyn ApproximationFunction>; 4] {
        [
            Box::new(F1ViolationRate),
            Box::new(SampleAdjustedF1::default()),
            Box::new(F2ProblematicTuples),
            Box::new(F3GreedyRepair),
        ]
    }

    /// `score_uncovered` over the scanned uncovered entries must return the
    /// bits `score` returns: given as one run, and as two interleaved runs
    /// in reverse order.
    fn assert_uncovered_scores_bit_identical(ctx: &ApproxContext<'_>, set: &FixedBitSet) {
        let scan = ctx.evidence.uncovered_indexes(set);
        let evens: Vec<u32> = scan.iter().copied().step_by(2).collect();
        let odds: Vec<u32> = scan.iter().copied().skip(1).step_by(2).collect();
        // f1 also matches the evidence set's own scan.
        assert_eq!(
            F1ViolationRate.score(ctx, set).to_bits(),
            (1.0 - ctx.evidence.violation_fraction(set)).to_bits()
        );
        for f in all_functions() {
            let expected = f.score(ctx, set).to_bits();
            for runs in [&[&scan[..]][..], &[&odds[..], &evens[..]]] {
                assert_eq!(
                    f.score_uncovered(ctx, set, runs).to_bits(),
                    expected,
                    "{} on {:?} with runs {runs:?}",
                    f.name(),
                    set.to_vec()
                );
            }
        }
    }

    /// The empty set, the full set, and `count` random sets of varying
    /// density over `num_predicates` predicates.
    fn random_sets(num_predicates: usize, count: usize, seed: u64) -> Vec<FixedBitSet> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets = vec![
            FixedBitSet::new(num_predicates),
            FixedBitSet::full(num_predicates),
        ];
        for _ in 0..count {
            let density = rng.gen_range(0.0..0.3);
            let mut set = FixedBitSet::new(num_predicates);
            for p in 0..num_predicates {
                if rng.gen_bool(density) {
                    set.insert(p);
                }
            }
            sets.push(set);
        }
        sets
    }

    fn assert_bit_identical_on(r: &Relation, seed: u64) {
        let space = PredicateSpace::build(r, SpaceConfig::default());
        let ev = ClusterEvidenceBuilder.build(r, &space, true);
        let ctx = ApproxContext::with_vios(&ev.evidence_set, ev.vios());
        for set in random_sets(space.len(), 200, seed) {
            assert_uncovered_scores_bit_identical(&ctx, &set);
        }
    }

    #[test]
    fn score_uncovered_is_bit_identical_on_the_running_example() {
        assert_bit_identical_on(&running_example(), 1);
    }

    #[test]
    fn score_uncovered_is_bit_identical_on_a_noisy_fixture() {
        // The running example with cells overwritten at random: many more
        // distinct evidence entries and violations than the clean table.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let clean = running_example();
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = Relation::builder(clean.schema().clone());
        for t in 0..clean.len() {
            let mut row = clean.row(t);
            for cell in row.iter_mut().skip(2) {
                if rng.gen_bool(0.3) {
                    *cell = Value::Int(rng.gen_range(0..4) * 10_000);
                }
            }
            b.push_row(row).unwrap();
        }
        assert_bit_identical_on(&b.build(), 2);
    }

    #[test]
    fn score_uncovered_is_bit_identical_without_pairs() {
        // The empty relation (no tuples) and a single tuple (tuples but
        // `total_pairs == 0`).
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Text)]);
        let empty = Relation::empty(schema.clone());
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Int(1), "x".into()]).unwrap();
        let single = b.build();
        for (r, seed) in [(empty, 3), (single, 4)] {
            let space = PredicateSpace::build(&r, SpaceConfig::default());
            let ev = ClusterEvidenceBuilder.build(&r, &space, true);
            assert_eq!(ev.evidence_set.total_pairs(), 0);
            assert_bit_identical_on(&r, seed);
        }
    }

    #[test]
    fn empty_database_scores_one() {
        let schema = Schema::of(&[("A", AttributeType::Integer)]);
        let r = Relation::empty(schema);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let ev = ClusterEvidenceBuilder.build(&r, &space, true);
        let ctx = ApproxContext::with_vios(&ev.evidence_set, ev.vios());
        let empty = FixedBitSet::new(space.len());
        for kind in crate::ApproxKind::ALL {
            assert!((kind.instantiate().score(&ctx, &empty) - 1.0).abs() < 1e-12);
        }
        assert!((SampleAdjustedF1::default().score(&ctx, &empty) - 1.0).abs() < 1e-12);
    }
}
