//! Empirical checks of the valid-approximation-function axioms
//! (Definitions 4.1–4.3 of the paper).
//!
//! The axioms are stated over DC predicate sets; in the evidence-set
//! representation used by this workspace, adding predicates to a DC
//! corresponds to adding elements to its complement (hitting) set. The
//! checkers below exercise a function over randomly grown chains of hitting
//! sets and over redundancy-preserving extensions, and report the first
//! counterexample found. They score through
//! `ApproximationFunction::score_uncovered`, the method the enumerator
//! calls, so a function is checked on the path mining takes. They are used
//! by the test suites of this crate and of `adc-datasets` to validate that
//! every function the miner is configured with behaves like a valid
//! approximation function on the data at hand.

use crate::functions::{ApproxContext, ApproximationFunction};
use adc_data::FixedBitSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A counterexample to one of the axioms.
#[derive(Debug, Clone)]
pub struct AxiomViolation {
    /// The smaller complement set.
    pub smaller: Vec<usize>,
    /// The larger complement set.
    pub larger: Vec<usize>,
    /// Score of the smaller set.
    pub smaller_score: f64,
    /// Score of the larger set.
    pub larger_score: f64,
}

/// Check monotonicity on `trials` random chains of growing hitting sets.
///
/// Returns the first violation found, or `None` if the function behaved
/// monotonically on every sampled chain. `num_predicates` is the size of the
/// predicate space the evidence was built over.
pub fn check_monotonicity(
    f: &dyn ApproximationFunction,
    ctx: &ApproxContext<'_>,
    num_predicates: usize,
    trials: usize,
    seed: u64,
) -> Option<AxiomViolation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tolerance = 1e-9;
    for _ in 0..trials {
        let mut order: Vec<usize> = (0..num_predicates).collect();
        order.shuffle(&mut rng);
        let chain_len = rng.gen_range(1..=num_predicates.max(1));
        let mut set = FixedBitSet::new(num_predicates);
        let mut prev_score = enumerator_score(f, ctx, &set);
        let mut prev_elems: Vec<usize> = Vec::new();
        for &e in order.iter().take(chain_len) {
            set.insert(e);
            let score = enumerator_score(f, ctx, &set);
            if score + tolerance < prev_score {
                return Some(AxiomViolation {
                    smaller: prev_elems,
                    larger: set.to_vec(),
                    smaller_score: prev_score,
                    larger_score: score,
                });
            }
            prev_score = score;
            prev_elems = set.to_vec();
        }
    }
    None
}

/// Check indifference to redundancy: if adding elements to a hitting set does
/// not change which evidence entries it covers, the score must not change.
///
/// Returns the first violation found, or `None`.
pub fn check_indifference_to_redundancy(
    f: &dyn ApproximationFunction,
    ctx: &ApproxContext<'_>,
    num_predicates: usize,
    trials: usize,
    seed: u64,
) -> Option<AxiomViolation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tolerance = 1e-9;
    for _ in 0..trials {
        // Random base set.
        let mut base = FixedBitSet::new(num_predicates);
        for i in 0..num_predicates {
            if rng.gen_bool(0.3) {
                base.insert(i);
            }
        }
        let base_cover = coverage_signature(ctx, &base);
        let base_score = enumerator_score(f, ctx, &base);
        // Try to extend it with elements that do not change coverage.
        let mut extended = base.clone();
        let mut changed = false;
        for i in 0..num_predicates {
            if extended.contains(i) {
                continue;
            }
            extended.insert(i);
            if coverage_signature(ctx, &extended) == base_cover {
                changed = true; // keep it: a redundancy-preserving extension
            } else {
                extended.remove(i);
            }
        }
        if !changed {
            continue;
        }
        let extended_score = enumerator_score(f, ctx, &extended);
        if (extended_score - base_score).abs() > tolerance {
            return Some(AxiomViolation {
                smaller: base.to_vec(),
                larger: extended.to_vec(),
                smaller_score: base_score,
                larger_score: extended_score,
            });
        }
    }
    None
}

/// Score `set` the way the enumerator does: through
/// [`ApproximationFunction::score_uncovered`], given the uncovered entries.
/// A function that implements only `score` is reached through the default.
fn enumerator_score(
    f: &dyn ApproximationFunction,
    ctx: &ApproxContext<'_>,
    set: &FixedBitSet,
) -> f64 {
    let uncovered = ctx.evidence.uncovered_indexes(set);
    f.score_uncovered(ctx, set, &[&uncovered])
}

/// Which evidence entries a hitting set covers (the "set of satisfying tuple
/// pairs" in the paper's phrasing of indifference to redundancy).
fn coverage_signature(ctx: &ApproxContext<'_>, set: &FixedBitSet) -> Vec<bool> {
    ctx.evidence
        .entries()
        .iter()
        .map(|e| e.set.intersects(set))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{
        F1ViolationRate, F2ProblematicTuples, F3GreedyRepair, SampleAdjustedF1,
    };
    use adc_data::{AttributeType, Relation, Schema, Value};
    use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder};
    use adc_predicates::{PredicateSpace, SpaceConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_relation(rows: usize, seed: u64) -> Relation {
        let schema = Schema::of(&[
            ("A", AttributeType::Text),
            ("B", AttributeType::Integer),
            ("C", AttributeType::Integer),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let cats = ["x", "y", "z", "w"];
        let mut b = Relation::builder(schema);
        for _ in 0..rows {
            b.push_row(vec![
                Value::from(cats[rng.gen_range(0..cats.len())]),
                Value::Int(rng.gen_range(0..6)),
                Value::Int(rng.gen_range(0..6)),
            ])
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn f1_and_f2_satisfy_both_axioms_on_random_data() {
        for seed in 0..3u64 {
            let r = random_relation(25, seed);
            let space = PredicateSpace::build(&r, SpaceConfig::default());
            let ev = ClusterEvidenceBuilder.build(&r, &space, true);
            let ctx = ApproxContext::with_vios(&ev.evidence_set, ev.vios());
            for f in [
                &F1ViolationRate as &dyn ApproximationFunction,
                &F2ProblematicTuples,
            ] {
                assert!(
                    check_monotonicity(f, &ctx, space.len(), 20, seed).is_none(),
                    "{} not monotonic (seed {seed})",
                    f.name()
                );
                assert!(
                    check_indifference_to_redundancy(f, &ctx, space.len(), 20, seed).is_none(),
                    "{} not indifferent to redundancy (seed {seed})",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn sample_adjusted_f1_satisfies_both_axioms() {
        let r = random_relation(30, 7);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let ev = ClusterEvidenceBuilder.build(&r, &space, false);
        let ctx = ApproxContext::new(&ev.evidence_set);
        let f = SampleAdjustedF1::default();
        assert!(check_monotonicity(&f, &ctx, space.len(), 20, 1).is_none());
        assert!(check_indifference_to_redundancy(&f, &ctx, space.len(), 20, 1).is_none());
    }

    #[test]
    fn f3_greedy_is_indifferent_to_redundancy() {
        // Indifference holds exactly for the greedy algorithm because its
        // input (the uncovered entries) only depends on coverage.
        let r = random_relation(25, 11);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let ev = ClusterEvidenceBuilder.build(&r, &space, true);
        let ctx = ApproxContext::with_vios(&ev.evidence_set, ev.vios());
        assert!(
            check_indifference_to_redundancy(&F3GreedyRepair, &ctx, space.len(), 20, 3).is_none()
        );
    }

    #[test]
    fn a_deliberately_broken_function_is_caught() {
        /// A function that *rewards* smaller hitting sets — violates
        /// monotonicity. It implements only `score`, so the checkers reach it
        /// through the default `score_uncovered`.
        struct Broken;
        impl ApproximationFunction for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn score(&self, _ctx: &ApproxContext<'_>, set: &FixedBitSet) -> f64 {
                1.0 / (1.0 + set.len() as f64)
            }
        }
        let r = random_relation(15, 2);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let ev = ClusterEvidenceBuilder.build(&r, &space, false);
        let ctx = ApproxContext::new(&ev.evidence_set);
        let violation = check_monotonicity(&Broken, &ctx, space.len(), 10, 0);
        assert!(violation.is_some());
        let v = violation.unwrap();
        assert!(v.larger_score < v.smaller_score);
        assert!(v.larger.len() > v.smaller.len());
    }
}
