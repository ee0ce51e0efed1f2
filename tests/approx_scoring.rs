//! Scoring from the search node's uncovered entries changes no answer.
//!
//! The enumerator scores through `ApproximationFunction::score_uncovered`,
//! handing over the evidence entries the scored set leaves uncovered. The
//! built-in functions override it and never rescan the evidence; a function
//! that implements only `score` takes the trait's default, which rescans.
//! Both paths must mine the identical DC *sequence* with the identical
//! search counters, for every built-in function, under DFS and under a
//! capped shortest-first search.

use adc::approx::{
    ApproxContext, F1ViolationRate, F2ProblematicTuples, F3GreedyRepair, SampleAdjustedF1,
};
use adc::data::FixedBitSet;
use adc::datasets::{running_example, targeted_spread_noise};
use adc::prelude::*;

/// Delegates `score` alone, so the enumerator reaches the wrapped function
/// through the default `score_uncovered`.
struct ScoreOnly<'f>(&'f dyn ApproximationFunction);

impl ApproximationFunction for ScoreOnly<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn requires_vios(&self) -> bool {
        self.0.requires_vios()
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        self.0.score(ctx, complement_set)
    }
}

fn functions() -> [Box<dyn ApproximationFunction>; 4] {
    [
        Box::new(F1ViolationRate),
        Box::new(SampleAdjustedF1::default()),
        Box::new(F2ProblematicTuples),
        Box::new(F3GreedyRepair),
    ]
}

fn ids(dcs: &[DenialConstraint]) -> Vec<Vec<usize>> {
    dcs.iter().map(|d| d.predicate_ids().to_vec()).collect()
}

/// Mine `relation` with every function, under DFS and under shortest-first,
/// each capped at 150 DCs (the generated instances' full DFS answers run to
/// 10⁵ DCs), through both scoring paths, and compare.
fn assert_paths_agree(name: &str, relation: &Relation, space: SpaceConfig, epsilon: f64) {
    let space = PredicateSpace::build(relation, space);
    let evidence = ClusterEvidenceBuilder.build(relation, &space, true);
    let mut options = EnumerationOptions::new(epsilon);
    options.max_dcs = Some(150);
    for f in functions() {
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let options = options.with_order(order);
            let context = format!("{name}, {}, {:?}", f.name(), options.order);
            let node_view = enumerate_adcs(&space, &evidence, f.as_ref(), &options);
            let fallback = enumerate_adcs(&space, &evidence, &ScoreOnly(f.as_ref()), &options);
            assert!(!node_view.dcs.is_empty(), "{context}: no DCs mined");
            assert_eq!(
                ids(&node_view.dcs),
                ids(&fallback.dcs),
                "{context}: DC sequence"
            );
            let (a, b) = (node_view.stats, fallback.stats);
            assert_eq!(a.score_evaluations, b.score_evaluations, "{context}");
            assert_eq!(a.recursive_calls, b.recursive_calls, "{context}");
            assert_eq!(a.peak_frontier, b.peak_frontier, "{context}");
            assert_eq!(node_view.truncation, fallback.truncation, "{context}");
        }
    }
}

#[test]
fn running_example_mines_identically_on_both_scoring_paths() {
    assert_paths_agree(
        "running example",
        &running_example(),
        SpaceConfig::default(),
        0.05,
    );
}

#[test]
fn adult_mines_identically_on_both_scoring_paths() {
    let relation = Dataset::Adult.generator().generate(60, 11);
    assert_paths_agree("Adult", &relation, SpaceConfig::default(), 0.01);
}

#[test]
fn noisy_hospital_mines_identically_on_both_scoring_paths() {
    let generator = Dataset::Hospital.generator();
    let clean = generator.generate(60, 12);
    let (dirty, _) = targeted_spread_noise(
        &clean,
        &generator.correlation(),
        &NoiseConfig::with_rate(0.01),
        13,
    );
    assert_paths_agree("noisy Hospital", &dirty, SpaceConfig::default(), 0.01);
}

#[test]
fn tax_mines_identically_on_both_scoring_paths() {
    let relation = Dataset::Tax.generator().generate(60, 14);
    assert_paths_agree("Tax", &relation, SpaceConfig::default(), 0.01);
}
