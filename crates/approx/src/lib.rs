//! # adc-approx
//!
//! Approximation functions for approximate denial constraints (Section 5 of
//! the VLDB 2020 paper), evaluated against an evidence set.
//!
//! A *valid approximation function* `f : (D, S_ϕ) → [0, 1]` must satisfy two
//! axioms:
//!
//! * **Monotonicity** — adding predicates to a DC can only increase its score
//!   (so it suffices to report *minimal* ADCs);
//! * **Indifference to redundancy** — predicates that do not change the set
//!   of satisfying tuple pairs do not change the score (enabling the pruning
//!   rules of the enumeration algorithm).
//!
//! This crate provides the three concrete functions the paper studies —
//! [`F1ViolationRate`], [`F2ProblematicTuples`], and [`F3GreedyRepair`]
//! (the greedy stand-in for the NP-hard cardinality-repair measure of
//! Figure 2) — plus the sample-adjusted [`SampleAdjustedF1`] (`f₁'`) of
//! Section 7, all behind the [`ApproximationFunction`] trait so that
//! `ADCEnum` stays agnostic of the semantics, which is the paper's headline
//! generality claim.
//!
//! Scores are computed from the interned evidence set (and the `vios` index
//! for `f2`/`f3`), never from raw tuple pairs, matching the complexity
//! discussion in Section 5 of the paper.
//!
//! Indifference to redundancy makes a valid function depend on a DC only
//! through the evidence entries it leaves uncovered. The enumerator already
//! holds those entries at every search node, so it scores through
//! [`ApproximationFunction::score_uncovered`], which receives them as
//! ascending, pairwise-disjoint runs of entry ids. The built-in functions
//! override it and never rescan the evidence; their `score` is the same
//! formula over one scan. A function that implements only `score` falls
//! back to it through the trait's default and stays correct.
//!
//! ```
//! use adc_approx::{ApproxContext, ApproximationFunction, F1ViolationRate};
//! use adc_data::FixedBitSet;
//! use adc_evidence::evidence::EvidenceAccumulator;
//!
//! // An evidence multiset: 4 pairs satisfy predicates {0,1}, 1 pair satisfies {2}.
//! let mut acc = EvidenceAccumulator::new(3, 3);
//! acc.add_many(FixedBitSet::from_indices(3, [0, 1]), 4);
//! acc.add_many(FixedBitSet::from_indices(3, [2]), 1);
//! let evidence = acc.finish();
//!
//! // The DC with complement set {0} misses only the {2} entry: 1 of 5 pairs
//! // violate, so f1 = 4/5.
//! let ctx = ApproxContext::new(&evidence);
//! let set = FixedBitSet::from_indices(3, [0]);
//! let score = F1ViolationRate.score(&ctx, &set);
//! assert!((score - 0.8).abs() < 1e-12);
//!
//! // The same score from the uncovered entry ids (entry 1, the {2} entry),
//! // as the enumerator passes them.
//! let uncovered: &[u32] = &[1];
//! assert_eq!(F1ViolationRate.score_uncovered(&ctx, &set, &[uncovered]), score);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
pub mod functions;
pub mod normal;

pub use functions::{
    ApproxContext, ApproximationFunction, F1ViolationRate, F2ProblematicTuples, F3GreedyRepair,
    SampleAdjustedF1,
};

/// The approximation functions evaluated in the paper, as an enum for easy
/// selection in configuration structs, CLIs, and benchmark sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproxKind {
    /// `f1` — fraction of tuple pairs satisfying the DC.
    F1,
    /// `f2` — fraction of tuples not involved in any violation.
    F2,
    /// `f3` — greedy approximation of the cardinality-repair fraction.
    F3,
}

impl ApproxKind {
    /// All three functions, in paper order.
    pub const ALL: [ApproxKind; 3] = [ApproxKind::F1, ApproxKind::F2, ApproxKind::F3];

    /// Instantiate the corresponding function object.
    pub fn instantiate(self) -> Box<dyn ApproximationFunction> {
        match self {
            ApproxKind::F1 => Box::new(F1ViolationRate),
            ApproxKind::F2 => Box::new(F2ProblematicTuples),
            ApproxKind::F3 => Box::new(F3GreedyRepair),
        }
    }

    /// Short name used in reports ("f1", "f2", "f3").
    pub fn name(self) -> &'static str {
        match self {
            ApproxKind::F1 => "f1",
            ApproxKind::F2 => "f2",
            ApproxKind::F3 => "f3",
        }
    }
}

impl std::fmt::Display for ApproxKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_instantiate_with_matching_names() {
        for kind in ApproxKind::ALL {
            let f = kind.instantiate();
            assert_eq!(f.name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }
}
