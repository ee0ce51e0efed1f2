//! `ADCEnum` at the DC level: mapping between evidence sets / hitting sets
//! and denial constraints.
//!
//! The reduction (Section 6 of the paper): a DC `ϕ` is (approximately)
//! satisfied exactly when its **complement set** `Ŝ_ϕ` (approximately) hits
//! every evidence set. The generic enumerator of `adc-hitting` therefore
//! enumerates minimal approximate hitting sets `X` over the predicate
//! universe; this module turns each `X` into the DC whose predicate set is
//! the element-wise complement of `X`, and filters out the degenerate
//! outputs (the empty constraint and trivially valid constraints).

use adc_approx::{ApproxContext, ApproximationFunction};
use adc_data::FixedBitSet;
use adc_evidence::Evidence;
use adc_hitting::{
    ApproxDriver, ApproxEnumStats, BranchStrategy, Search, SearchBudget, SearchOrder, SetSystem,
    SuspendedSearch, TruncationReason,
};
use adc_predicates::{DenialConstraint, PredicateSpace};
use std::fmt;

/// How and where a non-exhaustive enumeration was cut short. Attached to
/// [`EnumerationOutcome`] and `MiningResult` so callers can tell an exact
/// (complete) answer set from an anytime prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationInfo {
    /// What stopped the search: the DC cap, a node/deadline budget, or the
    /// caller's callback. [`TruncationReason::MaxEmitted`] means the
    /// result-cap machinery fired; when the result holds *fewer* than
    /// `max_dcs` DCs, it was the raw-cover headroom (the engine emits up to
    /// `4 × max_dcs` hitting sets to leave room for trivial/empty covers
    /// that are filtered out) or a caller-set `budget.max_emitted` rather
    /// than the DC cap itself — compare `stats.emitted` with the DC count
    /// to see how many covers the filter dropped.
    pub reason: TruncationReason,
    /// Under [`SearchOrder::ShortestFirst`]: every minimal ADC with strictly
    /// fewer predicates than this was emitted — the returned DCs contain the
    /// *entire* frontier below that size. `None` under DFS order, where the
    /// kept prefix is arbitrary.
    pub complete_below_size: Option<usize>,
}

impl fmt::Display for TruncationInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reason = match self.reason {
            TruncationReason::MaxNodes => "node budget",
            TruncationReason::Deadline => "deadline",
            TruncationReason::MaxEmitted => "result cap",
            TruncationReason::Callback => "caller stop",
        };
        match self.complete_below_size {
            Some(size) => write!(f, "truncated by {reason}; complete below size {size}"),
            None => write!(f, "truncated by {reason}"),
        }
    }
}

/// Opaque resume token of a budget- or cap-cut enumeration: the engine's
/// entire pending frontier plus its cumulative counters. Hand it back to
/// [`resume_adcs`] (with the same space, evidence, function, and options) to
/// continue the run exactly where it stopped — the concatenated DC sequence
/// across slices equals the sequence of a single uncut run.
#[derive(Debug, Clone)]
pub struct EnumerationResume {
    suspended: SuspendedSearch,
}

impl EnumerationResume {
    /// Number of pending search nodes the token holds (a proxy for its
    /// memory footprint).
    pub fn frontier_len(&self) -> usize {
        self.suspended.frontier_len()
    }

    /// Raw hitting-set covers emitted so far across every slice (including
    /// covers filtered out as trivial/empty DCs).
    pub fn total_covers_emitted(&self) -> usize {
        self.suspended.total_emitted()
    }

    /// Search nodes expanded so far across every slice.
    pub fn total_nodes_expanded(&self) -> u64 {
        self.suspended.total_nodes_expanded()
    }
}

/// Result of one enumeration run.
#[derive(Debug, Clone, Default)]
pub struct EnumerationOutcome {
    /// The discovered minimal ADCs (non-trivial, non-empty), in emission order.
    pub dcs: Vec<DenialConstraint>,
    /// Counters from the underlying hitting-set enumeration.
    pub stats: ApproxEnumStats,
    /// `None` when the enumeration was exhaustive; `Some` when the DC cap or
    /// the search budget cut it short.
    pub truncation: Option<TruncationInfo>,
    /// Present exactly when the run was truncated: the token [`resume_adcs`]
    /// continues from.
    pub resume: Option<EnumerationResume>,
}

/// Options for [`enumerate_adcs`].
#[derive(Debug, Clone, Copy)]
pub struct EnumerationOptions {
    /// Approximation threshold ε.
    pub epsilon: f64,
    /// Branching strategy (the paper defaults to max-intersection).
    pub strategy: BranchStrategy,
    /// Enable the `WillCover` pruning (disable only for ablations).
    pub will_cover_pruning: bool,
    /// Stop after this many DCs (`None` = exhaustive).
    pub max_dcs: Option<usize>,
    /// Frontier order of the search engine. Under
    /// [`SearchOrder::ShortestFirst`] DCs are emitted in nondecreasing
    /// predicate count, so `max_dcs` keeps the shortest minimal ADCs instead
    /// of an arbitrary DFS prefix.
    pub order: SearchOrder,
    /// Anytime budget (nodes, wall-clock deadline, emitted covers) for the
    /// search engine; exceeding it is reported via
    /// [`EnumerationOutcome::truncation`].
    pub budget: SearchBudget,
}

impl EnumerationOptions {
    /// Default options for a threshold.
    pub fn new(epsilon: f64) -> Self {
        EnumerationOptions {
            epsilon,
            strategy: BranchStrategy::default(),
            will_cover_pruning: true,
            max_dcs: None,
            order: SearchOrder::default(),
            budget: SearchBudget::default(),
        }
    }

    /// Select the frontier order.
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Bound the search by nodes, wall-clock time, and/or emitted covers.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Enumerate the minimal ADCs of the database summarised by `evidence`,
/// w.r.t. the approximation function `f` and threshold `options.epsilon`.
///
/// `evidence` must have been built over `space` (same predicate universe).
/// If `f` requires the `vios` index (`f2`, `f3`), the evidence must have been
/// built with `track_vios = true`.
pub fn enumerate_adcs(
    space: &PredicateSpace,
    evidence: &Evidence,
    f: &dyn ApproximationFunction,
    options: &EnumerationOptions,
) -> EnumerationOutcome {
    run_adcs(space, evidence, f, options, None, None)
}

/// Convert one raw hitting-set cover into its denial constraint: `None` for
/// the empty cover (the uninformative `¬true`) and for covers whose
/// complement DC is trivially valid.
pub(crate) fn cover_to_dc(space: &PredicateSpace, cover: &FixedBitSet) -> Option<DenialConstraint> {
    if cover.is_empty() {
        return None;
    }
    let dc = DenialConstraint::new(cover.iter().map(|e| space.complement_of(e)).collect());
    if dc.is_trivial(space) {
        None
    } else {
        Some(dc)
    }
}

/// Continue an enumeration cut short by a budget, the DC cap, or the
/// caller's callback, from the token carried by
/// [`EnumerationOutcome::resume`].
///
/// The space, evidence, approximation function, and the problem-defining
/// options (`epsilon`, `strategy`, `will_cover_pruning`, `order`) must be
/// identical to the original run's; `options.budget` and `options.max_dcs`
/// apply to this slice alone. Under those conditions the concatenation of
/// the slices' DC sequences equals the sequence of a single uncut run.
pub fn resume_adcs(
    space: &PredicateSpace,
    evidence: &Evidence,
    f: &dyn ApproximationFunction,
    options: &EnumerationOptions,
    resume: EnumerationResume,
) -> EnumerationOutcome {
    run_adcs(space, evidence, f, options, Some(resume), None)
}

/// The one ADC enumeration behind [`enumerate_adcs`], [`resume_adcs`] and
/// the monitor's restart: a fresh run, or the continuation of `resume`.
///
/// `capture`, when given, receives every **raw hitting-set cover** the
/// engine emits — including the empty cover and covers whose DC is trivial,
/// which [`cover_to_dc`] filters out of the result. The differential monitor
/// needs the unfiltered answer set: `adc_hitting::repair_covers` is exact
/// only when handed the complete transversal family, and a trivial cover can
/// graft into a non-trivial one when the system grows.
pub(crate) fn run_adcs(
    space: &PredicateSpace,
    evidence: &Evidence,
    f: &dyn ApproximationFunction,
    options: &EnumerationOptions,
    resume: Option<EnumerationResume>,
    mut capture: Option<&mut Vec<FixedBitSet>>,
) -> EnumerationOutcome {
    let evidence_set = &evidence.evidence_set;
    assert_eq!(
        evidence_set.num_predicates(),
        space.len(),
        "evidence was built over a different predicate space"
    );

    let subsets: Vec<FixedBitSet> = evidence_set
        .entries()
        .iter()
        .map(|e| e.set.clone())
        .collect();
    let system = SetSystem::new(space.len(), subsets);

    let ctx = match (f.requires_vios(), evidence.vios.as_ref()) {
        (true, Some(vios)) => ApproxContext::with_vios(evidence_set, vios),
        // conformance: allow(panic) — configuration precondition with an explanatory message; a typed error here would just be rethrown by every harness caller
        (true, None) => panic!(
            "approximation function `{}` requires the vios index; build evidence with track_vios = true",
            f.name()
        ),
        (false, _) => ApproxContext::new(evidence_set),
    };
    // The engine hands over the node's uncovered entries, so built-in
    // functions score without rescanning the evidence.
    let score = |hitting_set: &FixedBitSet, uncovered: &[&[u32]]| {
        f.score_uncovered(&ctx, hitting_set, uncovered)
    };
    let groups: Vec<usize> = (0..space.len()).map(|i| space.group_of(i)).collect();
    let mut driver = ApproxDriver::new(score, options.epsilon)
        .element_groups(&groups)
        .will_cover_pruning(options.will_cover_pruning);

    let mut budget = options.budget;
    if let Some(max) = options.max_dcs {
        // Leave headroom for filtered-out trivial/empty sets; the exact DC
        // cap is enforced in the callback below.
        let headroom = max.saturating_mul(4).max(max);
        budget.max_emitted = Some(budget.max_emitted.map_or(headroom, |cap| cap.min(headroom)));
    }
    let search = match resume {
        Some(token) => Search::resume(token.suspended),
        None => Search::new(options.strategy, options.order),
    };

    let mut dcs = Vec::new();
    let outcome = search
        .budget(budget)
        .run(&system, &mut driver, &mut |cover: &FixedBitSet| {
            if let Some(covers) = capture.as_deref_mut() {
                covers.push(cover.clone());
            }
            dcs.extend(cover_to_dc(space, cover));
            options.max_dcs.is_none_or(|max| dcs.len() < max)
        });

    let truncation = outcome.truncation.map(|t| TruncationInfo {
        // The DC cap stops the search through the callback; relabel that as
        // the result cap it is, so callers need not know the mechanism.
        // `MaxEmitted` can also arrive straight from the engine when the
        // raw-cover headroom above (or a caller-set `budget.max_emitted`)
        // fires before `max_dcs` non-trivial DCs accumulate — in that case
        // `dcs.len() < max_dcs`, and `stats.emitted` vs `dcs.len()` shows
        // how many raw covers were filtered as trivial/empty.
        reason: match (t.reason, options.max_dcs) {
            (TruncationReason::Callback, Some(max)) if dcs.len() >= max => {
                TruncationReason::MaxEmitted
            }
            (reason, _) => reason,
        },
        complete_below_size: t.complete_below,
    });

    EnumerationOutcome {
        dcs,
        stats: ApproxEnumStats {
            recursive_calls: outcome.nodes_expanded,
            score_evaluations: driver.score_evaluations(),
            emitted: outcome.emitted as u64,
            peak_frontier: outcome.peak_frontier as u64,
            frontier_contractions: outcome.contractions,
        },
        truncation,
        resume: outcome
            .suspended
            .map(|suspended| EnumerationResume { suspended }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_approx::{ApproxKind, F1ViolationRate};
    use adc_data::{AttributeType, Relation, Schema, Value};
    use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder};
    use adc_predicates::{SpaceConfig, TupleRole};

    /// The full 15-tuple running example of the paper (Table 1).
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

    fn setup(config: SpaceConfig) -> (Relation, PredicateSpace, Evidence) {
        let r = running_example();
        let space = PredicateSpace::build(&r, config);
        let evidence = ClusterEvidenceBuilder.build(&r, &space, true);
        (r, space, evidence)
    }

    #[test]
    fn every_emitted_dc_is_a_minimal_adc() {
        let (r, space, evidence) = setup(SpaceConfig::same_column_only());
        let epsilon = 0.05;
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(epsilon),
        );
        assert!(!out.dcs.is_empty());
        let total = r.ordered_pair_count() as f64;
        for dc in &out.dcs {
            let violations = dc.count_violations(&space, &r) as f64;
            assert!(
                violations / total <= epsilon + 1e-12,
                "{} violates threshold",
                dc.display(&space)
            );
            // Minimality: removing any predicate must push the DC above ε.
            for &p in dc.predicate_ids() {
                let smaller = DenialConstraint::new(
                    dc.predicate_ids()
                        .iter()
                        .copied()
                        .filter(|&q| q != p)
                        .collect(),
                );
                if smaller.is_empty() {
                    continue;
                }
                let v = smaller.count_violations(&space, &r) as f64;
                assert!(
                    v / total > epsilon,
                    "{} is not minimal (drop {p})",
                    dc.display(&space)
                );
            }
        }
    }

    #[test]
    fn discovers_the_income_tax_rule_at_five_percent() {
        // The motivating constraint ϕ₁ of Example 1.1 is an ADC for f1 at ε = 0.05.
        let (_, space, evidence) = setup(SpaceConfig::default());
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05),
        );
        let state_eq = space.find("State", "=", TupleRole::Other, "State").unwrap();
        let income_gt = space
            .find("Income", ">", TupleRole::Other, "Income")
            .unwrap();
        let tax_leq = space.find("Tax", "≤", TupleRole::Other, "Tax").unwrap();
        let phi1 = DenialConstraint::new(vec![state_eq, income_gt, tax_leq]);
        let found = out
            .dcs
            .iter()
            .any(|dc| dc.predicate_ids().iter().all(|p| phi1.contains(*p)) && !dc.is_empty());
        assert!(
            found,
            "expected a generalisation of ϕ₁ among {} DCs",
            out.dcs.len()
        );
    }

    #[test]
    fn epsilon_zero_returns_only_valid_dcs() {
        let (r, space, evidence) = setup(SpaceConfig::same_column_only());
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.0),
        );
        for dc in &out.dcs {
            assert!(
                dc.is_valid(&space, &r),
                "{} is not valid",
                dc.display(&space)
            );
        }
        assert!(!out.dcs.is_empty());
    }

    #[test]
    fn no_trivial_or_empty_dcs_are_emitted() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        for epsilon in [0.0, 0.01, 0.1, 0.5] {
            let out = enumerate_adcs(
                &space,
                &evidence,
                &F1ViolationRate,
                &EnumerationOptions::new(epsilon),
            );
            for dc in &out.dcs {
                assert!(!dc.is_empty());
                assert!(!dc.is_trivial(&space), "trivial DC {}", dc.display(&space));
            }
        }
    }

    #[test]
    fn larger_epsilon_never_yields_longer_minimal_dcs_on_average() {
        // Sanity check of the qualitative claim that higher thresholds give
        // more general (shorter) constraints.
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let avg_len = |eps: f64| {
            let out = enumerate_adcs(
                &space,
                &evidence,
                &F1ViolationRate,
                &EnumerationOptions::new(eps),
            );
            let total: usize = out.dcs.iter().map(|d| d.len()).sum();
            total as f64 / out.dcs.len().max(1) as f64
        };
        assert!(avg_len(0.1) <= avg_len(0.0) + 1e-9);
    }

    #[test]
    fn all_approximation_functions_run_end_to_end() {
        let (r, space, evidence) = setup(SpaceConfig::same_column_only());
        for kind in ApproxKind::ALL {
            let f = kind.instantiate();
            let out = enumerate_adcs(&space, &evidence, f.as_ref(), &EnumerationOptions::new(0.1));
            assert!(!out.dcs.is_empty(), "{} produced no DCs", kind);
            assert!(out.stats.recursive_calls > 0);
            // All emitted DCs respect the threshold under their own function.
            let ctx = adc_approx::ApproxContext::with_vios(&evidence.evidence_set, evidence.vios());
            for dc in &out.dcs {
                let cset = dc.complement_set(&space);
                assert!(
                    1.0 - f.score(&ctx, &cset) <= 0.1 + 1e-9,
                    "{} fails {} threshold on {} tuples",
                    dc.display(&space),
                    kind,
                    r.len()
                );
            }
        }
    }

    #[test]
    fn branch_strategies_agree_on_the_result_set() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let run = |strategy| {
            let mut opts = EnumerationOptions::new(0.05);
            opts.strategy = strategy;
            let mut dcs: Vec<Vec<usize>> =
                enumerate_adcs(&space, &evidence, &F1ViolationRate, &opts)
                    .dcs
                    .iter()
                    .map(|d| d.predicate_ids().to_vec())
                    .collect();
            dcs.sort();
            dcs
        };
        assert_eq!(
            run(BranchStrategy::MaxIntersection),
            run(BranchStrategy::MinIntersection)
        );
    }

    #[test]
    fn max_dcs_limits_output() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        let mut opts = EnumerationOptions::new(0.1);
        opts.max_dcs = Some(3);
        let out = enumerate_adcs(&space, &evidence, &F1ViolationRate, &opts);
        assert!(out.dcs.len() <= 3);
        assert!(!out.dcs.is_empty());
    }

    #[test]
    fn max_dcs_zero_returns_no_dcs() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let mut opts = EnumerationOptions::new(0.05).with_order(order);
            opts.max_dcs = Some(0);
            let out = enumerate_adcs(&space, &evidence, &F1ViolationRate, &opts);
            assert!(
                out.dcs.is_empty(),
                "{order:?} returned {} DCs",
                out.dcs.len()
            );
            assert_eq!(out.stats.emitted, 0);
            let truncation = out.truncation.expect("a zero cap cuts the run");
            assert_eq!(truncation.reason, TruncationReason::MaxEmitted);
        }
    }

    #[test]
    fn exhaustive_runs_report_no_truncation() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05),
        );
        assert!(out.truncation.is_none());
    }

    #[test]
    fn shortest_first_emits_shortest_dcs_first_and_same_family() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let dfs = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05),
        );
        let sf = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05).with_order(SearchOrder::ShortestFirst),
        );
        let canon = |dcs: &[DenialConstraint]| {
            let mut v: Vec<Vec<usize>> = dcs.iter().map(|d| d.predicate_ids().to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(canon(&dfs.dcs), canon(&sf.dcs));
        let lengths: Vec<usize> = sf.dcs.iter().map(|d| d.len()).collect();
        let mut sorted = lengths.clone();
        sorted.sort_unstable();
        assert_eq!(
            lengths, sorted,
            "shortest-first DCs must come shortest first"
        );
    }

    #[test]
    fn dc_cap_is_reported_as_result_cap_truncation() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        let options = EnumerationOptions::new(0.1).with_order(SearchOrder::ShortestFirst);
        let full = enumerate_adcs(&space, &evidence, &F1ViolationRate, &options);
        assert!(full.truncation.is_none());
        assert!(full.dcs.len() > 3);

        let mut capped_options = options;
        capped_options.max_dcs = Some(3);
        let capped = enumerate_adcs(&space, &evidence, &F1ViolationRate, &capped_options);
        assert_eq!(capped.dcs.len(), 3);
        let truncation = capped.truncation.expect("capped run must be truncated");
        assert_eq!(truncation.reason, adc_hitting::TruncationReason::MaxEmitted);
        // Shortest-first: the capped run holds exactly the first 3 DCs of the
        // uncapped emission sequence, i.e. the 3 shortest (ties deterministic).
        let prefix: Vec<Vec<usize>> = full.dcs[..3]
            .iter()
            .map(|d| d.predicate_ids().to_vec())
            .collect();
        let capped_ids: Vec<Vec<usize>> = capped
            .dcs
            .iter()
            .map(|d| d.predicate_ids().to_vec())
            .collect();
        assert_eq!(capped_ids, prefix);
        if let Some(size) = truncation.complete_below_size {
            for dc in &full.dcs {
                if dc.len() < size {
                    assert!(
                        capped_ids.contains(&dc.predicate_ids().to_vec()),
                        "DC below the complete-frontier size missing from capped run"
                    );
                }
            }
        }
    }

    #[test]
    fn node_budget_truncates_and_is_reported() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        let options = EnumerationOptions::new(0.1)
            .with_order(SearchOrder::ShortestFirst)
            .with_budget(SearchBudget::unlimited().with_max_nodes(5));
        let out = enumerate_adcs(&space, &evidence, &F1ViolationRate, &options);
        let truncation = out.truncation.expect("tiny node budget must truncate");
        assert_eq!(truncation.reason, adc_hitting::TruncationReason::MaxNodes);
        assert!(out.stats.recursive_calls <= 5);
    }

    #[test]
    fn budget_cut_enumeration_resumes_to_the_uncut_sequence() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let reference = enumerate_adcs(
                &space,
                &evidence,
                &F1ViolationRate,
                &EnumerationOptions::new(0.1).with_order(order),
            );
            assert!(reference.truncation.is_none());
            assert!(reference.resume.is_none());

            let slice_options = EnumerationOptions::new(0.1)
                .with_order(order)
                .with_budget(SearchBudget::unlimited().with_max_nodes(25));
            let mut sliced = enumerate_adcs(&space, &evidence, &F1ViolationRate, &slice_options);
            let mut dcs = std::mem::take(&mut sliced.dcs);
            let mut slices = 1;
            while let Some(token) = sliced.resume.take() {
                slices += 1;
                assert!(slices < 10_000, "runaway resume loop");
                sliced = resume_adcs(&space, &evidence, &F1ViolationRate, &slice_options, token);
                dcs.extend(std::mem::take(&mut sliced.dcs));
            }
            assert!(slices > 2, "the slice budget never fired ({order:?})");
            assert!(sliced.truncation.is_none());
            let ids = |dcs: &[DenialConstraint]| {
                dcs.iter()
                    .map(|d| d.predicate_ids().to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(ids(&dcs), ids(&reference.dcs), "order {order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "requires the vios index")]
    fn vios_requirement_is_enforced() {
        let r = running_example();
        let space = PredicateSpace::build(&r, SpaceConfig::same_column_only());
        let evidence = ClusterEvidenceBuilder.build(&r, &space, false);
        let f = ApproxKind::F3.instantiate();
        let _ = enumerate_adcs(&space, &evidence, f.as_ref(), &EnumerationOptions::new(0.1));
    }
}
