//! Approximate minimal hitting-set enumeration — the generic core of
//! `ADCEnum` (Figures 4 and 5 of the VLDB 2020 ADC paper).
//!
//! Compared to MMCS, three things change:
//!
//! 1. **Base case.** A partial solution is emitted as soon as
//!    `1 − f(S) ≤ ε` *and* removing any single element breaks that bound
//!    (the explicit `IsMinimal` check — criticality alone no longer implies
//!    minimality because an approximate hitting set may leave subsets
//!    uncovered).
//! 2. **A second branch per step** that *does not* hit the chosen subset
//!    `F`. To keep the search finite, every subset that can no longer be
//!    hit by the remaining candidates is marked `canHit = false`
//!    (`UpdateCanCover`) and is never selected again; the branch is only
//!    explored if adding the whole candidate list would reach the threshold
//!    (`WillCover` pruning, justified by monotonicity).
//! 3. **Redundant-element suppression.** When element groups are supplied
//!    (predicates differing only by operator), adding one element removes the
//!    rest of its group from the candidate list for that branch, suppressing
//!    trivial constraints.
//!
//! All three are plugged into the shared [`search engine`](crate::search) as
//! an [`ApproxDriver`](self): this module holds no tree walk of its own, so
//! the approximate enumerator inherits the engine's frontier orders
//! ([`SearchOrder::ShortestFirst`] emits in nondecreasing size) and anytime
//! budgets ([`SearchBudget`]) unchanged.
//!
//! The scoring function is supplied by the caller and must satisfy the
//! monotonicity and indifference-to-redundancy axioms for the enumeration to
//! be complete (see `adc-approx`). Under indifference to redundancy a score
//! depends only on which subsets a set leaves unhit, and every search node
//! already holds those lists, so the enumerator hands them to the score along
//! with the set (see [`enumerate_approx_minimal_hitting_sets`]).

use crate::search::{
    resume_search, run_search_resumable, NodeDisposition, SearchBudget, SearchConfig, SearchDriver,
    SearchNode, SearchOrder, SearchOutcome, SuspendedSearch,
};
use crate::{BranchStrategy, SetSystem};
use adc_data::FixedBitSet;

/// Configuration for [`enumerate_approx_minimal_hitting_sets`].
#[derive(Debug, Clone)]
pub struct ApproxEnumConfig<'a> {
    /// Approximation threshold ε ≥ 0: emit `S` when `1 − f(S) ≤ ε`.
    pub epsilon: f64,
    /// Branching strategy for choosing the next subset to hit.
    pub strategy: BranchStrategy,
    /// Optional structure-group id per element; when an element enters the
    /// partial solution, the rest of its group leaves the candidate list for
    /// that branch (the paper's `RemoveRedundantPreds`).
    pub element_groups: Option<&'a [usize]>,
    /// Enable the `WillCover` pruning of the non-hitting branch (line 9 of
    /// Figure 4). Disabling it is only useful for ablation studies.
    pub will_cover_pruning: bool,
    /// Stop after emitting this many results (`None` = unlimited). Folded
    /// into [`ApproxEnumConfig::budget`] at run time; kept as its own field
    /// for backward compatibility.
    pub max_results: Option<usize>,
    /// Frontier order of the underlying search engine.
    pub order: SearchOrder,
    /// Resource budget of the underlying search engine.
    pub budget: SearchBudget,
}

impl<'a> ApproxEnumConfig<'a> {
    /// Default configuration for a given threshold.
    pub fn new(epsilon: f64) -> Self {
        ApproxEnumConfig {
            epsilon,
            strategy: BranchStrategy::default(),
            element_groups: None,
            will_cover_pruning: true,
            max_results: None,
            order: SearchOrder::default(),
            budget: SearchBudget::default(),
        }
    }

    /// Set the branch strategy.
    pub fn with_strategy(mut self, strategy: BranchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Provide element structure groups.
    pub fn with_element_groups(mut self, groups: &'a [usize]) -> Self {
        self.element_groups = Some(groups);
        self
    }

    /// Enable or disable the `WillCover` pruning.
    pub fn with_will_cover_pruning(mut self, enabled: bool) -> Self {
        self.will_cover_pruning = enabled;
        self
    }

    /// Limit the number of emitted results.
    pub fn with_max_results(mut self, max: usize) -> Self {
        self.max_results = Some(max);
        self
    }

    /// Select the frontier order (shortest-first emits in nondecreasing size).
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Bound the search by nodes, wall-clock time, and/or emitted results.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The engine budget with [`ApproxEnumConfig::max_results`] folded in.
    fn effective_budget(&self) -> SearchBudget {
        let mut budget = self.budget;
        if let Some(max) = self.max_results {
            budget.max_emitted = Some(match budget.max_emitted {
                Some(existing) => existing.min(max),
                None => max,
            });
        }
        budget
    }
}

/// Counters describing one enumeration run (used by the benchmark harness
/// and the ablation studies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApproxEnumStats {
    /// Number of search nodes visited (one per recursive call in the paper's
    /// formulation).
    pub recursive_calls: u64,
    /// Number of scoring-function evaluations.
    pub score_evaluations: u64,
    /// Number of emitted minimal approximate hitting sets.
    pub emitted: u64,
    /// High-water mark of simultaneously held frontier nodes — the memory
    /// footprint the `max_frontier_nodes` budget bounds.
    pub peak_frontier: u64,
    /// Memory-bound frontier contractions performed (non-zero only when
    /// [`SearchBudget::max_frontier_nodes`] fired).
    pub frontier_contractions: u64,
}

/// Enumerate all minimal approximate hitting sets of `system` w.r.t. the
/// scoring function `score` and the threshold in `config`.
///
/// `score(X, unhit)` must return `f(X) ∈ [0, 1]`. `unhit` holds the indexes
/// of the subsets `X` misses, as ascending, pairwise-disjoint runs whose
/// union is exactly that set, so a score that depends only on the unhit
/// subsets need not rescan the system:
///
/// * the threshold test of a node passes `[uncov]`;
/// * `IsMinimal` for `S \ {s[i]}` passes `[uncov, crit[i]]`;
/// * `WillCover` passes the uncovered subsets no remaining candidate hits.
///
/// The callback receives each minimal set and may return `false` to stop
/// early. Returns run statistics.
pub fn enumerate_approx_minimal_hitting_sets<S, F>(
    system: &SetSystem,
    score: S,
    config: &ApproxEnumConfig<'_>,
    mut callback: F,
) -> ApproxEnumStats
where
    S: Fn(&FixedBitSet, &[&[u32]]) -> f64,
    F: FnMut(&FixedBitSet) -> bool,
{
    search_approx_minimal_hitting_sets(system, score, config, &mut callback).0
}

/// Like [`enumerate_approx_minimal_hitting_sets`], but also returning the
/// engine's [`SearchOutcome`] so callers can distinguish an exhaustive run
/// from one cut short by the budget, the result cap, or the callback.
pub fn search_approx_minimal_hitting_sets<S, F>(
    system: &SetSystem,
    score: S,
    config: &ApproxEnumConfig<'_>,
    callback: &mut F,
) -> (ApproxEnumStats, SearchOutcome)
where
    S: Fn(&FixedBitSet, &[&[u32]]) -> f64,
    F: FnMut(&FixedBitSet) -> bool,
{
    let (stats, outcome, _) =
        search_approx_minimal_hitting_sets_resumable(system, score, config, callback);
    (stats, outcome)
}

/// Like [`search_approx_minimal_hitting_sets`], but a budget- or cap-cut run
/// also returns a [`SuspendedSearch`] token for
/// [`resume_approx_minimal_hitting_sets`]. A cut run resumed to completion
/// (with the identical system, score, and config) emits exactly the same
/// cover sequence as a single uncut run.
pub fn search_approx_minimal_hitting_sets_resumable<S, F>(
    system: &SetSystem,
    score: S,
    config: &ApproxEnumConfig<'_>,
    callback: &mut F,
) -> (ApproxEnumStats, SearchOutcome, Option<SuspendedSearch>)
where
    S: Fn(&FixedBitSet, &[&[u32]]) -> f64,
    F: FnMut(&FixedBitSet) -> bool,
{
    approx_run(system, score, config, None, callback)
}

/// Continue a suspended approximate enumeration. `config` must describe the
/// same problem as the original run (threshold, groups, pruning, score);
/// its budget and result cap apply to this slice alone.
pub fn resume_approx_minimal_hitting_sets<S, F>(
    system: &SetSystem,
    score: S,
    config: &ApproxEnumConfig<'_>,
    suspended: SuspendedSearch,
    callback: &mut F,
) -> (ApproxEnumStats, SearchOutcome, Option<SuspendedSearch>)
where
    S: Fn(&FixedBitSet, &[&[u32]]) -> f64,
    F: FnMut(&FixedBitSet) -> bool,
{
    approx_run(system, score, config, Some(suspended), callback)
}

/// Patch a suspended **approximate** enumeration after subsets were appended
/// to the system, when that is sound — i.e. only at `ε = 0`, where the
/// threshold test degenerates to "hits every subset" for any approximation
/// function satisfying the paper's axioms, so the frontier's past pruning
/// decisions remain valid against the grown system. For `ε > 0` the
/// count-weighted scores of already-classified nodes may shift
/// non-monotonically under a delta, so no patch is attempted and `None` is
/// returned — restart the enumeration instead.
///
/// On success returns the number of frontier nodes that gained an uncovered
/// subset (the [`SuspendedSearch::patch`] contract: sound continuation, not
/// complete relative to a from-scratch run).
pub fn patch_approx_search(
    suspended: &mut SuspendedSearch,
    system: &SetSystem,
    config: &ApproxEnumConfig<'_>,
    appended_from: usize,
) -> Option<usize> {
    if config.epsilon != 0.0 {
        return None;
    }
    Some(suspended.patch(system, appended_from))
}

fn approx_run<S, F>(
    system: &SetSystem,
    score: S,
    config: &ApproxEnumConfig<'_>,
    suspended: Option<SuspendedSearch>,
    callback: &mut F,
) -> (ApproxEnumStats, SearchOutcome, Option<SuspendedSearch>)
where
    S: Fn(&FixedBitSet, &[&[u32]]) -> f64,
    F: FnMut(&FixedBitSet) -> bool,
{
    assert!(config.epsilon >= 0.0, "epsilon must be non-negative");
    if let Some(groups) = config.element_groups {
        assert_eq!(
            groups.len(),
            system.num_elements(),
            "element_groups length must equal the number of elements"
        );
    }
    let mut driver = ApproxDriver {
        score: &score,
        epsilon: config.epsilon,
        group_peers: config
            .element_groups
            .map(|groups| group_masks(groups, system.num_elements())),
        will_cover_pruning: config.will_cover_pruning,
        score_evaluations: 0,
    };
    let engine_config = SearchConfig {
        strategy: config.strategy,
        order: config.order,
        budget: config.effective_budget(),
    };
    let (outcome, next) = match suspended {
        None => run_search_resumable(system, &mut driver, &engine_config, callback),
        Some(token) => resume_search(system, &mut driver, &engine_config, token, callback),
    };
    let stats = ApproxEnumStats {
        recursive_calls: outcome.nodes_expanded,
        score_evaluations: driver.score_evaluations,
        emitted: outcome.emitted as u64,
        peak_frontier: outcome.peak_frontier as u64,
        frontier_contractions: outcome.contractions,
    };
    (stats, outcome, next)
}

/// Convenience wrapper collecting the results into a vector.
pub fn approx_minimal_hitting_sets<S>(
    system: &SetSystem,
    score: S,
    config: &ApproxEnumConfig<'_>,
) -> Vec<FixedBitSet>
where
    S: Fn(&FixedBitSet, &[&[u32]]) -> f64,
{
    let mut out = Vec::new();
    enumerate_approx_minimal_hitting_sets(system, score, config, |s| {
        out.push(s.clone());
        true
    });
    out
}

/// Per element, the mask of every element in its structure group, so that
/// suppressing the group is one bitset difference.
fn group_masks(groups: &[usize], num_elements: usize) -> Vec<FixedBitSet> {
    let num_groups = groups.iter().max().map_or(0, |&g| g + 1);
    let mut by_group = vec![FixedBitSet::new(num_elements); num_groups];
    for (element, &group) in groups.iter().enumerate() {
        by_group[group].insert(element);
    }
    groups.iter().map(|&g| by_group[g].clone()).collect()
}

/// The `ADCEnum` configuration of the search engine: ε-acceptance base case
/// with the explicit `IsMinimal` check, the non-hitting branch guarded by
/// `WillCover`, and redundant-group suppression.
struct ApproxDriver<'a, S: Fn(&FixedBitSet, &[&[u32]]) -> f64> {
    score: &'a S,
    epsilon: f64,
    group_peers: Option<Vec<FixedBitSet>>,
    will_cover_pruning: bool,
    score_evaluations: u64,
}

impl<S: Fn(&FixedBitSet, &[&[u32]]) -> f64> ApproxDriver<'_, S> {
    fn meets_threshold(&mut self, set: &FixedBitSet, unhit: &[&[u32]]) -> bool {
        self.score_evaluations += 1;
        1.0 - (self.score)(set, unhit) <= self.epsilon
    }
}

impl<S: Fn(&FixedBitSet, &[&[u32]]) -> f64> SearchDriver for ApproxDriver<'_, S> {
    fn classify(&mut self, _system: &SetSystem, node: &SearchNode) -> NodeDisposition {
        // Base case: once the threshold is met, no strict superset can be
        // minimal (monotonicity), so the node is terminal either way.
        if !self.meets_threshold(node.solution(), &[node.uncov()]) {
            return NodeDisposition::Expand;
        }
        // `IsMinimal` of Figure 5: no single-element removal stays within ε.
        // Dropping `s[i]` un-hits exactly the subsets only it hit.
        let mut smaller = node.solution().clone();
        for (i, &e) in node.elements().iter().enumerate() {
            smaller.remove(e);
            let within = self.meets_threshold(&smaller, &[node.uncov(), node.crit(i)]);
            smaller.insert(e);
            if within {
                return NodeDisposition::Discard;
            }
        }
        NodeDisposition::Emit
    }

    fn wants_skip_branch(&self) -> bool {
        true
    }

    fn explore_skip_branch(
        &mut self,
        _system: &SetSystem,
        solution: &FixedBitSet,
        cand: &FixedBitSet,
        unhittable: &[u32],
    ) -> bool {
        // `WillCover` of Figure 5: could adding every remaining candidate
        // reach ε? (Skippable only for ablation studies.)
        !self.will_cover_pruning || self.meets_threshold(&solution.union(cand), &[unhittable])
    }

    fn group_peers(&self, element: usize) -> Option<&FixedBitSet> {
        self.group_peers.as_ref().map(|masks| &masks[element])
    }

    fn unhittable_is_fatal(&self) -> bool {
        false
    }

    // The default `lower_bound` of 0 is deliberate: an approximate cover may
    // leave subsets uncovered, so the disjoint-uncovered bound of the exact
    // problem is NOT admissible here. `|S|` alone still orders emissions by
    // size under shortest-first.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_minimal_approx_hitting_sets, brute_force_minimal_hitting_sets};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn as_sorted_vecs(sets: &[FixedBitSet]) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = sets.iter().map(|s| s.to_vec()).collect();
        v.sort();
        v
    }

    /// A weighted coverage score: fraction of subset weight hit, computed
    /// from the unhit runs the enumerator passes. Monotone and indifferent to
    /// redundancy by construction — the same family `f1` belongs to.
    fn coverage_score(weights: Vec<u64>) -> impl Fn(&FixedBitSet, &[&[u32]]) -> f64 {
        let total: u64 = weights.iter().sum();
        move |_set: &FixedBitSet, unhit: &[&[u32]]| {
            if total == 0 {
                return 1.0;
            }
            let missed: u64 = unhit
                .iter()
                .flat_map(|run| run.iter())
                .map(|&i| weights[i as usize])
                .sum();
            (total - missed) as f64 / total as f64
        }
    }

    /// `score` with the unhit subsets found by scanning the system, for the
    /// brute-force reference.
    fn scanned<'a>(
        system: &'a SetSystem,
        score: &'a impl Fn(&FixedBitSet, &[&[u32]]) -> f64,
    ) -> impl Fn(&FixedBitSet) -> f64 + 'a {
        move |set: &FixedBitSet| {
            let unhit: Vec<u32> = (0..system.len() as u32)
                .filter(|&i| !system.subsets()[i as usize].intersects(set))
                .collect();
            score(set, &[&unhit])
        }
    }

    #[test]
    fn epsilon_zero_matches_exact_mmcs() {
        let sys = SetSystem::from_indices(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]);
        let weights = vec![1u64; sys.len()];
        let score = coverage_score(weights);
        let cfg = ApproxEnumConfig::new(0.0);
        let approx = approx_minimal_hitting_sets(&sys, &score, &cfg);
        let exact = brute_force_minimal_hitting_sets(&sys);
        assert_eq!(as_sorted_vecs(&approx), as_sorted_vecs(&exact));
    }

    #[test]
    fn allows_missing_low_weight_subsets() {
        // Subsets: {0} (weight 9), {1} (weight 1). With ε = 0.2 we may miss {1}.
        let sys = SetSystem::from_indices(2, &[&[0], &[1]]);
        let score = coverage_score(vec![9, 1]);
        let cfg = ApproxEnumConfig::new(0.2);
        let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
        // {0} misses only 10% of the weight -> approximate and minimal.
        assert_eq!(as_sorted_vecs(&found), vec![vec![0]]);
    }

    #[test]
    fn empty_set_emitted_when_threshold_is_loose() {
        let sys = SetSystem::from_indices(3, &[&[0], &[1], &[2]]);
        let score = coverage_score(vec![1, 1, 1]);
        let cfg = ApproxEnumConfig::new(1.0);
        let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
        assert_eq!(found.len(), 1);
        assert!(found[0].is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_instances_all_strategies() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..25 {
            let m = rng.gen_range(3..8);
            let k = rng.gen_range(1..7);
            let mut subsets = Vec::new();
            let mut weights = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.4) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(rng.gen_range(0..m));
                }
                subsets.push(s);
                weights.push(rng.gen_range(1..5) as u64);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(weights);
            let epsilon = [0.0, 0.1, 0.25, 0.5][trial % 4];
            let expected =
                brute_force_minimal_approx_hitting_sets(m, scanned(&sys, &score), epsilon);
            for strategy in [
                BranchStrategy::MaxIntersection,
                BranchStrategy::MinIntersection,
                BranchStrategy::First,
            ] {
                let cfg = ApproxEnumConfig::new(epsilon).with_strategy(strategy);
                let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
                assert_eq!(
                    as_sorted_vecs(&found),
                    as_sorted_vecs(&expected),
                    "trial {trial}, ε={epsilon}, strategy {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn will_cover_pruning_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let m = rng.gen_range(3..7);
            let k = rng.gen_range(2..6);
            let mut subsets = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.5) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(0);
                }
                subsets.push(s);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(vec![1; sys.len()]);
            let on = approx_minimal_hitting_sets(
                &sys,
                &score,
                &ApproxEnumConfig::new(0.3).with_will_cover_pruning(true),
            );
            let off = approx_minimal_hitting_sets(
                &sys,
                &score,
                &ApproxEnumConfig::new(0.3).with_will_cover_pruning(false),
            );
            assert_eq!(as_sorted_vecs(&on), as_sorted_vecs(&off));
        }
    }

    #[test]
    fn element_groups_suppress_same_group_pairs() {
        // Elements 0 and 1 are in the same group; subsets force hitting both
        // {0,1}-ish structures. Without groups the pair {0,1} could appear;
        // with groups it must not.
        let sys = SetSystem::from_indices(4, &[&[0, 2], &[1, 3]]);
        let score = coverage_score(vec![1, 1]);
        let groups = vec![0, 0, 1, 2];
        let cfg = ApproxEnumConfig::new(0.0).with_element_groups(&groups);
        let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
        for s in &found {
            let v = s.to_vec();
            assert!(
                !(v.contains(&0) && v.contains(&1)),
                "same-group elements 0 and 1 must not co-occur: {v:?}"
            );
        }
        // The group-free solutions {0,1} is replaced by solutions using 2/3.
        assert!(found.iter().any(|s| s.to_vec() == vec![0, 3]));
        assert!(found.iter().any(|s| s.to_vec() == vec![1, 2]));
        assert!(found.iter().any(|s| s.to_vec() == vec![2, 3]));
    }

    #[test]
    fn max_results_stops_early() {
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let score = coverage_score(vec![1, 1, 1]);
        let cfg = ApproxEnumConfig::new(0.0).with_max_results(3);
        let mut seen = 0usize;
        let stats = enumerate_approx_minimal_hitting_sets(&sys, &score, &cfg, |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 3);
        assert_eq!(stats.emitted, 3);
    }

    #[test]
    fn max_results_reports_truncation_via_outcome() {
        use crate::search::TruncationReason;
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let score = coverage_score(vec![1, 1, 1]);
        let cfg = ApproxEnumConfig::new(0.0)
            .with_max_results(3)
            .with_order(SearchOrder::ShortestFirst);
        let (stats, outcome) =
            search_approx_minimal_hitting_sets(&sys, &score, &cfg, &mut |_: &FixedBitSet| true);
        assert_eq!(stats.emitted, 3);
        assert_eq!(
            outcome.truncation.map(|t| t.reason),
            Some(TruncationReason::MaxEmitted)
        );
    }

    #[test]
    fn shortest_first_returns_the_same_family() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let m = rng.gen_range(4..8);
            let k = rng.gen_range(2..6);
            let mut subsets = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.4) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(rng.gen_range(0..m));
                }
                subsets.push(s);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(vec![1; sys.len()]);
            let dfs = approx_minimal_hitting_sets(&sys, &score, &ApproxEnumConfig::new(0.2));
            let sf = approx_minimal_hitting_sets(
                &sys,
                &score,
                &ApproxEnumConfig::new(0.2).with_order(SearchOrder::ShortestFirst),
            );
            assert_eq!(as_sorted_vecs(&dfs), as_sorted_vecs(&sf));
            let sizes: Vec<usize> = sf.iter().map(|s| s.len()).collect();
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            assert_eq!(sizes, sorted, "shortest-first emission must be sorted");
        }
    }

    #[test]
    fn stats_are_populated() {
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let score = coverage_score(vec![1, 1, 1]);
        let cfg = ApproxEnumConfig::new(0.0);
        let stats = enumerate_approx_minimal_hitting_sets(&sys, &score, &cfg, |_| true);
        assert!(stats.recursive_calls > 0);
        assert!(stats.score_evaluations > 0);
        assert_eq!(stats.emitted, 3);
    }

    #[test]
    fn emits_each_result_exactly_once() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..15 {
            let m = rng.gen_range(4..8);
            let k = rng.gen_range(2..6);
            let mut subsets = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.45) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(rng.gen_range(0..m));
                }
                subsets.push(s);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(vec![1; sys.len()]);
            let cfg = ApproxEnumConfig::new(0.2);
            let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
            let mut sorted = as_sorted_vecs(&found);
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(sorted.len(), before, "duplicate outputs detected");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be non-negative")]
    fn negative_epsilon_rejected() {
        let sys = SetSystem::from_indices(2, &[&[0]]);
        let score = coverage_score(vec![1]);
        approx_minimal_hitting_sets(&sys, &score, &ApproxEnumConfig::new(-0.1));
    }

    #[test]
    #[should_panic(expected = "element_groups length")]
    fn wrong_group_length_rejected() {
        let sys = SetSystem::from_indices(3, &[&[0]]);
        let score = coverage_score(vec![1]);
        let groups = vec![0, 1];
        approx_minimal_hitting_sets(
            &sys,
            &score,
            &ApproxEnumConfig::new(0.1).with_element_groups(&groups),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_brute_force(
            subsets in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 1..5),
            eps_percent in 0u32..60,
        ) {
            let m = 6;
            let refs: Vec<&[usize]> = subsets.iter().map(|s| s.as_slice()).collect();
            let sys = SetSystem::from_indices(m, &refs);
            let score = coverage_score(vec![1; sys.len()]);
            let epsilon = eps_percent as f64 / 100.0;
            let expected = brute_force_minimal_approx_hitting_sets(m, scanned(&sys, &score), epsilon);
            let found = approx_minimal_hitting_sets(&sys, &score, &ApproxEnumConfig::new(epsilon));
            prop_assert_eq!(as_sorted_vecs(&found), as_sorted_vecs(&expected));
        }
    }
}
