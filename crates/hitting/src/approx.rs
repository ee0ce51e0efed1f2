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
//! an [`ApproxDriver`]: this module holds no tree walk of its own, so a
//! [`Search`](crate::Search) with the approximate driver inherits the
//! engine's frontier orders ([`SearchOrder::ShortestFirst`] emits in
//! nondecreasing size), anytime budgets ([`SearchBudget`]) and suspend /
//! resume unchanged.
//!
//! The scoring function is supplied by the caller and must satisfy the
//! monotonicity and indifference-to-redundancy axioms for the enumeration to
//! be complete (see `adc-approx`). Under indifference to redundancy a score
//! depends only on which subsets a set leaves unhit, and every search node
//! already holds those lists, so the enumerator hands them to the score along
//! with the set (see [`ApproxDriver::new`]).
//!
//! A suspended run may be patched after subsets were appended
//! ([`SuspendedSearch::patch`](crate::SuspendedSearch::patch)) only at
//! `ε = 0`, where the threshold test degenerates to "hits every subset" for
//! any function satisfying the axioms, so the frontier's past pruning
//! decisions stay valid against the grown system. For `ε > 0` the
//! count-weighted scores of already-classified nodes may shift
//! non-monotonically under a delta — restart the enumeration instead.
//!
//! [`SearchOrder::ShortestFirst`]: crate::SearchOrder::ShortestFirst
//! [`SearchBudget`]: crate::SearchBudget

use crate::search::{ones, NodeDisposition, SearchDriver, SearchNode};
use crate::SetSystem;
use adc_data::FixedBitSet;

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
    /// [`SearchBudget::max_frontier_nodes`](crate::SearchBudget::max_frontier_nodes)
    /// fired).
    pub frontier_contractions: u64,
}

/// Per element, the mask of every element in its structure group, so that
/// suppressing the group is one bitset difference.
fn group_masks(groups: &[usize]) -> Vec<FixedBitSet> {
    let num_groups = groups.iter().max().map_or(0, |&g| g + 1);
    let mut by_group = vec![FixedBitSet::new(groups.len()); num_groups];
    for (element, &group) in groups.iter().enumerate() {
        by_group[group].insert(element);
    }
    groups.iter().map(|&g| by_group[g].clone()).collect()
}

/// The `ADCEnum` configuration of the search engine: ε-acceptance base case
/// with the explicit `IsMinimal` check, the non-hitting branch guarded by
/// `WillCover`, and redundant-group suppression.
///
/// ```
/// use adc_hitting::{ApproxDriver, BranchStrategy, Search, SearchOrder, SetSystem};
///
/// // Subsets {0} (weight 9) and {1} (weight 1): at ε = 0.2 a set may miss {1}.
/// let system = SetSystem::from_indices(2, &[&[0], &[1]]);
/// let weights = [9.0, 1.0];
/// let score = |_: &adc_data::FixedBitSet, unhit: &[&[u32]]| {
///     let missed: f64 = unhit.iter().flat_map(|run| run.iter()).map(|&i| weights[i as usize]).sum();
///     1.0 - missed / 10.0
/// };
/// let mut driver = ApproxDriver::new(score, 0.2);
/// let mut found = Vec::new();
/// Search::new(BranchStrategy::default(), SearchOrder::Dfs).run(&system, &mut driver, &mut |s| {
///     found.push(s.to_vec());
///     true
/// });
/// assert_eq!(found, vec![vec![0]]);
/// assert!(driver.score_evaluations() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ApproxDriver<S> {
    score: S,
    epsilon: f64,
    group_peers: Option<Vec<FixedBitSet>>,
    will_cover_pruning: bool,
    score_evaluations: u64,
    /// Reused buffers for a node's `uncov` and one `crit[i]`, decoded from
    /// the node's bitset regions into the ascending ids `score` takes.
    uncov_ids: Vec<u32>,
    crit_ids: Vec<u32>,
}

/// Replace `ids` with the set-bit positions of a word region, ascending.
fn decode(words: &[u64], ids: &mut Vec<u32>) {
    ids.clear();
    ids.extend(ones(words).map(|fi| fi as u32));
}

impl<S: Fn(&FixedBitSet, &[&[u32]]) -> f64> ApproxDriver<S> {
    /// Accept a set `X` when `1 − score(X, unhit) ≤ epsilon`.
    ///
    /// `score(X, unhit)` must return `f(X) ∈ [0, 1]`. `unhit` holds the
    /// indexes of the subsets `X` misses, as ascending, pairwise-disjoint
    /// runs whose union is exactly that set, so a score that depends only on
    /// the unhit subsets need not rescan the system:
    ///
    /// * the threshold test of a node passes `[uncov]`;
    /// * `IsMinimal` for `S \ {s[i]}` passes `[uncov, crit[i]]`;
    /// * `WillCover` passes the uncovered subsets no remaining candidate hits.
    ///
    /// `WillCover` pruning is on and no element groups are set.
    ///
    /// # Panics
    /// Panics if `epsilon` is negative.
    pub fn new(score: S, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        ApproxDriver {
            score,
            epsilon,
            group_peers: None,
            will_cover_pruning: true,
            score_evaluations: 0,
            uncov_ids: Vec::new(),
            crit_ids: Vec::new(),
        }
    }

    /// Give each element a structure-group id (one entry per element of the
    /// system): when an element enters the partial solution, the rest of its
    /// group leaves the candidate list for that branch (the paper's
    /// `RemoveRedundantPreds`). A run panics if `groups.len()` differs from
    /// the system's element count.
    pub fn element_groups(mut self, groups: &[usize]) -> Self {
        self.group_peers = Some(group_masks(groups));
        self
    }

    /// Enable or disable the `WillCover` pruning of the non-hitting branch
    /// (line 9 of Figure 4). Disabling it is only useful for ablation
    /// studies.
    pub fn will_cover_pruning(mut self, enabled: bool) -> Self {
        self.will_cover_pruning = enabled;
        self
    }

    /// Scoring-function evaluations so far, over every run of this driver.
    pub fn score_evaluations(&self) -> u64 {
        self.score_evaluations
    }

    fn meets_threshold(&mut self, set: &FixedBitSet, unhit: &[&[u32]]) -> bool {
        self.score_evaluations += 1;
        1.0 - (self.score)(set, unhit) <= self.epsilon
    }

    /// The threshold test of a node, then `IsMinimal` of Figure 5: no
    /// single-element removal stays within ε. Dropping `s[i]` un-hits exactly
    /// the subsets only it hit, so its unhit runs are `[uncov, crit[i]]`.
    fn classify_decoded(
        &mut self,
        node: &SearchNode,
        uncov: &[u32],
        crit: &mut Vec<u32>,
    ) -> NodeDisposition {
        // Base case: once the threshold is met, no strict superset can be
        // minimal (monotonicity), so the node is terminal either way.
        if !self.meets_threshold(node.solution(), &[uncov]) {
            return NodeDisposition::Expand;
        }
        let mut smaller = node.solution().clone();
        for (i, &e) in node.elements().iter().enumerate() {
            smaller.remove(e);
            decode(node.crit(i), crit);
            let within = self.meets_threshold(&smaller, &[uncov, crit]);
            smaller.insert(e);
            if within {
                return NodeDisposition::Discard;
            }
        }
        NodeDisposition::Emit
    }
}

impl<S: Fn(&FixedBitSet, &[&[u32]]) -> f64> SearchDriver for ApproxDriver<S> {
    fn classify(&mut self, system: &SetSystem, node: &SearchNode) -> NodeDisposition {
        if let Some(masks) = &self.group_peers {
            assert_eq!(
                masks.len(),
                system.num_elements(),
                "element_groups length must equal the number of elements"
            );
        }
        let mut uncov = std::mem::take(&mut self.uncov_ids);
        let mut crit = std::mem::take(&mut self.crit_ids);
        decode(node.uncov(), &mut uncov);
        let disposition = self.classify_decoded(node, &uncov, &mut crit);
        self.uncov_ids = uncov;
        self.crit_ids = crit;
        disposition
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
    use crate::{BranchStrategy, Search, SearchBudget, SearchOrder};
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

    /// Every set `driver` accepts under `search`, in emission order.
    fn approx_sets<S: Fn(&FixedBitSet, &[&[u32]]) -> f64>(
        system: &SetSystem,
        search: Search<'_>,
        mut driver: ApproxDriver<S>,
    ) -> Vec<FixedBitSet> {
        let mut out = Vec::new();
        search.run(system, &mut driver, &mut |s: &FixedBitSet| {
            out.push(s.clone());
            true
        });
        out
    }

    fn dfs() -> Search<'static> {
        Search::new(BranchStrategy::default(), SearchOrder::Dfs)
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
        let approx = approx_sets(&sys, dfs(), ApproxDriver::new(&score, 0.0));
        let exact = brute_force_minimal_hitting_sets(&sys);
        assert_eq!(as_sorted_vecs(&approx), as_sorted_vecs(&exact));
    }

    #[test]
    fn allows_missing_low_weight_subsets() {
        // Subsets: {0} (weight 9), {1} (weight 1). With ε = 0.2 we may miss {1}.
        let sys = SetSystem::from_indices(2, &[&[0], &[1]]);
        let score = coverage_score(vec![9, 1]);
        let found = approx_sets(&sys, dfs(), ApproxDriver::new(&score, 0.2));
        // {0} misses only 10% of the weight -> approximate and minimal.
        assert_eq!(as_sorted_vecs(&found), vec![vec![0]]);
    }

    #[test]
    fn empty_set_emitted_when_threshold_is_loose() {
        let sys = SetSystem::from_indices(3, &[&[0], &[1], &[2]]);
        let score = coverage_score(vec![1, 1, 1]);
        let found = approx_sets(&sys, dfs(), ApproxDriver::new(&score, 1.0));
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
                let search = Search::new(strategy, SearchOrder::Dfs);
                let found = approx_sets(&sys, search, ApproxDriver::new(&score, epsilon));
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
            let on = approx_sets(
                &sys,
                dfs(),
                ApproxDriver::new(&score, 0.3).will_cover_pruning(true),
            );
            let off = approx_sets(
                &sys,
                dfs(),
                ApproxDriver::new(&score, 0.3).will_cover_pruning(false),
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
        let driver = ApproxDriver::new(&score, 0.0).element_groups(&groups);
        let found = approx_sets(&sys, dfs(), driver);
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
        let mut seen = 0usize;
        let outcome = dfs()
            .budget(SearchBudget::unlimited().with_max_emitted(3))
            .run(&sys, &mut ApproxDriver::new(&score, 0.0), &mut |_| {
                seen += 1;
                true
            });
        assert_eq!(seen, 3);
        assert_eq!(outcome.emitted, 3);
    }

    #[test]
    fn max_results_reports_truncation_via_outcome() {
        use crate::search::TruncationReason;
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let score = coverage_score(vec![1, 1, 1]);
        let outcome = Search::new(BranchStrategy::default(), SearchOrder::ShortestFirst)
            .budget(SearchBudget::unlimited().with_max_emitted(3))
            .run(&sys, &mut ApproxDriver::new(&score, 0.0), &mut |_| true);
        assert_eq!(outcome.emitted, 3);
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
            let depth_first = approx_sets(&sys, dfs(), ApproxDriver::new(&score, 0.2));
            let sf = approx_sets(
                &sys,
                Search::new(BranchStrategy::default(), SearchOrder::ShortestFirst),
                ApproxDriver::new(&score, 0.2),
            );
            assert_eq!(as_sorted_vecs(&depth_first), as_sorted_vecs(&sf));
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
        let mut driver = ApproxDriver::new(&score, 0.0);
        let outcome = dfs().run(&sys, &mut driver, &mut |_| true);
        assert!(outcome.nodes_expanded > 0);
        assert!(driver.score_evaluations() > 0);
        assert_eq!(outcome.emitted, 3);
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
            let found = approx_sets(&sys, dfs(), ApproxDriver::new(&score, 0.2));
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
        approx_sets(&sys, dfs(), ApproxDriver::new(&score, -0.1));
    }

    #[test]
    #[should_panic(expected = "element_groups length")]
    fn wrong_group_length_rejected() {
        let sys = SetSystem::from_indices(3, &[&[0]]);
        let score = coverage_score(vec![1]);
        let groups = vec![0, 1];
        approx_sets(
            &sys,
            dfs(),
            ApproxDriver::new(&score, 0.1).element_groups(&groups),
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
            let found = approx_sets(&sys, dfs(), ApproxDriver::new(&score, epsilon));
            prop_assert_eq!(as_sorted_vecs(&found), as_sorted_vecs(&expected));
        }
    }
}
