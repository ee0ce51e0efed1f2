//! Property-based differential tests for the hitting-set enumerators, in the
//! spirit of black-box cross-implementation checking: on random set systems,
//! the brute-force reference, MMCS (under every branch strategy), and the
//! approximate enumerator at ε = 0 must all enumerate exactly the same
//! family, and every returned set must be a *minimal* hitting set. The
//! frontier orders of the shared search engine are differentials too:
//! `ShortestFirst` and `Dfs` must emit identical cover sets, and the
//! `ShortestFirst` emission sequence must be nondecreasing in cover size.
//! Every score call of the approximate enumerator receives the unhit subsets
//! as runs, and the suites check those runs against a scan of the system.
//! Budgets are differentials as well: a cut run resumed to completion
//! replays the uncut sequence (runs confined by `Search::within` included),
//! and an emission cap is never exceeded. The engine holds a node's
//! uncovered and critical subsets as bitsets of one word per 64 subsets, so
//! the `wide_*` properties and the boundary-crossing patch rerun the checks
//! on systems of 60–140 subsets.
//!
//! Case count is controlled by `PROPTEST_CASES` (default 256); CI runs the
//! suite with a raised count.

use adc_data::FixedBitSet;
use adc_hitting::brute::{
    brute_force_minimal_approx_hitting_sets, brute_force_minimal_hitting_sets,
};
use adc_hitting::{
    repair_covers, shrink_covers, ApproxDriver, BranchStrategy, ExactDriver, Search, SearchBudget,
    SearchDriver, SearchOrder, SearchOutcome, SetSystem, TruncationReason,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build a set system over `3 + universe_seed % 8` elements from raw index
/// lists (indices are folded into the universe, so every subset is non-empty
/// and in range).
fn build_system(universe_seed: usize, raw_subsets: &[Vec<usize>]) -> SetSystem {
    let num_elements = 3 + universe_seed % 8;
    let subsets: Vec<&[usize]> = raw_subsets.iter().map(|s| s.as_slice()).collect();
    let folded: Vec<Vec<usize>> = subsets
        .iter()
        .map(|s| s.iter().map(|&e| e % num_elements).collect())
        .collect();
    let folded_refs: Vec<&[usize]> = folded.iter().map(|s| s.as_slice()).collect();
    SetSystem::from_indices(num_elements, &folded_refs)
}

/// Run `search` with `driver`, collecting the emission sequence.
fn collect(
    system: &SetSystem,
    search: Search<'_>,
    driver: &mut impl SearchDriver,
) -> (Vec<FixedBitSet>, SearchOutcome) {
    let mut out = Vec::new();
    let outcome = search.run(system, driver, &mut |s: &FixedBitSet| {
        out.push(s.clone());
        true
    });
    (out, outcome)
}

/// Collect MMCS results for a strategy.
fn mmcs(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
    collect(
        system,
        Search::new(strategy, SearchOrder::Dfs),
        &mut ExactDriver,
    )
    .0
}

/// Collect exact MMCS results under the shortest-first frontier, asserting
/// the run reports itself exhaustive.
fn mmcs_shortest_first(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
    let search = Search::new(strategy, SearchOrder::ShortestFirst);
    let (out, outcome) = collect(system, search, &mut ExactDriver);
    assert!(outcome.is_exhaustive());
    out
}

/// Collect the approximate enumeration at threshold `epsilon`.
fn approx(
    system: &SetSystem,
    score: impl Fn(&FixedBitSet, &[&[u32]]) -> f64,
    epsilon: f64,
    strategy: BranchStrategy,
    order: SearchOrder,
) -> Vec<FixedBitSet> {
    let search = Search::new(strategy, order);
    collect(system, search, &mut ApproxDriver::new(score, epsilon)).0
}

/// Assert an emission sequence is nondecreasing in cover size.
fn assert_nondecreasing_sizes(sets: &[FixedBitSet], context: &str) {
    for window in sets.windows(2) {
        assert!(
            window[0].len() <= window[1].len(),
            "{context}: cover of size {} emitted after size {}",
            window[1].len(),
            window[0].len()
        );
    }
}

/// The exact-cover score used to drive the approximate enumerator at ε = 0:
/// the fraction of subsets hit (monotone, 1 exactly on hitting sets),
/// counted from the unhit runs the enumerator passes.
fn coverage_score(system: &SetSystem) -> impl Fn(&FixedBitSet, &[&[u32]]) -> f64 + '_ {
    move |_set: &FixedBitSet, unhit: &[&[u32]]| {
        if system.is_empty() {
            return 1.0;
        }
        let missed: usize = unhit.iter().map(|run| run.len()).sum();
        (system.len() - missed) as f64 / system.len() as f64
    }
}

/// The subsets of `system` that `set` misses, ascending: the brute-force
/// scan every run list the enumerator passes must agree with.
fn scan_unhit(system: &SetSystem, set: &FixedBitSet) -> Vec<u32> {
    (0..system.len() as u32)
        .filter(|&i| !system.subsets()[i as usize].intersects(set))
        .collect()
}

/// [`coverage_score`] that first checks the run list it receives: every run
/// ascending, the runs pairwise disjoint, and their union exactly the
/// subsets the scored set misses.
fn checked_coverage_score(system: &SetSystem) -> impl Fn(&FixedBitSet, &[&[u32]]) -> f64 + '_ {
    let score = coverage_score(system);
    move |set: &FixedBitSet, unhit: &[&[u32]]| {
        let mut union: Vec<u32> = Vec::new();
        for run in unhit {
            assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "run {run:?} is not ascending"
            );
            union.extend_from_slice(run);
        }
        union.sort_unstable();
        assert!(
            union.windows(2).all(|w| w[0] < w[1]),
            "runs {unhit:?} overlap"
        );
        assert_eq!(
            union,
            scan_unhit(system, set),
            "runs {unhit:?} are not the subsets {:?} misses",
            set.to_vec()
        );
        score(set, unhit)
    }
}

/// The same coverage fraction from a scan, for the brute-force reference.
fn scanned_coverage_score(system: &SetSystem) -> impl Fn(&FixedBitSet) -> f64 + '_ {
    let score = coverage_score(system);
    move |set: &FixedBitSet| score(set, &[&scan_unhit(system, set)])
}

/// An emission sequence as index lists, in emission order.
fn canon_sequence(sets: Vec<FixedBitSet>) -> Vec<Vec<usize>> {
    sets.iter().map(|s| s.to_vec()).collect()
}

/// Normalise a family for comparison.
fn canon(sets: Vec<FixedBitSet>) -> Vec<Vec<usize>> {
    let mut v = canon_sequence(sets);
    v.sort();
    v
}

/// Run `search` as a sequence of `slice`-budget slices, resuming from the
/// suspend token until exhaustion. Returns the concatenated emission
/// sequence and the number of slices run.
fn sliced(
    system: &SetSystem,
    search: Search<'_>,
    slice: SearchBudget,
    driver: &mut impl SearchDriver,
) -> (Vec<Vec<usize>>, usize) {
    let mut covers: Vec<Vec<usize>> = Vec::new();
    let mut collect = |s: &FixedBitSet| {
        covers.push(s.to_vec());
        true
    };
    let mut suspended = search
        .budget(slice)
        .run(system, driver, &mut collect)
        .suspended;
    let mut slices = 1;
    while let Some(token) = suspended.take() {
        slices += 1;
        assert!(slices < 100_000, "runaway resume loop");
        suspended = Search::resume(token)
            .budget(slice)
            .run(system, driver, &mut collect)
            .suspended;
    }
    (covers, slices)
}

/// [`sliced`] for the exact enumeration from the root.
fn mmcs_sliced(
    system: &SetSystem,
    strategy: BranchStrategy,
    order: SearchOrder,
    slice_budget: SearchBudget,
) -> (Vec<Vec<usize>>, usize) {
    sliced(
        system,
        Search::new(strategy, order),
        slice_budget,
        &mut ExactDriver,
    )
}

/// MMCS under every strategy and the approximate enumerator at ε = 0 emit
/// exactly the brute-force family of minimal hitting sets.
fn check_brute_force_agreement(system: &SetSystem) {
    let reference = canon(brute_force_minimal_hitting_sets(system));
    for strategy in [
        BranchStrategy::MaxIntersection,
        BranchStrategy::MinIntersection,
        BranchStrategy::First,
    ] {
        let found = canon(mmcs(system, strategy));
        assert_eq!(
            &found, &reference,
            "MMCS/{:?} diverged from brute force",
            strategy
        );

        let approx = canon(approx(
            system,
            coverage_score(system),
            0.0,
            strategy,
            SearchOrder::Dfs,
        ));
        assert_eq!(
            &approx, &reference,
            "approx(ε=0)/{:?} diverged from brute force",
            strategy
        );
    }
}

/// At ε > 0 the approximate enumerator must match the brute-force
/// approximate reference (same score, same threshold). Callers keep ε off
/// exact coverage-fraction boundaries by a +1/2000 offset so floating-point
/// comparisons at the boundary cannot flip.
fn check_approx_brute_force(system: &SetSystem, epsilon: f64) {
    let score = coverage_score(system);
    let reference = canon(brute_force_minimal_approx_hitting_sets(
        system.num_elements(),
        scanned_coverage_score(system),
        epsilon,
    ));
    let found = canon(approx(
        system,
        &score,
        epsilon,
        BranchStrategy::default(),
        SearchOrder::Dfs,
    ));
    assert_eq!(found, reference);
}

/// Unbudgeted exact DFS takes the in-place undo walk; any budget forces the
/// explicit snapshot frontier. Same tree, same order — the emission
/// sequences, the expanded-node counts and the emission counts must be
/// identical.
fn check_inplace_matches_explicit(system: &SetSystem) {
    for strategy in [
        BranchStrategy::MaxIntersection,
        BranchStrategy::MinIntersection,
        BranchStrategy::First,
    ] {
        let search = Search::new(strategy, SearchOrder::Dfs);
        let (inplace, fast) = collect(system, search.clone(), &mut ExactDriver);
        let forced = search.budget(SearchBudget::unlimited().with_max_nodes(u64::MAX));
        let (explicit, slow) = collect(system, forced, &mut ExactDriver);
        assert_eq!(
            canon_sequence(inplace),
            canon_sequence(explicit),
            "strategy {:?}",
            strategy
        );
        assert_eq!(
            fast.nodes_expanded, slow.nodes_expanded,
            "strategy {:?}",
            strategy
        );
        assert_eq!(fast.emitted, slow.emitted, "strategy {:?}", strategy);
    }
}

/// Cut exact runs at arbitrary points (node budget, emission budget) and
/// resume them to completion: the concatenated emission must equal the
/// single uncapped run's *sequence* (not just its set), for both orders.
fn check_exact_resume(
    system: &SetSystem,
    node_slice: u64,
    emit_slice: usize,
    allowed_bits: &[bool],
) {
    let allowed = FixedBitSet::from_indices(
        system.num_elements(),
        (0..system.num_elements()).filter(|&e| allowed_bits[e]),
    );
    let confined_reference: Vec<Vec<usize>> = canon(brute_force_minimal_hitting_sets(system))
        .into_iter()
        .filter(|cover| cover.iter().all(|&e| allowed.contains(e)))
        .collect();
    for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
        let search = Search::new(BranchStrategy::MaxIntersection, order);
        let (reference, outcome) = collect(system, search, &mut ExactDriver);
        let reference = canon_sequence(reference);
        assert!(outcome.is_exhaustive());

        let (by_nodes, _) = mmcs_sliced(
            system,
            BranchStrategy::MaxIntersection,
            order,
            SearchBudget::unlimited().with_max_nodes(node_slice),
        );
        assert_eq!(&by_nodes, &reference, "node-sliced {:?}", order);

        let (by_emitted, _) = mmcs_sliced(
            system,
            BranchStrategy::MaxIntersection,
            order,
            SearchBudget::unlimited().with_max_emitted(emit_slice),
        );
        assert_eq!(&by_emitted, &reference, "emission-sliced {:?}", order);

        // A run confined to `allowed` and cut by a node budget resumes to
        // the unbudgeted confined run's sequence, whose answer set is
        // the brute-force answer restricted to subsets of `allowed`.
        let confined = Search::new(BranchStrategy::MaxIntersection, order).within(&allowed);
        let (whole, outcome) = collect(system, confined.clone(), &mut ExactDriver);
        let whole = canon_sequence(whole);
        assert!(outcome.is_exhaustive());
        let slice = SearchBudget::unlimited().with_max_nodes(node_slice);
        let (by_nodes, _) = sliced(system, confined, slice, &mut ExactDriver);
        assert_eq!(&by_nodes, &whole, "confined node-sliced {:?}", order);
        let mut answer = whole;
        answer.sort();
        assert_eq!(&answer, &confined_reference, "confined {:?}", order);
    }
}

/// A node-budget-cut approximate run, at ε = 0 and at `epsilon`, resumes to
/// the uncut run's sequence under both orders.
fn check_approx_resume(system: &SetSystem, epsilon: f64, node_slice: u64) {
    let score = coverage_score(system);
    for eps in [0.0, epsilon] {
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let search = Search::new(BranchStrategy::default(), order);
            let (reference, outcome) =
                collect(system, search.clone(), &mut ApproxDriver::new(&score, eps));
            let reference = canon_sequence(reference);
            assert!(outcome.is_exhaustive());
            assert!(outcome.suspended.is_none());

            let slice = SearchBudget::unlimited().with_max_nodes(node_slice);
            let (covers, _) = sliced(system, search, slice, &mut ApproxDriver::new(&score, eps));
            assert_eq!(&covers, &reference, "ε={} {:?}", eps, order);
        }
    }
}

/// Every score call — threshold test, `IsMinimal`, `WillCover` — gets the
/// unhit subsets as runs; `checked_coverage_score` compares them with a scan
/// of the system, in every traversal the engine offers. `raw_groups` holds
/// one structure-group id per element at least.
fn check_score_runs(
    system: &SetSystem,
    raw_groups: &[usize],
    epsilon: f64,
    node_slice: u64,
    cap: usize,
) {
    let groups = &raw_groups[..system.num_elements()];
    let score = checked_coverage_score(system);
    for eps in [0.0, epsilon] {
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            for grouped in [false, true] {
                let driver = || {
                    let driver = ApproxDriver::new(&score, eps);
                    if grouped {
                        driver.element_groups(groups)
                    } else {
                        driver
                    }
                };
                for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
                    let search = Search::new(strategy, order);
                    let whole = canon(collect(system, search.clone(), &mut driver()).0);
                    let slice = SearchBudget::unlimited().with_max_nodes(node_slice);
                    let (mut by_slices, _) = sliced(system, search, slice, &mut driver());
                    by_slices.sort();
                    assert_eq!(by_slices, whole, "ε={} {:?} {:?}", eps, strategy, order);
                }
                let bounded = SearchBudget::unlimited().with_max_frontier_nodes(cap);
                let search = Search::new(strategy, SearchOrder::ShortestFirst);
                collect(system, search.clone().budget(bounded), &mut driver());
                sliced(
                    system,
                    search,
                    bounded.with_max_nodes(node_slice),
                    &mut driver(),
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn brute_mmcs_and_approx_agree_on_random_systems(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        check_brute_force_agreement(&build_system(universe_seed, &raw_subsets));
    }

    #[test]
    fn every_enumerated_set_is_a_minimal_cover(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        for set in mmcs(&system, BranchStrategy::MaxIntersection) {
            prop_assert!(
                system.is_minimal_hitting_set(&set),
                "MMCS emitted a non-minimal cover {:?}", set.to_vec()
            );
        }
        let score = coverage_score(&system);
        for set in approx(&system, score, 0.0, BranchStrategy::default(), SearchOrder::Dfs) {
            prop_assert!(
                system.is_minimal_hitting_set(&set),
                "approx(ε=0) emitted a non-minimal cover {:?}", set.to_vec()
            );
        }
    }

    #[test]
    fn shortest_first_and_dfs_agree_and_shortest_first_is_sorted(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            // Exact enumeration: both orders emit identical cover *sets*,
            // and shortest-first emission is nondecreasing in cover size.
            let dfs = mmcs(&system, strategy);
            let sf = mmcs_shortest_first(&system, strategy);
            assert_nondecreasing_sizes(&sf, &format!("exact/{strategy:?}"));
            prop_assert_eq!(
                canon(dfs), canon(sf),
                "exact ShortestFirst/{:?} changed the cover set", strategy
            );
        }
    }

    #[test]
    fn approx_shortest_first_agrees_with_dfs_at_any_epsilon(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        epsilon_mil in 0usize..500,
    ) {
        // The same differential for the approximate enumerator, at ε = 0 and
        // at the (boundary-offset) positive ε, under every strategy.
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        let score = coverage_score(&system);
        for eps in [0.0, epsilon] {
            for strategy in [
                BranchStrategy::MaxIntersection,
                BranchStrategy::MinIntersection,
                BranchStrategy::First,
            ] {
                let dfs = approx(&system, &score, eps, strategy, SearchOrder::Dfs);
                let sf = approx(&system, &score, eps, strategy, SearchOrder::ShortestFirst);
                assert_nondecreasing_sizes(&sf, &format!("approx ε={eps}/{strategy:?}"));
                prop_assert_eq!(
                    canon(dfs), canon(sf),
                    "approx(ε={}) ShortestFirst/{:?} changed the cover set", eps, strategy
                );
            }
        }
    }

    #[test]
    fn budget_cut_exact_runs_resume_to_the_uncapped_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        node_slice in 1u64..12,
        emit_slice in 1usize..4,
        allowed_bits in vec(any::<bool>(), 10..11),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        check_exact_resume(&system, node_slice, emit_slice, &allowed_bits);
    }

    #[test]
    fn budget_cut_approx_runs_resume_to_the_uncapped_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        epsilon_mil in 0usize..400,
        node_slice in 1u64..12,
    ) {
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        check_approx_resume(&build_system(universe_seed, &raw_subsets), epsilon, node_slice);
    }

    #[test]
    fn emission_cap_is_never_exceeded(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        epsilon_mil in 0usize..400,
    ) {
        // A cap of k emits at most k results — none at k = 0 — and they are
        // the uncapped run's first k; a cap that cut results off reports
        // `MaxEmitted`. Exact and approximate, under both orders.
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        let score = coverage_score(&system);
        for cap in [0, 1, 3] {
            for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
                let search = Search::new(BranchStrategy::MaxIntersection, order);
                let capped = search
                    .clone()
                    .budget(SearchBudget::unlimited().with_max_emitted(cap));
                let runs = [
                    (
                        collect(&system, search.clone(), &mut ExactDriver).0,
                        collect(&system, capped.clone(), &mut ExactDriver),
                    ),
                    (
                        collect(&system, search, &mut ApproxDriver::new(&score, epsilon)).0,
                        collect(&system, capped, &mut ApproxDriver::new(&score, epsilon)),
                    ),
                ];
                for (whole, (covers, outcome)) in runs {
                    prop_assert!(
                        outcome.emitted <= cap,
                        "cap {} emitted {} ({:?})", cap, outcome.emitted, order
                    );
                    prop_assert_eq!(covers.len(), outcome.emitted);
                    let prefix = whole[..whole.len().min(cap)].to_vec();
                    prop_assert_eq!(canon_sequence(covers), canon_sequence(prefix));
                    if whole.len() > cap {
                        prop_assert_eq!(
                            outcome.truncation.map(|t| t.reason),
                            Some(TruncationReason::MaxEmitted)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memory_bounded_shortest_first_resumes_and_keeps_the_answer_set(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        cap in 1usize..8,
        node_slice in 1u64..12,
    ) {
        // The frontier cap perturbs only the emission *order*: the answer
        // set must match the unbounded run, and a cut memory-bounded run
        // resumed to completion must replay the single memory-bounded run's
        // sequence exactly.
        let system = build_system(universe_seed, &raw_subsets);
        let unbounded = canon(mmcs(&system, BranchStrategy::MaxIntersection));

        let bounded_budget = SearchBudget::unlimited().with_max_frontier_nodes(cap);
        let search = Search::new(BranchStrategy::MaxIntersection, SearchOrder::ShortestFirst);
        let (bounded, outcome) = collect(&system, search.budget(bounded_budget), &mut ExactDriver);
        let bounded = canon_sequence(bounded);
        prop_assert!(outcome.is_exhaustive());
        let mut bounded_set = bounded.clone();
        bounded_set.sort();
        prop_assert_eq!(&bounded_set, &unbounded, "the cap changed the answer set");

        let (sliced, _) = mmcs_sliced(
            &system,
            BranchStrategy::MaxIntersection,
            SearchOrder::ShortestFirst,
            bounded_budget.with_max_nodes(node_slice),
        );
        prop_assert_eq!(&sliced, &bounded, "memory-bounded cut+resume diverged");
    }

    #[test]
    fn inplace_dfs_walk_matches_the_explicit_engine_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        check_inplace_matches_explicit(&build_system(universe_seed, &raw_subsets));
    }

    #[test]
    fn approx_brute_force_agrees_at_positive_epsilon(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        epsilon_mil in 0usize..500,
    ) {
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        check_approx_brute_force(&build_system(universe_seed, &raw_subsets), epsilon);
    }
}

proptest! {
    #[test]
    fn score_runs_are_exactly_the_unhit_subsets(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        raw_groups in vec(0usize..4, 10..11),
        epsilon_mil in 0usize..400,
        node_slice in 1u64..12,
        cap in 1usize..8,
    ) {
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        check_score_runs(&system, &raw_groups, epsilon, node_slice, cap);
    }
}

// ---------------------------------------------------------------------------
// Multi-word systems: 60–140 subsets, so a node's bitset regions span two or
// three words, over at most 10 elements, so brute force stays cheap.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn wide_systems_agree_with_brute_force(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 60..141),
        epsilon_mil in 0usize..500,
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        check_brute_force_agreement(&system);
        check_approx_brute_force(&system, epsilon_mil as f64 / 1_000.0 + 0.000_5);
        check_inplace_matches_explicit(&system);
    }

    #[test]
    fn wide_score_runs_are_exactly_the_unhit_subsets(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 60..141),
        raw_groups in vec(0usize..4, 10..11),
        epsilon_mil in 0usize..400,
        node_slice in 1u64..12,
        cap in 1usize..8,
    ) {
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        check_score_runs(&system, &raw_groups, epsilon, node_slice, cap);
    }

    #[test]
    fn wide_budget_cut_runs_resume_to_the_uncapped_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 60..141),
        epsilon_mil in 0usize..400,
        node_slice in 1u64..12,
        emit_slice in 1usize..4,
        allowed_bits in vec(any::<bool>(), 10..11),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        check_exact_resume(&system, node_slice, emit_slice, &allowed_bits);
        check_approx_resume(&system, epsilon_mil as f64 / 1_000.0 + 0.000_5, node_slice);
    }

    #[test]
    fn patch_across_the_64_subset_boundary_resumes_soundly(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 50..65),
        raw_appended in vec(vec(0usize..16, 1..5), 15..40),
        budget_nodes in 1u64..24,
    ) {
        // 50–64 subsets grow to 65–103: every patched region is re-laid at
        // a stride of two words.
        let system = build_system(universe_seed, &raw_subsets);
        check_patched_exact(&system, &raw_appended, budget_nodes);
        check_patched_approx(&system, &raw_appended, budget_nodes);
    }
}

// ---------------------------------------------------------------------------
// Differential repair: grown systems (appended subsets)
// ---------------------------------------------------------------------------

/// Fold raw index lists into `num_elements` and append them to a clone of
/// `system`, returning the grown system and the append start index.
fn grow_system(system: &SetSystem, raw_appended: &[Vec<usize>]) -> (SetSystem, usize) {
    let m = system.num_elements();
    let mut grown = system.clone();
    let appended_from = grown.len();
    for raw in raw_appended {
        let folded: Vec<usize> = raw.iter().map(|&e| e % m).collect();
        grown.push_subset(FixedBitSet::from_indices(m, folded.iter().copied()));
    }
    (grown, appended_from)
}

/// Cut an exact shortest-first run mid-flight, append subsets, patch the
/// frontier, and resume against the grown system. Soundness: every
/// post-patch emission is a minimal hitting set of the grown system (and
/// hence appears in its full answer), and no cover — pre- or post-patch — is
/// ever emitted twice.
fn check_patched_exact(system: &SetSystem, raw_appended: &[Vec<usize>], budget_nodes: u64) {
    let search = Search::new(BranchStrategy::MaxIntersection, SearchOrder::ShortestFirst)
        .budget(SearchBudget::unlimited().with_max_nodes(budget_nodes));
    let (mut covers, outcome) = collect(system, search, &mut ExactDriver);
    let Some(mut token) = outcome.suspended else {
        return;
    };
    let pre_patch = covers.len();
    let (grown, appended_from) = grow_system(system, raw_appended);
    token.patch(&grown, appended_from);
    let mut next = Some(token);
    while let Some(t) = next.take() {
        let (more, again) = collect(&grown, Search::resume(t), &mut ExactDriver);
        covers.extend(more);
        next = again.suspended;
    }
    let full: std::collections::HashSet<Vec<usize>> =
        canon(brute_force_minimal_hitting_sets(&grown))
            .into_iter()
            .collect();
    for s in &covers[pre_patch..] {
        assert!(
            grown.is_minimal_hitting_set(s),
            "patched resume emitted a non-minimal cover {:?}",
            s.to_vec()
        );
        assert!(full.contains(&s.to_vec()));
    }
    let mut seen = std::collections::HashSet::new();
    for s in &covers {
        assert!(
            seen.insert(s.to_vec()),
            "duplicate emission {:?}",
            s.to_vec()
        );
    }
}

/// The approximate enumerator at ε = 0, cut, patched and resumed: every
/// post-patch emission is a minimal hitting set of the grown system, and the
/// checked score pins the unhit runs of the patched frontier against the
/// grown system.
fn check_patched_approx(system: &SetSystem, raw_appended: &[Vec<usize>], budget_nodes: u64) {
    let search = Search::new(BranchStrategy::default(), SearchOrder::ShortestFirst)
        .budget(SearchBudget::unlimited().with_max_nodes(budget_nodes));
    let mut driver = ApproxDriver::new(checked_coverage_score(system), 0.0);
    let (mut covers, outcome) = collect(system, search, &mut driver);
    let Some(mut token) = outcome.suspended else {
        return;
    };
    let pre_patch = covers.len();
    let (grown, appended_from) = grow_system(system, raw_appended);
    token.patch(&grown, appended_from);
    let mut driver = ApproxDriver::new(checked_coverage_score(&grown), 0.0);
    let mut next = Some(token);
    while let Some(t) = next.take() {
        let (more, again) = collect(&grown, Search::resume(t), &mut driver);
        covers.extend(more);
        next = again.suspended;
    }
    for s in &covers[pre_patch..] {
        assert!(
            grown.is_minimal_hitting_set(s),
            "patched approx resume emitted a non-minimal cover {:?}",
            s.to_vec()
        );
    }
}

proptest! {
    #[test]
    fn repair_of_a_complete_answer_equals_full_reenumeration(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 0..8),
        raw_appended in vec(vec(0usize..16, 1..5), 1..5),
    ) {
        // The tentpole guarantee of `repair_covers`: starting from the
        // complete T(F), grafting per-cover repairs of the appended subsets
        // reproduces T(F ∪ A) exactly — for any appended batch.
        let system = build_system(universe_seed, &raw_subsets);
        let (grown, appended_from) = grow_system(&system, &raw_appended);
        let old_covers = mmcs(&system, BranchStrategy::MaxIntersection);
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            let (repaired, stats) =
                repair_covers(&old_covers, &grown, appended_from..grown.len(), strategy);
            let reference = canon(brute_force_minimal_hitting_sets(&grown));
            prop_assert_eq!(
                canon(repaired),
                reference,
                "repair/{:?} diverged from re-enumeration",
                strategy
            );
            prop_assert_eq!(stats.kept + stats.reopened, old_covers.len());
        }
    }

    #[test]
    fn shrink_covers_is_sound_on_shrunk_systems(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 2..8),
        keep in 1usize..8,
    ) {
        // Drop a suffix of the subsets and greedily re-minimise the old
        // answer: every output must be a genuine minimal hitting set of the
        // shrunk system and appear in its full answer. (Completeness is
        // impossible from old covers alone — see `adc_hitting::repair`.)
        let system = build_system(universe_seed, &raw_subsets);
        let keep = keep.min(system.len());
        let shrunk_sys = SetSystem::new(
            system.num_elements(),
            system.subsets()[..keep].to_vec(),
        );
        let old_covers = mmcs(&system, BranchStrategy::MaxIntersection);
        let shrunk = shrink_covers(&old_covers, &shrunk_sys);
        let full: std::collections::HashSet<Vec<usize>> =
            canon(brute_force_minimal_hitting_sets(&shrunk_sys))
                .into_iter()
                .collect();
        for s in &shrunk {
            prop_assert!(
                shrunk_sys.is_minimal_hitting_set(s),
                "shrink emitted a non-minimal cover {:?}",
                s.to_vec()
            );
            prop_assert!(full.contains(&s.to_vec()));
        }
    }

    #[test]
    fn patched_exact_frontier_resumes_soundly(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        raw_appended in vec(vec(0usize..16, 1..5), 1..4),
        budget_nodes in 1u64..24,
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        check_patched_exact(&system, &raw_appended, budget_nodes);
    }

    #[test]
    fn patched_approx_frontier_resumes_soundly_at_epsilon_zero(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        raw_appended in vec(vec(0usize..16, 1..5), 1..4),
        budget_nodes in 1u64..24,
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        check_patched_approx(&system, &raw_appended, budget_nodes);
    }
}
