//! Criterion benchmark: the generic hitting-set layer on synthetic set
//! systems — exact MMCS vs the approximate enumerator at several thresholds.
//! This isolates the enumeration machinery from the DC-specific plumbing.
//! `approx_wide_shortest_first` mirrors a capped dirty-data mine (hundreds
//! of subsets, so every search node spans several bitset words).

use adc_data::FixedBitSet;
use adc_hitting::{
    ApproxDriver, BranchStrategy, ExactDriver, Search, SearchBudget, SearchDriver, SearchOrder,
    SetSystem,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_system(elements: usize, subsets: usize, density: f64, seed: u64) -> SetSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::with_capacity(subsets);
    for _ in 0..subsets {
        let mut s = FixedBitSet::new(elements);
        for e in 0..elements {
            if rng.gen_bool(density) {
                s.insert(e);
            }
        }
        if s.is_empty() {
            s.insert(rng.gen_range(0..elements));
        }
        sets.push(s);
    }
    SetSystem::new(elements, sets)
}

fn coverage_score(system: &SetSystem) -> impl Fn(&FixedBitSet, &[&[u32]]) -> f64 + '_ {
    move |_set: &FixedBitSet, unhit: &[&[u32]]| {
        if system.is_empty() {
            return 1.0;
        }
        let missed: usize = unhit.iter().map(|run| run.len()).sum();
        (system.len() - missed) as f64 / system.len() as f64
    }
}

/// Subsets shaped like the complement sets of DC evidence over `columns`
/// categorical columns: elements `2c` and `2c + 1` stand for `c =` and
/// `c ≠`, and each subset holds exactly one of the two per column — the
/// predicate its tuple pair does *not* satisfy. Column `c`'s values agree
/// on a pair with a per-column probability in `[0.02, 0.5)`. Also returns
/// the structure group (the column) of every element.
fn evidence_like_system(columns: usize, entries: usize, seed: u64) -> (SetSystem, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let agree: Vec<f64> = (0..columns).map(|_| rng.gen_range(0.02..0.5)).collect();
    let elements = 2 * columns;
    let subsets = (0..entries)
        .map(|_| {
            let mut s = FixedBitSet::new(elements);
            for (c, &p) in agree.iter().enumerate() {
                s.insert(if rng.gen_bool(p) { 2 * c + 1 } else { 2 * c });
            }
            s
        })
        .collect();
    let groups = (0..elements).map(|e| e / 2).collect();
    (SetSystem::new(elements, subsets), groups)
}

/// A weighted coverage score: the share of subset weight `set` hits, counted
/// from the unhit runs the enumerator passes (the shape of `f1` over
/// evidence entries weighted by their pair counts).
fn weighted_score(weights: &[u64]) -> impl Fn(&FixedBitSet, &[&[u32]]) -> f64 + '_ {
    let total: u64 = weights.iter().sum();
    move |_set: &FixedBitSet, unhit: &[&[u32]]| {
        let missed: u64 = unhit
            .iter()
            .flat_map(|run| run.iter())
            .map(|&i| weights[i as usize])
            .sum();
        1.0 - missed as f64 / total as f64
    }
}

/// Number of results `search` emits with `driver`.
fn count(system: &SetSystem, search: Search<'_>, driver: &mut impl SearchDriver) -> usize {
    search.run(system, driver, &mut |_| true).emitted
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("hitting_sets");
    group.sample_size(10);
    let system = random_system(24, 120, 0.2, 99);

    // Unbudgeted DFS takes the in-place undo walk (the recursive kernel's
    // cost profile); forcing any budget falls back to the explicit snapshot
    // frontier, so the pair measures exactly what the undo hybrid reclaims.
    let dfs = Search::new(BranchStrategy::MinIntersection, SearchOrder::Dfs);
    group.bench_function("mmcs_exact", |b| {
        b.iter(|| count(&system, dfs.clone(), &mut ExactDriver))
    });
    group.bench_function("mmcs_exact_engine", |b| {
        let forced = dfs
            .clone()
            .budget(SearchBudget::unlimited().with_max_nodes(u64::MAX));
        b.iter(|| count(&system, forced.clone(), &mut ExactDriver))
    });
    for epsilon in [0.0, 0.05, 0.15] {
        group.bench_function(format!("approx_eps_{epsilon}"), |b| {
            let score = coverage_score(&system);
            let search = Search::new(BranchStrategy::default(), SearchOrder::Dfs);
            b.iter(|| {
                count(
                    &system,
                    search.clone(),
                    &mut ApproxDriver::new(&score, epsilon),
                )
            })
        });
    }

    // The engine regime of a capped dirty-data mine: 750 evidence-like
    // subsets over 88 elements, weighted, the approximate driver under
    // shortest-first with an emission cap. Nodes are few (~6 k) and wide
    // (12-word regions), and the frontier peaks near 70 k nodes, so this
    // times child construction rather than scoring.
    let (wide, groups) = evidence_like_system(44, 750, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let weights: Vec<u64> = (0..wide.len())
        .map(|_| 1u64 << rng.gen_range(0..12))
        .collect();
    group.bench_function("approx_wide_shortest_first", |b| {
        let score = weighted_score(&weights);
        let search = Search::new(BranchStrategy::default(), SearchOrder::ShortestFirst)
            .budget(SearchBudget::unlimited().with_max_emitted(150));
        b.iter(|| {
            let mut driver = ApproxDriver::new(&score, 1e-3).element_groups(&groups);
            count(&wide, search.clone(), &mut driver)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
