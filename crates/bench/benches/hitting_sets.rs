//! Criterion benchmark: the generic hitting-set layer on synthetic set
//! systems — exact MMCS vs the approximate enumerator at several thresholds.
//! This isolates the enumeration machinery from the DC-specific plumbing.

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
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
