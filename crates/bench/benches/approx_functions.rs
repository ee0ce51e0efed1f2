//! Criterion benchmark: enumeration cost under f1 / f2 / f3 (Figure 8's
//! middle panel) plus the per-call cost of evaluating each function, with
//! and without the uncovered entries handed over.

use adc_approx::{ApproxContext, ApproxKind};
use adc_core::{enumerate_adcs, EnumerationOptions};
use adc_data::FixedBitSet;
use adc_datasets::Dataset;
use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder};
use adc_predicates::{PredicateSpace, SpaceConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Score calls per timed iteration of the per-call benches.
const CALLS: usize = 1_000;

fn bench(c: &mut Criterion) {
    let relation = Dataset::Tax.generator().generate(250, 5);
    let space = PredicateSpace::build(&relation, SpaceConfig::default());
    let evidence = ClusterEvidenceBuilder.build(&relation, &space, true);

    let mut group = c.benchmark_group("approx_functions");
    group.sample_size(10);
    for kind in ApproxKind::ALL {
        let f = kind.instantiate();
        group.bench_function(format!("enumerate/{}", kind), |b| {
            b.iter(|| {
                enumerate_adcs(&space, &evidence, f.as_ref(), &EnumerationOptions::new(0.1))
                    .dcs
                    .len()
            })
        });

        // Scoring cost on a mid-sized complement set, `CALLS` calls per
        // iteration: `score` scans the evidence for the uncovered entries,
        // `score_uncovered` is handed them, as the enumerator does.
        let ctx = ApproxContext::with_vios(&evidence.evidence_set, evidence.vios());
        let set = FixedBitSet::from_indices(space.len(), (0..space.len()).step_by(3));
        let uncovered = evidence.evidence_set.uncovered_indexes(&set);
        group.bench_function(format!("score/{}", kind), |b| {
            b.iter(|| {
                (0..CALLS)
                    .map(|_| f.score(&ctx, black_box(&set)))
                    .sum::<f64>()
            })
        });
        group.bench_function(format!("score_uncovered/{}", kind), |b| {
            b.iter(|| {
                (0..CALLS)
                    .map(|_| f.score_uncovered(&ctx, black_box(&set), &[black_box(&uncovered)]))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
