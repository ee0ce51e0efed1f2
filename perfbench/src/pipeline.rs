//! The mining pipeline driven layer by layer through the libraries' public
//! calls, so the traced run can time each layer and read the counters each
//! call returns. It performs the same steps, with the same configuration,
//! as `AdcMiner::mine`; the workloads check that both give the identical
//! DC sequence.

use crate::trace::Tracer;
use adc_approx::{ApproxContext, ApproximationFunction, SampleAdjustedF1};
use adc_core::{
    enumerate_adcs, sampling, ApproxKind, DenialConstraint, EnumerationOptions, EvidenceStrategy,
    MinerConfig, PredicateSpace,
};
use adc_data::{FixedBitSet, Relation};
use adc_evidence::{SweepEvidenceBuilder, SweepStats};
use adc_hitting::ApproxEnumStats;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Counters of one layered mine, as the layer calls returned them.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub predicates: usize,
    pub sampled_rows: usize,
    pub sweep: SweepStats,
    pub entries: usize,
    pub approx_calls: u64,
    pub search: ApproxEnumStats,
}

pub struct LayeredMine {
    pub dcs: Vec<DenialConstraint>,
    pub counts: LayerCounts,
}

/// The approximation function `AdcMiner` would pick for `cfg`.
pub fn approximation_function(cfg: &MinerConfig) -> Box<dyn ApproximationFunction> {
    match (cfg.approx, cfg.confidence_alpha) {
        (ApproxKind::F1, Some(alpha)) if cfg.sample_fraction < 1.0 => {
            Box::new(SampleAdjustedF1::with_alpha(alpha))
        }
        (kind, _) => kind.instantiate(),
    }
}

/// The enumeration options `AdcMiner` derives from `cfg`.
pub fn enumeration_options(cfg: &MinerConfig) -> EnumerationOptions {
    let mut options = EnumerationOptions::new(cfg.epsilon);
    options.strategy = cfg.strategy;
    options.max_dcs = cfg.max_dcs;
    options.order = cfg.order;
    options.budget = cfg.budget;
    options
}

/// Times every score call of the function it wraps.
struct TimedScore<'f> {
    inner: &'f dyn ApproximationFunction,
    calls: Cell<u64>,
    busy: Cell<Duration>,
}

impl ApproximationFunction for TimedScore<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn requires_vios(&self) -> bool {
        self.inner.requires_vios()
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let started = Instant::now();
        let score = self.inner.score(ctx, complement_set);
        self.busy.set(self.busy.get() + started.elapsed());
        self.calls.set(self.calls.get() + 1);
        score
    }
}

/// Mine `relation` with `cfg` one layer call at a time, recording a span
/// per layer under a `mine` span for operation `op`.
pub fn mine_layered(
    tracer: &mut Tracer,
    relation: &Relation,
    cfg: &MinerConfig,
    op: u64,
) -> LayeredMine {
    let EvidenceStrategy::Sweep { threads } = cfg.evidence else {
        panic!("the benchmark pins the sweep evidence kernel");
    };
    let root = tracer.open("mine", op);

    let span = tracer.open("predicates.build", op);
    let space = PredicateSpace::build(relation, cfg.space);
    tracer.close(span);

    let span = tracer.open("sampling.draw", op);
    let mined = sampling::draw_sample(relation, cfg.sample_fraction.min(1.0), cfg.seed);
    tracer.close(span);

    let function = approximation_function(cfg);
    let span = tracer.open("evidence.build", op);
    let (evidence, sweep) = SweepEvidenceBuilder::new(threads).build_with_stats(
        &mined,
        &space,
        function.requires_vios(),
    );
    tracer.close(span);

    let timed = TimedScore {
        inner: function.as_ref(),
        calls: Cell::new(0),
        busy: Cell::new(Duration::ZERO),
    };
    let options = enumeration_options(cfg);
    let span = tracer.open("enumeration", op);
    let started = Instant::now();
    let outcome = enumerate_adcs(&space, &evidence, &timed, &options);
    tracer.record("approx.score", op, started, timed.busy.get());
    tracer.close(span);
    tracer.close(root);

    LayeredMine {
        dcs: outcome.dcs,
        counts: LayerCounts {
            predicates: space.len(),
            sampled_rows: mined.len(),
            sweep,
            entries: evidence.evidence_set.distinct_count(),
            approx_calls: timed.calls.get(),
            search: outcome.stats,
        },
    }
}

/// The per-layer metrics of one mine, in this order (name, unit).
pub const MINE_LAYERS: [(&str, &str); 21] = [
    ("predicates.build_s", "s"),
    ("predicates.count", "count"),
    ("sampling.draw_s", "s"),
    ("sampling.rows", "count"),
    ("evidence.build_s", "s"),
    ("evidence.entries", "count"),
    ("evidence.materializations", "count"),
    ("evidence.refine_steps", "count"),
    ("evidence.fallback_classes", "count"),
    ("evidence.pair_classes", "count"),
    ("evidence.interval_classes", "count"),
    ("evidence.work_ratio", "ratio"),
    ("approx.score_s", "s"),
    ("approx.calls", "count"),
    ("approx.us_per_call", "us"),
    ("enumeration.self_s", "s"),
    ("enumeration.nodes", "count"),
    ("enumeration.score_evals", "count"),
    ("enumeration.dcs", "count"),
    ("enumeration.dcs_per_knode", "1/knode"),
    ("enumeration.peak_frontier", "count"),
];

/// [`MINE_LAYERS`] of the layered mine recorded as operation `op`.
pub fn mine_figures(tracer: &Tracer, op: u64, mined: &LayeredMine) -> [f64; 21] {
    let totals = tracer.totals(|o| o == op);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time.as_secs_f64());
    let c = &mined.counts;
    let approx_s = self_s("approx.score");
    let nodes = c.search.recursive_calls as f64;
    [
        self_s("predicates.build"),
        c.predicates as f64,
        self_s("sampling.draw"),
        c.sampled_rows as f64,
        self_s("evidence.build"),
        c.entries as f64,
        c.sweep.materializations as f64,
        c.sweep.refine_steps as f64,
        c.sweep.fallback_classes as f64,
        c.sweep.pair_classes as f64,
        c.sweep.interval_classes as f64,
        c.sweep.materialization_ratio(),
        approx_s,
        c.approx_calls as f64,
        approx_s * 1e6 / (c.approx_calls.max(1) as f64),
        self_s("enumeration"),
        nodes,
        c.search.score_evaluations as f64,
        mined.dcs.len() as f64,
        mined.dcs.len() as f64 * 1e3 / nodes.max(1.0),
        c.search.peak_frontier as f64,
    ]
}
