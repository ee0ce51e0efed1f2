//! The three batch-mining workloads: each operation is one
//! `AdcMiner::mine` over one of a set of seed-generated instances.

use crate::pipeline::{approximation_function, mine_figures, mine_layered, MINE_LAYERS};
use crate::report::{self, fingerprint, median, mix, quantile, Outcome};
use crate::trace::Tracer;
use crate::{emit_layers, monitor, write_trace, BATCH_SETUP_SECONDS, MIN_SETUP_REPEATS, SWEEP};
use adc_approx::ApproxContext;
use adc_core::metrics::g_recall;
use adc_core::{AdcMiner, ApproxKind, DenialConstraint, MinerConfig, PredicateSpace, SearchOrder};
use adc_data::Relation;
use adc_datasets::{targeted_spread_noise, Dataset, NoiseConfig};
use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which output checks a workload runs (outside every timed region).
#[derive(Debug, Clone, Copy)]
struct Checks {
    /// Every golden DC of the dataset is implied by some mined DC.
    golden: bool,
    /// Every mined DC is valid and minimal when re-scored on evidence built
    /// by the pairwise Cluster kernel.
    oracle: bool,
    /// Shortest-first sizes are nondecreasing below the cap's cut size.
    size_order: bool,
}

pub struct BatchWorkload {
    dataset: Dataset,
    rows: usize,
    /// Distinct relations generated per run.
    relations: usize,
    /// Distinct sample seeds per relation (1 when not sampling).
    samples: usize,
    noise: Option<f64>,
    config: MinerConfig,
    checks: Checks,
}

/// Hospital-shaped clean mining is node-bound: millions of cheap search
/// nodes. Adult at 2 000 rows is in the same regime (enumeration ≥ 90 % of
/// the mine, ~2 score calls per node) at a size that gives a run several
/// mines to average over.
pub fn clean_mine() -> BatchWorkload {
    BatchWorkload {
        dataset: Dataset::Adult,
        rows: 2_000,
        relations: 8,
        samples: 1,
        noise: None,
        config: MinerConfig::new(1e-6).with_evidence(SWEEP),
        checks: Checks {
            golden: true,
            oracle: true,
            size_order: false,
        },
    }
}

/// Approximate DCs on dirty data, scored through the `vios` index by f2,
/// shortest-first under a result cap: scoring and frontier memory dominate.
pub fn dirty_anytime() -> BatchWorkload {
    BatchWorkload {
        dataset: Dataset::Hospital,
        rows: 300,
        relations: 32,
        samples: 1,
        noise: Some(0.003),
        config: MinerConfig::new(1e-3)
            .with_approx(ApproxKind::F2)
            .with_order(SearchOrder::ShortestFirst)
            .with_max_dcs(150)
            .with_evidence(SWEEP),
        checks: Checks {
            golden: false,
            oracle: true,
            size_order: true,
        },
    }
}

/// The sampling mode: predicate space on the full relation, evidence on a
/// 20 % sample under the confidence-adjusted f1'. Evidence and predicate
/// space dominate here and nowhere else.
pub fn sampled_mine() -> BatchWorkload {
    BatchWorkload {
        dataset: Dataset::Tax,
        rows: 20_000,
        relations: 1,
        samples: 8,
        noise: None,
        config: MinerConfig::new(1e-6)
            .with_sample(0.2, 0)
            .with_confidence(0.05)
            .with_evidence(SWEEP),
        checks: Checks {
            golden: true,
            oracle: false,
            size_order: false,
        },
    }
}

struct Instance {
    relation: usize,
    config: MinerConfig,
}

/// What the first (untraced) mine of an instance returned; later mines of
/// the same instance must reproduce its fingerprint exactly.
struct Answer {
    dcs: Vec<DenialConstraint>,
    space: PredicateSpace,
    fingerprint: u64,
}

struct Op {
    instance: usize,
    seconds: f64,
    /// Peak RSS while this mine ran.
    rss_mb: f64,
    traced: bool,
    fingerprint: u64,
}

/// Per-layer figures of one traced mine.
struct TracedOp {
    figures: [f64; MINE_LAYERS.len()],
    glue: f64,
    score_evals: u64,
    approx_calls: u64,
}

impl BatchWorkload {
    fn generate(&self, seed: u64) -> Vec<Relation> {
        let generator = self.dataset.generator();
        (0..self.relations as u64)
            .map(|r| {
                let clean = generator.generate(self.rows, mix(seed, r));
                match self.noise {
                    Some(rate) => {
                        let config = NoiseConfig::with_rate(rate);
                        let spec = generator.correlation();
                        targeted_spread_noise(&clean, &spec, &config, mix(seed, 1_000 + r)).0
                    }
                    None => clean,
                }
            })
            .collect()
    }

    pub fn run(&self, name: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
        let mut out = Outcome::default();

        // Set-up: generate (and corrupt) every instance, several times.
        let mut setup: Vec<f64> = Vec::new();
        let mut relations = Vec::new();
        while setup.len() < MIN_SETUP_REPEATS || setup.iter().sum::<f64>() < BATCH_SETUP_SECONDS {
            drop(std::mem::take(&mut relations));
            let started = Instant::now();
            relations = black_box(self.generate(seed));
            setup.push(started.elapsed().as_secs_f64());
        }
        let instances: Vec<Instance> = (0..relations.len())
            .flat_map(|relation| (0..self.samples as u64).map(move |s| (relation, s)))
            .map(|(relation, s)| {
                let mut config = self.config;
                if config.sample_fraction < 1.0 {
                    config.seed = mix(seed, 2_000 + s);
                }
                Instance { relation, config }
            })
            .collect();

        // Measure: mine every instance once per round, in whole rounds, for
        // as long as another round fits in the time left (at least one
        // round), so every run of a seed averages over the same instances.
        // A traced run mines each instance twice in a row, untraced then
        // layer by layer, so the pair's difference is the tracing overhead.
        let mut tracer = Tracer::new();
        let mut ops: Vec<Op> = Vec::new();
        let mut answers: Vec<Option<Answer>> = instances.iter().map(|_| None).collect();
        let mut traced_ops: Vec<(usize, TracedOp)> = Vec::new();
        let budget = Duration::from_secs(seconds);
        let started = Instant::now();
        let round_ops = (instances.len() * if trace { 2 } else { 1 }) as u64;
        let mut i: u64 = 0;
        loop {
            if i > 0 && i.is_multiple_of(round_ops) {
                let elapsed = started.elapsed();
                if elapsed + elapsed / (i / round_ops) as u32 > budget {
                    break;
                }
            }
            let (instance, traced) = if trace {
                ((i / 2) as usize % instances.len(), i % 2 == 1)
            } else {
                (i as usize % instances.len(), false)
            };
            let inst = &instances[instance];
            let relation = &relations[inst.relation];
            report::reset_peak_rss();
            let op_started = Instant::now();
            let (dcs, space) = if traced {
                let mined = mine_layered(&mut tracer, relation, &inst.config, i);
                let secs = op_started.elapsed().as_secs_f64();
                let glue = tracer.totals(|op| op == i)["mine"].self_time.as_secs_f64();
                traced_ops.push((
                    ops.len(),
                    TracedOp {
                        figures: mine_figures(&tracer, i, &mined),
                        glue,
                        score_evals: mined.counts.search.score_evaluations,
                        approx_calls: mined.counts.approx_calls,
                    },
                ));
                ops.push(Op {
                    instance,
                    seconds: secs,
                    rss_mb: report::peak_rss_mb(),
                    traced,
                    fingerprint: fp(&mined.dcs),
                });
                (mined.dcs, None)
            } else {
                let result = black_box(AdcMiner::new(inst.config).mine(relation));
                let secs = op_started.elapsed().as_secs_f64();
                ops.push(Op {
                    instance,
                    seconds: secs,
                    rss_mb: report::peak_rss_mb(),
                    traced,
                    fingerprint: fp(&result.dcs),
                });
                (result.dcs, Some(result.space))
            };
            if let (None, Some(space)) = (&answers[instance], space) {
                let fingerprint = fp(&dcs);
                answers[instance] = Some(Answer {
                    dcs,
                    space,
                    fingerprint,
                });
            }
            i += 1;
        }
        out.attempted = ops.len() as u64;

        // Check every instance's answer, outside the timed region.
        for (index, answer) in answers.iter().enumerate() {
            let Some(answer) = answer else { continue };
            let inst = &instances[index];
            let relation = &relations[inst.relation];
            let mut problems = self.check(relation, &inst.config, answer);
            for op in ops.iter().filter(|op| op.instance == index) {
                if op.fingerprint != answer.fingerprint {
                    problems.push(format!(
                        "{} mine returned a different DC sequence",
                        if op.traced { "layered" } else { "repeated" }
                    ));
                }
            }
            for (_, t) in traced_ops.iter().filter(|(o, _)| ops[*o].instance == index) {
                if t.score_evals != t.approx_calls {
                    problems.push(format!(
                        "enumeration.score_evals {} != approx.calls {}",
                        t.score_evals, t.approx_calls
                    ));
                }
            }
            if !problems.is_empty() {
                let n = ops.iter().filter(|op| op.instance == index).count() as u64;
                out.fail(n, format!("instance {index}: {}", problems.join("; ")));
            }
        }

        if self.checks.size_order {
            let prints: Vec<String> = answers
                .iter()
                .flatten()
                .map(|a| format!("{:016x}", a.fingerprint))
                .collect();
            out.note(format!(
                "{name}: DC-sequence fingerprints per instance (recorded, not gated): {}",
                prints.join(" ")
            ));
        }

        let untraced: Vec<f64> = ops
            .iter()
            .filter(|o| !o.traced)
            .map(|o| o.seconds)
            .collect();
        let mean_s = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64;
        out.note(format!(
            "{name}: mine_s mean {mean_s:.4} s, median {:.4} s, p90 {:.4} s over {} \
             AdcMiner::mine calls on {} instances; process peak RSS {:.1} MB",
            median(&untraced),
            quantile(&untraced, 0.9),
            untraced.len(),
            answers.iter().flatten().count(),
            report::peak_rss_mb(),
        ));
        if trace {
            let ran_s = started.elapsed().as_secs_f64();
            Self::per_layer(&mut out, &ops, &traced_ops, &tracer);
            write_trace(name, seed, &tracer, ran_s);
        } else {
            out.metric("setup_s", median(&setup), "s");
            out.metric("op_ms.mean", mean_s * 1e3, "ms");
            let rss: Vec<f64> = ops.iter().map(|o| o.rss_mb).collect();
            out.metric("peak_rss_mb", median(&rss), "MB");
        }
        out
    }

    fn check(&self, relation: &Relation, cfg: &MinerConfig, answer: &Answer) -> Vec<String> {
        let mut problems = Vec::new();
        if answer.dcs.is_empty() {
            problems.push("no DCs mined".to_string());
        }
        if self.checks.golden {
            let golden = self.dataset.generator().golden_dcs(&answer.space);
            let recall = g_recall(&answer.dcs, &golden);
            if golden.is_empty() || recall < 1.0 {
                problems.push(format!("golden recall {recall} over {} DCs", golden.len()));
            }
        }
        if self.checks.oracle {
            problems.extend(oracle_problems(relation, cfg, answer));
        }
        if self.checks.size_order {
            // Shortest-first returns every DC below the cap's cut size in
            // nondecreasing size. Which DCs of the cut size fill the cap
            // depends on the evidence kernel's entry order, so that part is
            // fingerprinted, not gated; their sizes are all the cut size.
            let sizes: Vec<usize> = answer.dcs.iter().map(DenialConstraint::len).collect();
            if sizes.windows(2).any(|w| w[0] > w[1]) {
                problems.push(format!("shortest-first sizes decrease: {sizes:?}"));
            }
        }
        problems
    }

    fn per_layer(out: &mut Outcome, ops: &[Op], traced: &[(usize, TracedOp)], tracer: &Tracer) {
        let figures: Vec<f64> = (0..MINE_LAYERS.len())
            .map(|k| median(&traced.iter().map(|(_, t)| t.figures[k]).collect::<Vec<_>>()))
            .collect();
        emit_layers(out, &MINE_LAYERS, &figures);
        emit_layers(
            out,
            &monitor::CHURN_LAYERS,
            &[0.0; monitor::CHURN_LAYERS.len()],
        );
        // Each traced mine directly follows an untraced mine of the same
        // instance.
        let overhead: Vec<f64> = traced
            .iter()
            .map(|(o, _)| ops[*o].seconds - ops[*o - 1].seconds)
            .collect();
        out.metric("trace.overhead_s", median(&overhead), "s");
        out.metric(
            "trace.glue_s",
            median(&traced.iter().map(|(_, t)| t.glue).collect::<Vec<_>>()),
            "s",
        );
        out.metric("trace.spans", tracer.len() as f64, "count");
    }
}

fn fp(dcs: &[DenialConstraint]) -> u64 {
    fingerprint(dcs.iter().map(DenialConstraint::predicate_ids))
}

/// Re-score every DC on evidence from the pairwise Cluster kernel: each
/// must be an ε-ADC, and dropping any one predicate must not leave one.
fn oracle_problems(relation: &Relation, cfg: &MinerConfig, answer: &Answer) -> Vec<String> {
    let function = approximation_function(cfg);
    let evidence = ClusterEvidenceBuilder.build(relation, &answer.space, function.requires_vios());
    let ctx = match evidence.vios.as_ref() {
        Some(vios) => ApproxContext::with_vios(&evidence.evidence_set, vios),
        None => ApproxContext::new(&evidence.evidence_set),
    };
    let rate = |ids: Vec<usize>| {
        let dc = DenialConstraint::new(ids);
        function.exception_rate(&ctx, &dc.complement_set(&answer.space))
    };
    // The tolerance only absorbs summation-order rounding between kernels.
    let tolerance = 1e-12;
    let (mut invalid, mut non_minimal) = (0, 0);
    for dc in &answer.dcs {
        let ids = dc.predicate_ids();
        if rate(ids.to_vec()) > cfg.epsilon + tolerance {
            invalid += 1;
        }
        let reducible = (0..ids.len()).any(|skip| {
            let sub: Vec<usize> = (0..ids.len())
                .filter(|&j| j != skip)
                .map(|j| ids[j])
                .collect();
            !sub.is_empty() && rate(sub) <= cfg.epsilon - tolerance
        });
        if reducible {
            non_minimal += 1;
        }
    }
    let mut problems = Vec::new();
    if invalid > 0 {
        problems.push(format!("{invalid} DCs not valid on oracle evidence"));
    }
    if non_minimal > 0 {
        problems.push(format!("{non_minimal} DCs not minimal on oracle evidence"));
    }
    problems
}
