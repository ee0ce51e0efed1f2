//! The `monitor-churn` workload: an exact `AdcMonitor` under a stream of
//! small insert/delete batches, with a dirty row inserted and retracted at
//! the start of every ten-batch cycle.

use crate::pipeline::{mine_figures, mine_layered, MINE_LAYERS};
use crate::report::{self, median, mix, quantile, Outcome};
use crate::trace::Tracer;
use crate::{emit_layers, write_trace, MIN_SETUP_REPEATS, SWEEP};
use adc_core::{AdcMiner, AdcMonitor, DenialConstraint, MinerConfig, MiningResult, RefreshPath};
use adc_data::{Relation, Value};
use adc_datasets::{targeted_spread_noise, Dataset, NoiseConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows the monitor starts from.
const BASE_ROWS: usize = 2_000;
/// Clean rows generated beyond the base, inserted in order by the churn.
const POOL_ROWS: usize = 1_500;
/// Batches per cycle; the first inserts a dirty row, the second retracts it.
const CYCLE: usize = 10;
/// A run churns at least this many cycles (100 batches), then continues in
/// whole cycles until its time is up.
const MIN_CYCLES: usize = 10;
/// Random deletes, and clean inserts, per batch. Fixed rather than drawn,
/// so every clean refresh does equal work.
const CHANGES: usize = 4;
/// Per-cell corruption rate of the noised pool.
const NOISE_RATE: f64 = 0.01;

/// Per-layer metrics of the churn (name, unit): totals per 100 batches,
/// except the ratio `repair.nodes_vs_remine`.
pub const CHURN_LAYERS: [(&str, &str); 10] = [
    ("delta.apply_s", "s"),
    ("delta.pairs_scanned", "count"),
    ("delta.entries_touched", "count"),
    ("repair.s", "s"),
    ("repair.nodes", "count"),
    ("repair.covers_reopened", "count"),
    ("repair.paths.repair", "count"),
    ("repair.paths.removal", "count"),
    ("repair.paths.restart", "count"),
    ("repair.nodes_vs_remine", "ratio"),
];

fn config() -> MinerConfig {
    MinerConfig::new(0.0).with_evidence(SWEEP)
}

/// Everything the set-up produces.
struct Prepared {
    pool: Relation,
    noisy: Relation,
    /// Pool rows whose only corrupted cell is in one column, taken one
    /// column after another so every run sees the same mix of columns.
    dirty: Vec<usize>,
    monitor: AdcMonitor,
    answer: Result<MiningResult, String>,
}

fn prepare(seed: u64, mut tracer: Option<&mut Tracer>) -> Prepared {
    let root = open(&mut tracer, "setup");
    let generator = Dataset::Tax.generator();
    let span = open(&mut tracer, "generate");
    let pool = generator.generate(BASE_ROWS + POOL_ROWS, mix(seed, 0));
    close(&mut tracer, span);

    let span = open(&mut tracer, "noise");
    let noise = NoiseConfig::with_rate(NOISE_RATE);
    let (noisy, changed) =
        targeted_spread_noise(&pool, &generator.correlation(), &noise, mix(seed, 1));
    let mut cells_per_row: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for cell in changed.iter().filter(|c| c.row >= BASE_ROWS) {
        cells_per_row.entry(cell.row).or_default().push(cell.col);
    }
    let mut by_column: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (row, cols) in &cells_per_row {
        if let [col] = cols[..] {
            by_column.entry(col).or_default().push(*row);
        }
    }
    let depth = by_column.values().map(Vec::len).max().unwrap_or(0);
    let dirty: Vec<usize> = (0..depth)
        .flat_map(|k| {
            by_column
                .values()
                .filter_map(move |rows| rows.get(k).copied())
        })
        .collect();
    close(&mut tracer, span);

    let span = open(&mut tracer, "monitor.new");
    let base = pool.project_rows(&(0..BASE_ROWS).collect::<Vec<_>>());
    let mut monitor = AdcMonitor::new(config(), &base);
    close(&mut tracer, span);

    let span = open(&mut tracer, "refresh.initial");
    let answer = monitor.refresh().map(|(r, _)| r).map_err(|e| e.to_string());
    close(&mut tracer, span);
    close(&mut tracer, root);
    Prepared {
        pool,
        noisy,
        dirty,
        monitor,
        answer,
    }
}

/// Set-up spans carry this operation id.
const SETUP_OP: u64 = u64::MAX;
/// The traced reference re-mine carries this operation id.
const REMINE_OP: u64 = u64::MAX - 1;

fn open(tracer: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    tracer.as_deref_mut().map(|t| t.open(name, SETUP_OP))
}

fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
        t.close(id);
    }
}

/// One refresh as the churn saw it.
struct Refresh {
    ms: f64,
    path: RefreshPath,
    pairs_scanned: u64,
    entries_touched: u64,
    nodes: u64,
    reopened: u64,
}

/// What one churn of a prepared monitor did.
struct Churn {
    refreshes: Vec<Refresh>,
    cycles: usize,
    /// Wall time of the whole churn.
    stream_s: f64,
    /// Peak RSS of each cycle.
    cycle_rss: Vec<f64>,
    monitor: AdcMonitor,
    last_answer: Option<MiningResult>,
}

impl Churn {
    fn batches(&self) -> usize {
        self.cycles * CYCLE
    }

    /// A per-churn total scaled to 100 batches.
    fn per_100(&self, total: f64) -> f64 {
        total * 100.0 / self.batches() as f64
    }
}

/// How long a churn runs: whole cycles until at least [`MIN_CYCLES`] ran
/// and the budget is spent, or exactly as many cycles as an earlier churn.
enum Length {
    Budget(Duration),
    Cycles(usize),
}

fn canonical(dcs: &[DenialConstraint]) -> Vec<Vec<usize>> {
    let mut ids: Vec<Vec<usize>> = dcs.iter().map(|dc| dc.predicate_ids().to_vec()).collect();
    ids.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    ids
}

/// Churn the monitor in 10-batch cycles. The batches are a function of the
/// seed alone, so a second churn of a fresh set-up replays the first one
/// exactly. With a tracer, every cycle and refresh gets a span, with the
/// refresh's own evidence and enumeration times as its children.
fn churn(
    out: &mut Outcome,
    prepared: Prepared,
    seed: u64,
    length: Length,
    mut tracer: Option<&mut Tracer>,
) -> Churn {
    let Prepared {
        pool,
        noisy,
        dirty,
        mut monitor,
        answer,
    } = prepared;
    let mut last_answer = match answer {
        Ok(result) => Some(result),
        Err(e) => {
            out.fail(1, format!("initial refresh failed: {e}"));
            None
        }
    };
    if dirty.is_empty() {
        out.fail(1, "noise left no single-cell dirty row".into());
    }

    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let mut next_clean = BASE_ROWS;
    let mut refreshes: Vec<Refresh> = Vec::new();
    let mut pending_dirty: Option<(usize, Vec<Value>)> = None;
    let mut cycle_rss = Vec::new();
    let started = Instant::now();
    let mut cycle = 0;
    while match length {
        Length::Budget(budget) => cycle < MIN_CYCLES || started.elapsed() < budget,
        Length::Cycles(cycles) => cycle < cycles,
    } {
        let cycle_span = tracer.as_deref_mut().map(|t| t.open("cycle", cycle as u64));
        report::reset_peak_rss();
        for b in 0..CYCLE {
            let n = monitor.relation().len();
            let mut deletes: Vec<usize> = Vec::with_capacity(CHANGES + 1);
            while deletes.len() < CHANGES {
                let row = rng.gen_range(0..n);
                if !deletes.contains(&row) {
                    deletes.push(row);
                }
            }
            if let Some((row, values)) = pending_dirty.take() {
                if monitor.relation().row(row) != values {
                    out.fail(1, format!("dirty row {row} is not where the churn put it"));
                }
                deletes.push(row);
            }
            deletes.sort_unstable();
            deletes.dedup();
            let mut inserts: Vec<Vec<Value>> = (0..CHANGES)
                .map(|_| {
                    let row = pool.row(next_clean);
                    next_clean = if next_clean + 1 < pool.len() {
                        next_clean + 1
                    } else {
                        BASE_ROWS
                    };
                    row
                })
                .collect();
            if b == 0 && !dirty.is_empty() {
                let row = noisy.row(dirty[cycle % dirty.len()]);
                // Survivors slide down and inserts go to the end.
                pending_dirty = Some((n - deletes.len() + inserts.len(), row.clone()));
                inserts.push(row);
            }
            if let Err(e) = monitor.delete_tuples(&deletes) {
                out.fail(1, format!("delete rejected: {e}"));
            }
            monitor.insert_tuples(inserts);

            let op = refreshes.len() as u64;
            let span = tracer.as_deref_mut().map(|t| t.open("refresh", op));
            let t = Instant::now();
            let result = monitor.refresh();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok((answer, stats)) => {
                    if let (Some(tracer), Some(id)) = (tracer.as_deref_mut(), span) {
                        tracer.record("delta.apply", op, t, answer.timings.evidence);
                        let after = t + answer.timings.evidence;
                        tracer.record("repair", op, after, answer.timings.enumeration);
                        tracer.close(id);
                    }
                    refreshes.push(Refresh {
                        ms,
                        path: stats.path,
                        pairs_scanned: stats.pairs_scanned,
                        entries_touched: stats.entries_touched as u64,
                        nodes: stats.enum_nodes,
                        reopened: stats.covers_reopened as u64,
                    });
                    last_answer = Some(answer);
                }
                Err(e) => {
                    if let (Some(tracer), Some(id)) = (tracer.as_deref_mut(), span) {
                        tracer.close(id);
                    }
                    out.fail(1, format!("refresh {op} failed: {e}"));
                    last_answer = None;
                }
            }
        }
        cycle_rss.push(report::peak_rss_mb());
        if let (Some(tracer), Some(id)) = (tracer.as_deref_mut(), cycle_span) {
            tracer.close(id);
        }
        cycle += 1;
    }
    Churn {
        refreshes,
        cycles: cycle,
        stream_s: started.elapsed().as_secs_f64(),
        cycle_rss,
        monitor,
        last_answer,
    }
}

/// The final answer of `churn` must equal `remine`.
fn check_final(out: &mut Outcome, what: &str, churn: &Churn, remine: &[DenialConstraint]) {
    match &churn.last_answer {
        Some(answer) if canonical(&answer.dcs) == canonical(remine) => {}
        Some(answer) => out.fail(
            1,
            format!(
                "{what}: final answer ({} DCs) differs from a re-mine ({} DCs)",
                answer.dcs.len(),
                remine.len()
            ),
        ),
        None => out.fail(1, format!("{what}: no final answer to compare")),
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: data, noise, `AdcMonitor::new` and the first refresh.
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..MIN_SETUP_REPEATS {
        drop(prepared.take()); // free the previous monitor before building the next
        let started = Instant::now();
        let p = prepare(seed, None);
        setup.push(started.elapsed().as_secs_f64());
        prepared = Some(black_box(p));
    }
    let prepared = prepared.expect("at least one set-up repetition");

    // Churn in whole cycles until at least 100 batches ran and the time is
    // up.
    let budget = Duration::from_secs(seconds);
    let untraced = churn(&mut out, prepared, seed, Length::Budget(budget), None);
    out.attempted = untraced.batches() as u64;

    // Check: the final answer equals a re-mine of the final relation.
    let mine_started = Instant::now();
    let remine = AdcMiner::new(config()).mine(untraced.monitor.relation());
    let mine_s = mine_started.elapsed().as_secs_f64();
    check_final(&mut out, "churn", &untraced, &remine.dcs);

    let ms: Vec<f64> = untraced.refreshes.iter().map(|r| r.ms).collect();
    let refresh_ms: f64 = ms.iter().sum();
    let clean: Vec<f64> = untraced
        .refreshes
        .iter()
        .enumerate()
        .filter(|(i, _)| i % CYCLE >= 2)
        .map(|(_, r)| r.ms)
        .collect();
    out.note(format!(
        "monitor-churn: refresh_ms mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms over {} refreshes \
         (clean refreshes: mean {:.3} ms, p50 {:.3} ms over {}); stream_s {:.3} s per 100 \
         batches ({} batches); re-mine mine_s {mine_s:.3} s; process peak RSS {:.1} MB",
        refresh_ms / ms.len().max(1) as f64,
        median(&ms),
        quantile(&ms, 0.9),
        ms.len(),
        clean.iter().sum::<f64>() / clean.len().max(1) as f64,
        median(&clean),
        clean.len(),
        untraced.per_100(untraced.stream_s),
        untraced.batches(),
        report::peak_rss_mb(),
    ));

    if trace {
        // Replay the same churn from a fresh, traced set-up: the difference
        // between the two streams is the tracing overhead.
        let mut tracer = Tracer::new();
        let prepared = prepare(seed, Some(&mut tracer));
        let traced = churn(
            &mut out,
            prepared,
            seed,
            Length::Cycles(untraced.cycles),
            Some(&mut tracer),
        );
        out.attempted += traced.batches() as u64;
        check_final(&mut out, "traced churn", &traced, &remine.dcs);

        // The reference re-mine, layer by layer, gives the batch layers'
        // figures on this workload (same kernel and size as the seed build
        // inside `AdcMonitor::new`).
        let op = REMINE_OP;
        let layered = mine_layered(&mut tracer, traced.monitor.relation(), &config(), op);
        if canonical(&layered.dcs) != canonical(&remine.dcs) {
            out.fail(1, "layered re-mine differs from AdcMiner::mine".into());
        }
        if layered.counts.search.score_evaluations != layered.counts.approx_calls {
            out.fail(
                1,
                "enumeration.score_evals != approx.calls on the re-mine".into(),
            );
        }
        emit_layers(&mut out, &MINE_LAYERS, &mine_figures(&tracer, op, &layered));

        let totals = tracer.totals(|op| op < REMINE_OP);
        let span_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total.as_secs_f64());
        let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time.as_secs_f64());
        let sum = |f: &dyn Fn(&Refresh) -> f64| -> f64 {
            traced.per_100(traced.refreshes.iter().map(f).sum::<f64>())
        };
        let paths = |p: RefreshPath| sum(&|r| f64::from(u8::from(r.path == p)));
        let remine_nodes = remine.enum_stats.recursive_calls.max(1) as f64;
        let worst_removal = traced
            .refreshes
            .iter()
            .filter(|r| r.path == RefreshPath::RemovalRepair)
            .map(|r| r.nodes)
            .max()
            .unwrap_or(0);
        let figures = [
            traced.per_100(span_s("delta.apply")),
            sum(&|r| r.pairs_scanned as f64),
            sum(&|r| r.entries_touched as f64),
            traced.per_100(span_s("repair")),
            sum(&|r| r.nodes as f64),
            sum(&|r| r.reopened as f64),
            paths(RefreshPath::Repair),
            paths(RefreshPath::RemovalRepair),
            paths(RefreshPath::Restart),
            worst_removal as f64 / remine_nodes,
        ];
        emit_layers(&mut out, &CHURN_LAYERS, &figures);
        let overhead = traced.per_100(traced.stream_s) - untraced.per_100(untraced.stream_s);
        let glue = traced.per_100(self_s("cycle") + self_s("refresh"));
        out.metric("trace.overhead_s", overhead, "s");
        out.metric("trace.glue_s", glue, "s");
        out.metric("trace.spans", tracer.len() as f64, "count");
        out.note(format!(
            "monitor-churn: per 100 batches, delta.apply_s {:.3} + repair.s {:.3} + \
             trace.glue_s {glue:.3} = {:.3} s; untraced stream_s {:.3} s + trace.overhead_s \
             {overhead:.3} s = {:.3} s",
            figures[0],
            figures[3],
            figures[0] + figures[3] + glue,
            untraced.per_100(untraced.stream_s),
            traced.per_100(traced.stream_s),
        ));
        out.note(format!(
            "monitor-churn: worst removal repair expanded {worst_removal} nodes, a re-mine {} \
             (repair.nodes_vs_remine {:.3})",
            remine.enum_stats.recursive_calls,
            worst_removal as f64 / remine_nodes
        ));
        write_trace("monitor-churn", seed, &tracer, traced.stream_s);
    } else {
        out.metric("setup_s", median(&setup), "s");
        out.metric("op_ms.mean", refresh_ms / ms.len().max(1) as f64, "ms");
        out.metric("peak_rss_mb", median(&untraced.cycle_rss), "MB");
    }
    out
}
