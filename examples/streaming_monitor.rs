//! Continuous DC monitoring: ingest clean tuples batch by batch, then
//! corrupt a single tuple, and watch the minimal-ADC answer set follow the
//! data — without ever re-scanning the unchanged pairs.
//!
//! The monitor folds each insert/delete batch into the evidence multiset
//! differentially (`O(batch · n)` pairs instead of the full `n·(n−1)`), and
//! when the run is exact and only new evidence appeared it *repairs* the
//! previous answer instead of re-enumerating. When a rule retires, the
//! maintained `Vios` index names the tuples that broke it — the corrupted
//! row shows up immediately, with no extra scan.
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_monitor
//! ```

use adc::datasets::Dataset;
use adc::prelude::*;
use std::collections::BTreeSet;

fn rendered(result: &MiningResult) -> BTreeSet<String> {
    result
        .dcs
        .iter()
        .map(|dc| dc.display(&result.space).to_string())
        .collect()
}

fn report(label: &str, result: &MiningResult, stats: &DeltaStats, total_pairs: u64) {
    println!(
        "{label}: {} DCs | scanned {} of {} ordered pairs | {} entries touched | {}",
        result.dcs.len(),
        stats.pairs_scanned,
        total_pairs,
        stats.entries_touched,
        if stats.repaired() {
            format!("repaired ({} covers reopened)", stats.covers_reopened)
        } else {
            "restarted enumeration".to_string()
        }
    );
}

fn main() {
    // A clean Tax relation: State→Zip is functional, Salary/Tax are
    // monotone within a state. Mining at ε = 0 gives the rules that hold
    // *exactly*, so a single corrupted tuple visibly retires rules.
    let columns = ["State", "Zip", "Salary", "Tax"];
    let pool = Dataset::Tax
        .generator()
        .generate(116, 42)
        .project_columns(&columns)
        .expect("audit columns exist");
    let base = pool.project_rows(&(0..100).collect::<Vec<_>>());

    // ε = 0 with f2: exact semantics (enabling the cover-repair fast path)
    // plus the `Vios` index (f2 needs it), which names violating tuples.
    let config = MinerConfig::new(0.0)
        .with_approx(ApproxKind::F2)
        .with_space(SpaceConfig::same_column_only());
    let mut monitor = AdcMonitor::new(config, &base);

    let (initial, stats) = monitor.refresh().expect("initial refresh");
    report("initial answer ", &initial, &stats, initial.total_pairs);
    let mut previous = rendered(&initial);

    // --- Phase 1: stream clean tuples in, 5 at a time -------------------
    for batch in 0..3 {
        let rows: Vec<Vec<Value>> = (100 + 5 * batch..100 + 5 * (batch + 1))
            .map(|i| pool.row(i))
            .collect();
        monitor.insert_tuples(rows);
        let (result, stats) = monitor.refresh().expect("clean batch");
        report(
            &format!("clean batch #{batch}"),
            &result,
            &stats,
            result.total_pairs,
        );
        previous = rendered(&result);
    }

    // --- Phase 2: corrupt one tuple -------------------------------------
    // Row 50 gets its Tax zeroed out: a high salary with zero tax breaks the
    // within-state monotonicity rules.
    let corrupted_row = monitor.relation().len() - 1; // lands at the end
    let mut row = monitor.relation().row(50);
    println!(
        "\ncorrupting tuple 50 (State {}): Tax {} → 0 (re-inserted as tuple {corrupted_row})",
        row[0], row[3]
    );
    row[3] = Value::Int(0);
    monitor.delete_tuples(&[50]).expect("row 50 exists");
    monitor.insert_tuples(vec![row]);
    let (result, stats) = monitor.refresh().expect("corruption batch");
    report("after corruption", &result, &stats, result.total_pairs);

    let current = rendered(&result);
    let retired: Vec<&String> = previous.difference(&current).collect();
    let new: Vec<&String> = current.difference(&previous).collect();
    println!("\nretired rules ({}):", retired.len());
    for dc in &retired {
        println!("  - {dc}");
    }
    println!("new rules ({}):", new.len());
    for dc in &new {
        println!("  + {dc}");
    }

    // --- Phase 3: who broke the retired rules? ---------------------------
    // A pair violates a DC when its evidence mask contains every predicate
    // of the DC; the maintained `Vios` index maps those entries back to the
    // participating tuples. The freshly corrupted tuple should dominate.
    let vios = monitor.vios().expect("f2 tracks vios");
    let space = monitor.space().clone();
    let entries = monitor.evidence_set().entries();
    if let Some(rule) = previous.difference(&current).next() {
        let dc = initial
            .dcs
            .iter()
            .find(|dc| dc.display(&space).to_string() == **rule)
            .expect("retired rule came from the previous answer");
        let pred_set = dc.predicate_set(&space);
        let violating = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| pred_set.is_subset(&e.set))
            .map(|(i, _)| i);
        let mut counts: Vec<(u32, u64)> = vios.accumulate_counts(violating).into_iter().collect();
        counts.sort_by_key(|&(t, c)| (std::cmp::Reverse(c), t));
        println!("\ntuples violating the retired rule `{rule}`:");
        for (tuple, pairs) in counts.iter().take(5) {
            let marker = if *tuple as usize == corrupted_row {
                "  ← the corrupted tuple"
            } else {
                ""
            };
            println!("  tuple {tuple}: in {pairs} violating pairs{marker}");
        }
    }
}
