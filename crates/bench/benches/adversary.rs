//! Adversarial-search bench: wall-clock cost of the budgeted placement
//! search (scout + targeted arm + equal-budget uniform baseline) and
//! the schedule fuzzer on the quick GPU entries, with the quality
//! gates asserted — zero silent-wrong answers anywhere, and the
//! targeted arm strictly beating uniform spray on at least one cell.
//!
//! Writes the machine-readable record to `results/BENCH_adversary.json`.

use criterion::robust_stats;
use rdbs_conformance::{fuzz_schedules, run_adversary, SweepOptions};
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 7;

struct Row {
    name: &'static str,
    host_median_ms: f64,
    host_mad_ms: f64,
    cells: usize,
    deepest: u32,
    targeted_wins: usize,
}

fn measure_search(name: &'static str, budget: u64, max_evals: u32) -> Row {
    let opts = SweepOptions {
        quick: true,
        entry_filter: Some("gpu/".into()),
        graph_filter: Some("erdos".into()),
        budget,
        max_evals,
        seeds: vec![3],
        corpus_keep: 4,
        ..SweepOptions::default()
    };
    let mut host_ms = Vec::with_capacity(REPS);
    let mut report = None;
    for _ in 0..REPS {
        let started = Instant::now();
        let r = run_adversary(&opts, |_| {});
        host_ms.push(started.elapsed().as_secs_f64() * 1e3);
        report = Some(r);
    }
    let report = report.expect("at least one rep ran");
    assert!(report.is_green(), "{name}: adversarial search found a silent wrong answer");
    assert!(
        report.targeted_beats_uniform(),
        "{name}: targeted placement never beat equal-budget uniform spray"
    );
    let r = robust_stats(&host_ms);
    Row {
        name,
        host_median_ms: r.median,
        host_mad_ms: r.mad,
        cells: report.runs.len(),
        deepest: report.runs.iter().map(|x| x.best_targeted).max().unwrap_or(0),
        targeted_wins: report.runs.iter().filter(|x| x.best_targeted > x.best_uniform).count(),
    }
}

fn measure_fuzz(name: &'static str, perms: u32) -> Row {
    let opts = SweepOptions {
        quick: true,
        entry_filter: Some("gpu/".into()),
        perms,
        ..SweepOptions::default()
    };
    let mut host_ms = Vec::with_capacity(REPS);
    let mut report = None;
    for _ in 0..REPS {
        let started = Instant::now();
        let r = fuzz_schedules(&opts, |_| {});
        host_ms.push(started.elapsed().as_secs_f64() * 1e3);
        report = Some(r);
    }
    let report = report.expect("at least one rep ran");
    assert!(report.is_green(), "{name}: a permuted schedule broke or the specimen went blind");
    let r = robust_stats(&host_ms);
    Row {
        name,
        host_median_ms: r.median,
        host_mad_ms: r.mad,
        cells: report.cells.len(),
        deepest: 0,
        targeted_wins: 0,
    }
}

fn main() {
    // Faulted attempts are allowed to panic (recovery catches them and
    // the search scores the outcome) — keep the default hook from
    // spraying backtraces over the bench output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let rows = [
        measure_search("search_budget32", 32, 8),
        measure_search("search_budget64", 64, 12),
        measure_fuzz("fuzz_perms16", 16),
        measure_fuzz("fuzz_perms32", 32),
    ];
    std::panic::set_hook(prev_hook);
    for row in &rows {
        println!(
            "  {:<16} host {:8.3} ms ±{:6.3}  {} cells  deepest rung {}  targeted wins {}",
            row.name,
            row.host_median_ms,
            row.host_mad_ms,
            row.cells,
            row.deepest,
            row.targeted_wins,
        );
    }

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"adversary\",\n");
    writeln!(out, "  \"host_reps\": {REPS},").unwrap();
    out.push_str("  \"configs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"host_median_ms\": {:.4}, \"host_mad_ms\": {:.4}, \
             \"cells\": {}, \"deepest_rung\": {}, \"targeted_wins\": {}}}{}",
            row.name,
            row.host_median_ms,
            row.host_mad_ms,
            row.cells,
            row.deepest,
            row.targeted_wins,
            if i + 1 == rows.len() { "" } else { "," },
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("cannot create results/");
    std::fs::write("results/BENCH_adversary.json", out).expect("cannot write bench record");
    println!("adversary bench: wrote results/BENCH_adversary.json");
}
