//! Table 2 — running time vs the state of the art.
//!
//! Columns match the paper: PQ-Δ* on the CPU (wall clock, native
//! threads), ADDS on the GPU (simulated), RDBS (simulated), with
//! speedups relative to RDBS in parentheses. Paper: RDBS beats PQ-Δ*
//! by 4.5–17.4× and ADDS by 0.91–21× (ADDS wins only on road-TX).

use rdbs_baselines::{default_threads, pq_delta_stepping, run_adds};
use rdbs_bench::{average_gpu, average_ms, pick_sources, time_ms, HarnessArgs, Table};
use rdbs_core::gpu::{RdbsConfig, Variant};
use rdbs_graph::datasets::fig8_suite;

fn main() {
    let args = HarnessArgs::parse();
    let threads = default_threads();
    println!(
        "Table 2 — runtime (ms) vs existing work ({} | scale-shift {} | {} sources | CPU threads {})\n",
        args.device.name, args.scale_shift, args.sources, threads
    );
    let mut t = Table::new(&["graph", "PQ-D* (CPU)", "ADDS (GPU)", "RDBS"]);
    for spec in fig8_suite() {
        let g = spec.generate(args.scale_shift, args.seed);
        let sources = pick_sources(&g, args.sources, args.seed);

        let (rdbs_ms, _, _) =
            average_gpu(&g, &sources, Variant::Rdbs(RdbsConfig::full()), args.device.clone());

        let adds_ms = average_ms(&sources, |s| {
            let run = run_adds(&g, s, args.device.clone());
            run.elapsed_ms
        });

        let pq_ms = average_ms(&sources, |s| {
            let (ms, r) = time_ms(|| pq_delta_stepping(&g, s, threads, None));
            assert_eq!(r.dist[s as usize], 0);
            ms
        });

        t.row(vec![
            spec.name.to_string(),
            format!("{pq_ms:.2} ({:.2}x)", pq_ms / rdbs_ms),
            format!("{adds_ms:.2} ({:.2}x)", adds_ms / rdbs_ms),
            format!("{rdbs_ms:.2}"),
        ]);
        eprintln!("  done {}", spec.name);
    }
    t.print();
    println!("\n(paper: PQ-D* avg 10.32x slower; ADDS 0.91x on road-TX — its only win — up to 21x on k-n21-16)");
    println!(
        "(CPU numbers are wall clock on this host; GPU numbers are simulated-device milliseconds)"
    );
}
