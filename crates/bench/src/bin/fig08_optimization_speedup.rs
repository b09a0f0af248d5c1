//! Fig. 8 — speedup of each optimization combination over the BL
//! baseline on the six evaluation graphs.
//!
//! Paper: BASYN+PRO 1.36–9.97×, BASYN+ADWL 1.47–45.88×,
//! BASYN+PRO+ADWL 1.38–53.44× over BL, with the largest wins on
//! k-n21-16 and the smallest on road-TX.

use rdbs_bench::{average_gpu, pick_sources, HarnessArgs, Table};
use rdbs_core::gpu::Variant;
use rdbs_graph::datasets::fig8_suite;

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Fig. 8 — optimization speedups over BL ({} | scale-shift {} | {} sources)\n",
        args.device.name, args.scale_shift, args.sources
    );
    let variants = Variant::fig8_variants();
    let mut t = Table::new(&["dataset", "BL ms", "BASYN+PRO", "BASYN+ADWL", "BASYN+PRO+ADWL"]);
    for spec in fig8_suite() {
        let g = spec.generate(args.scale_shift, args.seed);
        let sources = pick_sources(&g, args.sources, args.seed);
        let mut cells = vec![spec.name.to_string()];
        let (bl_ms, _, _) = average_gpu(&g, &sources, variants[0], args.device.clone());
        cells.push(format!("{bl_ms:.3}"));
        for &v in &variants[1..] {
            let (ms, _, run) = average_gpu(&g, &sources, v, args.device.clone());
            // Sanity: every variant must produce correct distances.
            assert!(
                rdbs_core::validate::audit_sssp(&g, run.result.source, &run.result.dist).is_clean(),
                "variant produced wrong distances"
            );
            cells.push(format!("{:.2}x", bl_ms / ms));
        }
        t.row(cells);
        eprintln!("  done {}", spec.name);
    }
    t.print();
    println!("\n(paper: BASYN+PRO avg 5.15x, BASYN+ADWL avg 16.37x, full avg 19.60x; road-TX smallest, k-n21-16 largest)");
}
