//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints every metric with its unit and clock, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<N>.jsonl`. Exits 1 when any answer is
//! wrong, 2 on a usage error.

use rdbs_perfbench::{run, workload, Clock, Metric, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds {} is not a duration", args.seconds));
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    format!("{{{out}}}")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // A panic anywhere in the run is a failed query: report it and exit
    // non-zero rather than dying without a result line.
    let report = match std::panic::catch_unwind(|| run(w, args.seed, args.seconds, args.trace)) {
        Ok(report) => report,
        Err(_) => {
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench {} seed {}: {} vertices, {} edges, {} offered, {} failed",
        report.workload,
        report.seed,
        report.vertices,
        report.edges,
        report.attempted,
        report.failed
    );
    for (title, metrics) in [("end-to-end", &report.end_to_end), ("per-layer", &report.per_layer)] {
        if title == "per-layer" && !args.trace {
            continue;
        }
        println!("{title}:");
        for m in metrics.iter() {
            let clock = match m.clock {
                Clock::Sim => "sim",
                Clock::Host => "host",
            };
            println!("  {:<32} {:>16.6} {:<10} ({clock})", m.name, m.value, m.unit);
        }
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    if args.trace {
        let path = format!(".bench_trace/{}-seed{}.jsonl", report.workload, report.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, report.tracer.to_jsonl()));
        match written {
            Ok(()) => println!("  spans: {} written to {path}", report.tracer.spans().len()),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }

    let shown = if args.trace { &report.per_layer } else { &report.end_to_end };
    let finite = shown.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
