//! Integration tests for the `rdbs-cli` binary.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdbs-cli"))
}

/// The CLI's exit code, output discarded. A run still going after 30 s
/// is killed and fails the test, so a hang cannot stall the suite.
fn exit_code(args: &[&str]) -> Option<i32> {
    let mut child =
        cli().args(args).stdout(Stdio::null()).stderr(Stdio::null()).spawn().expect("cli must run");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("cli must be waitable") {
            return status.code();
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("rdbs-cli {args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn generates_runs_and_validates() {
    let out = cli()
        .args(["--gen", "kronecker:10:8", "--algo", "rdbs", "--validate", "--profile"])
        .output()
        .expect("cli must run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("graph: 1024 vertices"));
    assert!(stdout.contains("validation: OK"));
    assert!(stdout.contains("profile[BASYN+PRO+ADWL]"));
    assert!(stdout.contains("simulated"));
}

#[test]
fn loads_dimacs_file() {
    let dir = std::env::temp_dir().join("rdbs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.gr");
    std::fs::write(&path, "c tiny\np sp 3 2\na 1 2 7\na 2 3 5\n").unwrap();
    let out = cli()
        .args([
            "--load",
            path.to_str().unwrap(),
            "--format",
            "dimacs",
            "--algo",
            "dijkstra",
            "--print-dist",
            "3",
        ])
        .output()
        .expect("cli must run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dist[0..3] = [0, 7, 12]"), "stdout: {stdout}");
}

#[test]
fn dataset_standin_and_cpu_algo() {
    let out = cli()
        .args(["--gen", "dataset:Amazon:8", "--algo", "pq-delta", "--validate"])
        .output()
        .expect("cli must run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validation: OK"));
}

#[test]
fn rejects_unknown_flags_and_missing_input() {
    let out = cli().args(["--gen", "kronecker:8:4", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli().args(["--algo", "rdbs"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--gen or --load"));
}

#[test]
fn chaos_rejects_unknown_fault_model_and_names_the_valid_ones() {
    let out = cli().args(["chaos", "--model", "nope"]).output().unwrap();
    assert!(!out.status.success(), "an unknown fault model must not run a sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown fault model 'nope'"), "stderr: {stderr}");
    for name in ["bit-flip", "dropped-atomic", "stale-read", "failed-child-launch"] {
        assert!(stderr.contains(name), "valid model '{name}' missing from: {stderr}");
    }
    // The adversarial mode shares the typo check.
    let out = cli().args(["chaos", "--adversarial", "--model", "nope"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fault model"));
}

#[test]
fn chaos_adversarial_writes_a_replayable_corpus() {
    let dir = std::env::temp_dir().join("rdbs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.txt");
    let out = cli()
        .args([
            "chaos",
            "--adversarial",
            "--quick",
            "--entry",
            "gpu/refault",
            "--graph",
            "erdos",
            "--seed",
            "3",
            "--budget",
            "32",
            "--corpus-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("cli must run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no silent wrong answers"), "stdout: {stdout}");
    let corpus = std::fs::read_to_string(&path).unwrap();
    assert!(corpus.contains("entry=gpu/refault"), "corpus: {corpus}");
    assert!(corpus.contains("cap="), "corpus lines must record the injection cap: {corpus}");
}

#[test]
fn fuzz_schedules_quick_run_is_green() {
    let out = cli()
        .args(["fuzz-schedules", "--quick", "--entry", "gpu/full", "--perms", "2"])
        .output()
        .expect("cli must run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("specimen alive"), "stdout: {stdout}");
}

/// `--quick` narrows every sweep, so leaving it off reaches the full
/// one — here the fuzzer's five families instead of the quick two.
#[test]
fn fuzz_schedules_without_quick_runs_the_full_sweep() {
    let runs = |quick: bool| {
        let mut args = vec!["fuzz-schedules", "--entry", "gpu/full", "--perms", "1"];
        if quick {
            args.push("--quick");
        }
        let out = cli().args(&args).output().expect("cli must run");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let runs = stdout.lines().find_map(|l| {
            l.strip_prefix("fuzz-schedules: ")?.split(' ').next()?.parse::<usize>().ok()
        });
        runs.unwrap_or_else(|| panic!("no run count in: {stdout}"))
    };
    assert!(runs(false) > runs(true), "the full sweep ran no more cells than --quick");
}

#[test]
fn t4_device_and_seed_flags() {
    let out = cli()
        .args(["--gen", "erdos:500:2000", "--algo", "adds", "--device", "T4", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ADDS"));
}

/// Run mode answers one source; `--sources` belongs to `serve`.
#[test]
fn run_mode_rejects_sources() {
    assert_eq!(exit_code(&["--gen", "kronecker:8:4", "--sources", "4"]), Some(2));
}

/// `verify`, `sanitize` and `analyze` draw no seeded stream, so a
/// `--seed` there is a usage error rather than a silent no-op.
#[test]
fn seedless_sweeps_reject_seed() {
    for sweep in ["verify", "sanitize", "analyze"] {
        let args = [sweep, "--quick", "--entry", "gpu/full", "--graph", "erdos", "--seed", "3"];
        assert_eq!(exit_code(&args), Some(2), "{sweep} accepted --seed");
    }
}

#[test]
fn rdbs_algo_honours_delta0() {
    let profile = |delta: &str| {
        let args = ["--gen", "kronecker:10:8", "--algo", "rdbs", "--profile", "--delta0"];
        let out = cli().args(args).arg(delta).output().expect("cli must run");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.contains("profile["));
        line.unwrap_or_else(|| panic!("no rdbs profile in: {stdout}")).to_string()
    };
    assert_ne!(profile("1"), profile("1000"), "the bucket width never reached the device");
}

/// Δ = 0 never advances a bucket window: every mode that reads
/// `--delta0` rejects it up front instead of panicking or spinning.
#[test]
fn delta0_zero_is_a_usage_error_in_every_mode() {
    let cases: [&[&str]; 5] = [
        &["--gen", "erdos:300:1500", "--algo", "delta-stepping", "--delta0", "0"],
        &["--gen", "erdos:300:1500", "--algo", "rdbs", "--delta0", "0"],
        &["serve", "--quick", "--backend", "rdbs", "--delta0", "0"],
        &["verify", "--quick", "--impl", "gpu/full", "--delta0", "0"],
        &["chaos", "--quick", "--delta0", "0"],
    ];
    for args in cases {
        assert_eq!(exit_code(args), Some(2), "rdbs-cli {args:?}");
    }
}

#[test]
fn serve_quick_batch_is_green() {
    let out = cli()
        .args(["serve", "--quick", "--sources", "8", "--streams", "2", "--validate"])
        .output()
        .expect("cli must run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validation: OK — all 8 queries match Dijkstra"), "stdout: {stdout}");
    assert!(stdout.contains("serve: OK — one upload served 8 queries"), "stdout: {stdout}");
    let rungs = "certified: 8 device, 0 repair, 0 rerun, 0 host, 0 cache; 0 failed audit(s)";
    assert!(stdout.contains(rungs), "stdout: {stdout}");
}

/// Flags a mode does not read, values it cannot serve, and retired
/// engine names are usage errors (exit 2).
#[test]
fn serve_and_verify_usage_errors() {
    let cases: [&[&str]; 21] = [
        &["serve", "--quick", "--streams", "0"],
        &["serve", "--quick", "--queue-capacity", "0"],
        &["serve", "--quick", "--backend", "bl", "--frontier", "mlmq"],
        &["serve", "--quick", "--backend", "multi-gpu:2"],
        &["serve", "--quick", "--backend", "bl"],
        &["--gen", "erdos:300:1500", "--algo", "multi-gpu:2"],
        &["--gen", "erdos:300:1500", "--algo", "near-far"],
        &["--gen", "erdos:300:1500", "--algo", "cpu-parallel"],
        &["--gen", "erdos:300:1500", "--algo", "cpu-async"],
        &["--gen", "erdos:300:1500", "--algo", "dial"],
        &["serve", "--load", "x"],
        &["verify", "--device", "T4"],
        // Traffic knobs out of range: a zero dwell would flip the MMPP
        // phase at t = 0 forever, a zero or negative rate has no
        // exponential draw, and a NaN SLO has no deadline order.
        &["serve", "--quick", "--arrivals", "mmpp", "--dwell-ms", "0", "--sources", "8"],
        &["serve", "--quick", "--arrivals", "mmpp", "--fast-qps", "inf"],
        &["serve", "--quick", "--arrivals", "poisson", "--qps", "0"],
        &["serve", "--quick", "--arrivals", "poisson", "--qps", "-3"],
        &["serve", "--quick", "--arrivals", "poisson", "--qps", "NaN"],
        &["serve", "--quick", "--arrivals", "poisson", "--slo-ms", "NaN"],
        &["serve", "--quick", "--arrivals", "poisson", "--slo-ms", "0"],
        &["serve", "--quick", "--arrivals", "poisson", "--shed-margin", "-1"],
        &["serve", "--quick", "--arrivals", "poisson", "--shed-margin", "inf"],
    ];
    for args in cases {
        assert_eq!(exit_code(args), Some(2), "rdbs-cli {args:?}");
    }
    // A bucket width for an engine that takes none is refused, and the
    // error names the engine.
    let widthless: [&[&str]; 4] = [
        &["--gen", "erdos:300:1500", "--algo", "bl", "--delta0", "5"],
        &["--gen", "erdos:300:1500", "--algo", "dijkstra", "--delta0", "5"],
        &["--gen", "erdos:300:1500", "--algo", "bellman-ford", "--delta0", "5"],
        &["--gen", "erdos:300:1500", "--algo", "pq-delta", "--delta0", "5"],
    ];
    for args in widthless {
        let out = cli().args(args).output().expect("cli must run");
        assert_eq!(out.status.code(), Some(2), "rdbs-cli {args:?}");
        let engine = args[args.len() - 3];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(engine), "rdbs-cli {args:?} did not name {engine}: {stderr}");
    }
    // `--algo all` still hands the width to the engines that read it.
    let all = ["--gen", "erdos:300:1500", "--algo", "all", "--device", "TINY", "--delta0", "5"];
    assert_eq!(exit_code(&all), Some(0));
}
