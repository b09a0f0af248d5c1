//! Integration tests for the `rdbs-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdbs-cli"))
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
        .args(["--gen", "dataset:Amazon:8", "--algo", "cpu-parallel", "--validate"])
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
