//! Properties of the adversarial placement search. The search is a
//! pure function of `(seed, budget, max_evals)`: scouting, the opening
//! book, mutation and the uniform baseline all draw from seeded
//! splitmix64 streams, and the simulator underneath is sequential. So
//! the same options must render a byte-identical corpus every run, and
//! every corpus line must replay — through `parse_corpus_line` and a
//! fresh device — to exactly the score and verdict it recorded.

use proptest::prelude::*;
use rdbs_conformance::{
    corpus_lines, parse_corpus_line, replay_case, run_adversary, CorpusCase, SweepOptions,
};

fn opts(entry: &str, budget: u64, seed: u64) -> SweepOptions {
    SweepOptions {
        quick: true,
        entry_filter: Some(entry.into()),
        graph_filter: Some("erdos".into()),
        budget,
        max_evals: 6,
        seeds: vec![seed],
        corpus_keep: 3,
        ..SweepOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn search_renders_byte_identical_corpus_per_seed_and_budget(
        entry_pick in 0usize..2,
        budget in 8u64..48,
        seed in 0u64..1000,
    ) {
        let entry = ["gpu/full", "gpu/refault"][entry_pick];
        let o = opts(entry, budget, seed);
        let a = run_adversary(&o, |_| {});
        let b = run_adversary(&o, |_| {});
        prop_assert_eq!(corpus_lines(&a), corpus_lines(&b));
        prop_assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            prop_assert_eq!(x.best_targeted, y.best_targeted);
            prop_assert_eq!(x.best_uniform, y.best_uniform);
            prop_assert_eq!(x.silent_wrong, y.silent_wrong);
            // The worst plan itself — not just its score — must agree.
            let worst = |r: &rdbs_conformance::AttackRun| {
                r.corpus.first().map(|c| format!("{:?}", c.spec))
            };
            prop_assert_eq!(worst(x), worst(y));
        }
    }

    #[test]
    fn every_corpus_entry_replays_to_its_recorded_verdict(
        budget in 8u64..40,
        seed in 0u64..1000,
    ) {
        let report = run_adversary(&opts("gpu/refault", budget, seed), |_| {});
        let text = corpus_lines(&report);
        let cases: Vec<CorpusCase> = text.lines().filter_map(parse_corpus_line).collect();
        let kept: usize = report.runs.iter().map(|r| r.corpus.len()).sum();
        prop_assert_eq!(cases.len(), kept, "corpus text dropped cases:\n{}", text);
        for case in &cases {
            let (score, verdict) = replay_case(case).expect("replay target vanished");
            prop_assert_eq!(score, case.score, "score diverged for {:?}", case);
            prop_assert_eq!(verdict, case.verdict, "verdict diverged for {:?}", case);
        }
    }
}
