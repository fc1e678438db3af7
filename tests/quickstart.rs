//! The README quickstart transcript, held truthful by execution: the
//! deterministic lines of the printed run summary (scenario counts,
//! graph builds, cache hits/misses, campaign fingerprint) are extracted
//! from README.md
//! and compared against a real run of `examples/campaign.toml`. If the
//! example campaign or the engine's accounting changes, this test fails
//! until the README transcript is regenerated.
//!
//! (The `threads:`/`elapsed:` line is machine-dependent and deliberately
//! not asserted.)

use llamp::engine::{run_campaign, CampaignSpec, ExecutorConfig, ResultCache};

fn readme() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap()
}

fn readme_line(prefix: &str) -> String {
    readme()
        .lines()
        .find(|l| l.trim_start().starts_with(prefix))
        .unwrap_or_else(|| panic!("README quickstart lost its '{prefix}' line"))
        .trim()
        .to_string()
}

#[test]
fn readme_quickstart_transcript_matches_a_real_run() {
    let spec = CampaignSpec::parse(
        include_str!("../examples/campaign.toml"),
        "examples/campaign.toml",
    )
    .unwrap();

    // The fingerprint printed in the README's `campaign 'example' (…)`
    // line is the canonical spec hash.
    let fp_line = readme_line("campaign 'example'");
    assert_eq!(
        fp_line,
        format!("campaign 'example' ({:016x})", spec.fingerprint()),
        "README fingerprint is stale"
    );

    let cache = ResultCache::new();
    let (result, summary) = run_campaign(&spec, &ExecutorConfig::default(), &cache);
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));

    // summary.render() = "scenarios: …\ngraphs: …\ncache: …\nthreads: …";
    // the first three lines are deterministic and must appear verbatim in
    // the README.
    let rendered = summary.render();
    for (line, prefix) in rendered.lines().zip(["scenarios:", "graphs:", "cache:"]) {
        assert!(
            line.starts_with(prefix),
            "summary line order changed: {line}"
        );
        assert_eq!(
            readme_line(prefix),
            line,
            "README '{prefix}' transcript line is stale"
        );
    }
}
