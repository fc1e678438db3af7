//! The reduction's pass spans: each `reduce.*` span reports the live
//! arena it started from (`vertices`, `edges`) and what it changed.
//!
//! The recorder is process-global, so this binary holds the one test
//! that turns it on.

use llamp_obs::FieldValue;
use llamp_schedgen::{reduced_graph_of_programs, GraphConfig, ReduceConfig};
use llamp_workloads::App;

#[test]
fn pass_spans_report_the_live_arena() {
    let set = App::Hpcg.programs(24, 1);
    llamp_obs::enable();
    let reduced = reduced_graph_of_programs(&set, &GraphConfig::paper(), &ReduceConfig::default())
        .expect("hpcg builds");
    let snap = llamp_obs::take();
    llamp_obs::disable();

    let field = |fields: &[(&str, FieldValue)], key: &str| -> u64 {
        match fields.iter().find(|(k, _)| *k == key) {
            Some((_, FieldValue::U64(x))) => *x,
            other => panic!("field {key}: {other:?}"),
        }
    };
    let passes: Vec<(&str, u64, u64, u64)> = snap
        .events
        .iter()
        .filter(|e| e.name.starts_with("reduce.") && e.name != "reduce.finish")
        .map(|e| {
            (
                e.name,
                field(&e.fields, "vertices"),
                field(&e.fields, "edges"),
                field(&e.fields, "changed"),
            )
        })
        .collect();
    // Whole-graph path (13 352 vertices, one arena), three rounds.
    let want = [
        ("reduce.chains", 13_352, 21_104, 5_168),
        ("reduce.folds", 8_184, 15_936, 7_912),
        ("reduce.redundant", 272, 8_024, 6_000),
        ("reduce.chains", 272, 2_024, 0),
        ("reduce.folds", 272, 2_024, 0),
        ("reduce.redundant", 272, 2_024, 40),
        ("reduce.chains", 272, 1_984, 0),
        ("reduce.folds", 272, 1_984, 0),
        ("reduce.redundant", 272, 1_984, 0),
    ];
    assert_eq!(passes, want);
    assert_eq!(reduced.stats().rounds, 3);
}
