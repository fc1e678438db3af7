//! The product path — the builder's sorted arrays handed straight to
//! the reducer ([`reduced_graph_of_programs`]) — against the raw-CSR
//! path, `reduce(&graph_of_programs(..))`.
//!
//! Both must give the same reduced graph and the same counters. A
//! cyclic trace must fail with the typed [`BuildError::Cycle`] on both
//! paths, never panic.

use llamp_schedgen::{
    alg1_row_count, graph_of_programs, reduce, reduced_graph_of_programs, BuildError, GraphConfig,
    ReduceConfig,
};
use llamp_trace::ProgramSet;
use llamp_workloads::App;

/// Reduce one shape both ways under `rcfg` and compare everything.
fn assert_paths_agree(set: &ProgramSet, rcfg: &ReduceConfig, what: &str) {
    let cfg = GraphConfig::paper();
    let raw = graph_of_programs(set, &cfg).expect("workload builds");
    let want = reduce(&raw, rcfg);
    let got = reduced_graph_of_programs(set, &cfg, rcfg).expect("workload builds");
    assert_eq!(want.stats(), got.stats(), "{what}: stats differ");
    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "{what}: reduced graphs differ"
    );
    // The product path counts the raw graph it never builds.
    assert_eq!(got.stats().vertices_before, raw.num_vertices() as u64);
    assert_eq!(got.stats().edges_before, raw.num_edges() as u64);
    assert_eq!(got.stats().rows_before, alg1_row_count(&raw));
}

#[test]
fn product_path_equals_the_raw_csr_path() {
    for app in App::ALL {
        for (ranks, iters) in [(8, 2), (24, 1)] {
            assert_paths_agree(
                &app.programs(ranks, iters),
                &ReduceConfig::default(),
                &format!("{} r{ranks} i{iters}", app.name()),
            );
        }
    }
}

#[test]
fn cyclic_trace_fails_typed_on_both_reduction_paths() {
    // Both ranks receive before they send: the matched graph is cyclic.
    let set = ProgramSet::spmd(2, |rank, b| {
        let peer = 1 - rank;
        b.recv(peer, 8, 0);
        b.send(peer, 8, 0);
    });
    let cfg = GraphConfig::eager();
    match graph_of_programs(&set, &cfg) {
        Err(BuildError::Cycle) => {}
        other => panic!("raw-CSR path: expected a cycle error, got {other:?}"),
    }
    match reduced_graph_of_programs(&set, &cfg, &ReduceConfig::default()) {
        Err(BuildError::Cycle) => {}
        other => panic!("product path: expected a cycle error, got {other:?}"),
    }
}

/// FNV-1a of a `Debug` image: a stable fingerprint to pin bytes with.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn reduced_graph_bytes_are_pinned() {
    // Both paths above share one reducer, so comparing them cannot see a
    // change to what that reducer returns. These fingerprints can: the
    // reduced graphs and stats are part of every cached result, so
    // moving them needs a new reduction tag in the cache key and new
    // fingerprints here.
    let fingerprint = |x: &dyn std::fmt::Debug| fnv1a(&format!("{x:?}"));
    let pinned = [
        (App::Lulesh, 0x656c_a889_cdb3_73eb_u64),
        (App::Hpcg, 0x6477_1e84_d342_450f),
        (App::Milc, 0xf706_3e66_4ab2_43a8),
        (App::Icon, 0x12f6_67e5_7ce7_b5dd),
        (App::Lammps, 0x67ae_3cb2_e1d8_0c44),
        (App::Openmx, 0xb71f_239f_9d9c_44df),
        (App::Cloverleaf, 0x35d7_eddb_e9d8_8e9f),
    ];
    let cfg = GraphConfig::paper();
    for (app, want) in pinned {
        let got = reduced_graph_of_programs(&app.programs(8, 2), &cfg, &ReduceConfig::default())
            .expect("workload builds");
        assert_eq!(fingerprint(&got), want, "{} r8 i2 moved", app.name());
    }
    // The campaign benchmark's `lp-zones` shapes.
    for (app, want) in [
        (App::Hpcg, 0x75b2_d726_38fc_1315_u64),
        (App::Lulesh, 0x360c_742c_6a7d_2571),
    ] {
        let got = reduced_graph_of_programs(&app.programs(24, 1), &cfg, &ReduceConfig::default())
            .expect("workload builds");
        assert_eq!(fingerprint(&got), want, "{} r24 i1 moved", app.name());
    }

    // Chains-only reductions: the serial-chain contraction's own output
    // (cost bits, vertex order, edge order), with no fold to hide it.
    for (app, ranks, iters, want) in [
        (App::Hpcg, 24, 1, 0x9025_386d_6aa5_4687_u64),
        (App::Openmx, 8, 2, 0x1f48_f275_7112_ead5),
    ] {
        let set = app.programs(ranks, iters);
        let got = reduced_graph_of_programs(&set, &cfg, &ReduceConfig::chains_only())
            .expect("workload builds");
        assert_eq!(
            fingerprint(&got),
            want,
            "{} r{ranks} i{iters} chains-only moved",
            app.name()
        );
    }
}
