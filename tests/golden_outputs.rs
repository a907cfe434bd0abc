//! Golden outputs: the `--size test` artifacts `make_tables` writes,
//! regenerated through library calls and compared byte for byte with the
//! copies checked in under `tests/golden/`. Differential tests (live vs
//! replay, core vs stepper oracle) cannot see a bug shared by both sides;
//! these pin the numbers themselves.
//!
//! After an intended change to the numbers, regenerate the goldens from
//! the repository root with
//!
//! ```sh
//! cargo run --release -p bench --bin make_tables -- all --size test
//! cp results/{matrix.json,fig1.csv,fig2.csv,windowAverages.txt} tests/golden/
//! cargo run --release -p bench --bin make_tables -- table1 --size test --fusion
//! cp results/matrix.json tests/golden/matrix-fused.json
//! cp results/fusion.csv tests/golden/
//! cargo run --release -p bench --bin make_tables -- mix --size test > tests/golden/mix.txt
//! cargo run --release -p bench --bin make_tables -- pipeline --size test > tests/golden/pipeline.txt
//! cargo run --release -p bench --bin make_tables -- table1 --size test --campaign 65:3
//! cp results/matrix.json tests/golden/matrix-campaign.json
//! cargo run --release -p bench --bin make_tables -- table1 --size test \
//!     --inject 'STREAM/gcc-12.2/RISC-V:read@40:62'
//! cp results/matrix.json tests/golden/matrix-inject.json
//! ```
//!
//! The two faulted matrices pin where injected faults land: which
//! retirement a trap or fetch corruption hits, which read a flip hits,
//! and what each cell's failure then says.

use bench::experiments;
use isacmp::{
    faulted_budget, run_matrix_opts, CampaignManifest, CampaignSpec, FaultKind, InjectSpec,
    MatrixOptions, ResultMatrix, SizeClass, Workload, FAULTED_BUDGET_FACTOR,
};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn assert_golden(name: &str, got: &str) {
    let want = golden(name);
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} differs from its golden copy at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

#[test]
fn unfused_matrix_matches_goldens() {
    let m = run_matrix_opts(&Workload::ALL, SizeClass::Test, &MatrixOptions::default());
    assert!(m.is_complete(), "{}", m.failure_summary());
    assert_golden("matrix.json", &m.to_json());
    assert_golden("fig1.csv", &m.fig1_csv());
    assert_golden("fig2.csv", &m.fig2_csv());
    assert_golden("windowAverages.txt", &m.window_averages_txt());
}

#[test]
fn fused_matrix_matches_goldens() {
    let opts = MatrixOptions {
        fusion: true,
        ..Default::default()
    };
    let m = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts);
    assert!(m.is_complete(), "{}", m.failure_summary());
    assert_golden("matrix-fused.json", &m.to_json());
    assert_golden("fusion.csv", &m.fusion_csv());
}

// `make_tables` prints each report with `println!`, hence the newline.

#[test]
fn mix_report_matches_golden() {
    assert_golden(
        "mix.txt",
        &format!("{}\n", experiments::mix(SizeClass::Test)),
    );
}

#[test]
fn pipeline_report_matches_golden() {
    assert_golden(
        "pipeline.txt",
        &format!("{}\n", experiments::pipeline(SizeClass::Test)),
    );
}

/// `make_tables`'s default of one retry per retryable failure.
const CLI_RETRIES: u32 = 1;

#[test]
fn campaign_matrix_matches_golden() {
    let manifest = CampaignManifest::sample(CampaignSpec {
        seed: 65,
        n_faults: 3,
    });
    let campaign = manifest.campaign().unwrap();
    let has = |want: fn(&FaultKind) -> bool| campaign.plans().iter().any(|p| want(p.kind()));
    assert!(
        has(|k| matches!(k, FaultKind::TrapAt { .. })),
        "schedule has no trap"
    );
    assert!(
        has(|k| matches!(k, FaultKind::CorruptFetch { .. })),
        "schedule has no fetch fault"
    );
    assert!(
        has(|k| matches!(k, FaultKind::FlipRead { .. })),
        "schedule has no read flip"
    );
    let opts = MatrixOptions {
        retries: CLI_RETRIES,
        campaign: Some(campaign),
        ..Default::default()
    };
    let m = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts);
    assert_golden("matrix-campaign.json", &m.to_json());
}

#[test]
fn injected_read_flip_matrix_matches_golden() {
    let inject = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:read@40:62").unwrap();
    let opts = MatrixOptions {
        retries: CLI_RETRIES,
        inject: Some(inject),
        ..Default::default()
    };
    let m = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts);
    assert!(
        !m.is_complete(),
        "the flip must turn its cell into an ERR entry"
    );
    assert_golden("matrix-inject.json", &m.to_json());
}

#[test]
fn faulted_budgets_follow_the_longest_clean_paths() {
    for (size, name) in [
        (SizeClass::Test, "matrix.json"),
        (SizeClass::Small, "matrix-small.json"),
    ] {
        let m = ResultMatrix::from_json(&golden(name)).unwrap();
        let longest = m.cells.iter().map(|c| c.path_length).max().unwrap();
        assert_eq!(
            faulted_budget(size),
            Some(FAULTED_BUDGET_FACTOR * longest),
            "{name}"
        );
    }
    assert_eq!(faulted_budget(SizeClass::Paper), None);
}
