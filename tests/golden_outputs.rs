//! Golden outputs: the `--size test` artifacts `make_tables` writes,
//! regenerated through library calls and compared byte for byte with the
//! copies checked in under `tests/golden/`. Differential tests (live vs
//! replay, legacy vs block engine) cannot see a bug shared by both sides;
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
//! ```

use bench::experiments;
use isacmp::{run_matrix_opts, MatrixOptions, SizeClass, Workload};

fn assert_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
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
    let opts = MatrixOptions { fusion: true, ..Default::default() };
    let m = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts);
    assert!(m.is_complete(), "{}", m.failure_summary());
    assert_golden("matrix-fused.json", &m.to_json());
    assert_golden("fusion.csv", &m.fusion_csv());
}

// `make_tables` prints each report with `println!`, hence the newline.

#[test]
fn mix_report_matches_golden() {
    assert_golden("mix.txt", &format!("{}\n", experiments::mix(SizeClass::Test)));
}

#[test]
fn pipeline_report_matches_golden() {
    assert_golden("pipeline.txt", &format!("{}\n", experiments::pipeline(SizeClass::Test)));
}
