//! The paper-shape checks behind `make_tables check`, run on a checked-in
//! copy of the `--size small` matrix. (At `--size test` STREAM is too short
//! for GCC 12.2's loop-exit saving to show, so one check cannot pass.)

use bench::experiments::shape_checks;
use isacmp::ResultMatrix;

/// The copy's identity, as perfbench pins the live `--size small` matrix.
const SMALL_MATRIX_FNV1A64: u64 = 0x3ed6_82cc_015a_85a5;
const SMALL_MATRIX_LEN: usize = 23_003;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn small_matrix_passes_every_paper_shape_check() {
    let text = include_str!("golden/matrix-small.json");
    assert_eq!(text.len(), SMALL_MATRIX_LEN);
    assert_eq!(fnv1a64(text.as_bytes()), SMALL_MATRIX_FNV1A64);
    let m = ResultMatrix::from_json(text).expect("golden matrix parses");
    let rows = shape_checks(&m);
    assert_eq!(rows.len(), 6);
    for (label, pass, detail) in rows {
        assert!(pass, "FAIL {label}: {detail}");
    }
}
