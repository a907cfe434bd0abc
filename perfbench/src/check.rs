//! The output check: every product a run delivers is compared with a
//! digest pinned here, and every operation is counted as passed or failed.
//!
//! The pinned values are the paper matrix at `--size small` as this
//! simulator computes it. A change that only makes the program faster must
//! leave every one of them identical. Nothing a run can fail on depends on
//! timing: there are no wall-clock deadlines, no injected faults, and the
//! daemon's admission limit is far above the client count, so on a correct
//! build every operation passes.

use isacmp::ResultMatrix;
use server::{JobOutcome, ProtoError};

/// A byte string's identity: FNV-1a 64 over its bytes, plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub fnv1a64: u64,
    pub len: usize,
}

pub fn digest(bytes: &[u8]) -> Digest {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    Digest {
        fnv1a64: h,
        len: bytes.len(),
    }
}

/// `ResultMatrix::to_json` of the unfused `--size small` matrix: the
/// one-shot product, and what the daemon must serve byte for byte.
pub const UNFUSED_MATRIX: Digest = Digest {
    fnv1a64: 0x3ed6_82cc_015a_85a5,
    len: 23_003,
};

/// `ResultMatrix::to_json` of the `--fusion` `--size small` matrix.
pub const FUSED_MATRIX: Digest = Digest {
    fnv1a64: 0x62b6_6dec_97d5_5fda,
    len: 36_489,
};

/// Instructions retired over all 20 cells at `--size small`: the sum of
/// the matrix's path lengths, fused or not.
pub const TOTAL_RETIRED: u64 = 25_272_978;

/// Check one batch product against its pinned digest.
pub fn check_matrix(matrix: &ResultMatrix, want: Digest) -> Result<(), String> {
    if !matrix.failures.is_empty() {
        return Err(format!(
            "matrix has failed cells: {}",
            matrix.failure_summary()
        ));
    }
    let retired: u64 = matrix.cells.iter().map(|c| c.path_length).sum();
    if retired != TOTAL_RETIRED {
        return Err(format!(
            "{retired} instructions retired, want {TOTAL_RETIRED}"
        ));
    }
    let got = digest(matrix.to_json().as_bytes());
    if got != want {
        return Err(format!("matrix digest {got:x?}, want {want:x?}"));
    }
    Ok(())
}

/// How one daemon job resolved, for the `ok_frac` accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A matrix byte-identical to the reference.
    Ok,
    /// A matrix, but not the reference one.
    Diverged,
    /// Refused by admission control.
    Busy,
    /// No matrix: socket or protocol error, or a draining daemon.
    Transport,
}

pub fn classify_job(outcome: &Result<JobOutcome, ProtoError>, want: Digest) -> Verdict {
    match outcome {
        Ok(JobOutcome::Done { matrix_json, .. }) if digest(matrix_json.as_bytes()) == want => {
            Verdict::Ok
        }
        Ok(JobOutcome::Done { .. }) => Verdict::Diverged,
        Ok(JobOutcome::Busy { .. }) => Verdict::Busy,
        Ok(JobOutcome::Shutdown { .. }) | Err(_) => Verdict::Transport,
    }
}

/// Operations attempted and how they failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub diverged: u64,
    pub busy: u64,
    pub transport: u64,
}

impl Tally {
    pub fn record(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok => {}
            Verdict::Diverged => self.diverged += 1,
            Verdict::Busy => self.busy += 1,
            Verdict::Transport => self.transport += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.diverged + self.busy + self.transport
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed()) as f64 / self.attempted as f64
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.diverged += o.diverged;
        self.busy += o.busy;
        self.transport += o.transport;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: &str = "{\"cells\":[]}";

    fn done(json: &str) -> Result<JobOutcome, ProtoError> {
        Ok(JobOutcome::Done {
            hits: 20,
            misses: 0,
            failures: 0,
            matrix_json: json.into(),
        })
    }

    #[test]
    fn digest_tells_single_byte_changes_apart() {
        let a = digest(REF.as_bytes());
        assert_eq!(a, digest(REF.as_bytes()));
        assert_ne!(a, digest(b"{\"cells\":[ ]}"));
        assert_ne!(a, digest(b"{\"cells\":[]}\n"));
        assert_eq!(digest(b"").fnv1a64, 0xcbf29ce484222325);
    }

    #[test]
    fn only_the_reference_matrix_passes() {
        let want = digest(REF.as_bytes());
        assert_eq!(classify_job(&done(REF), want), Verdict::Ok);
        assert_eq!(
            classify_job(&done("{\"cells\":[{}]}"), want),
            Verdict::Diverged
        );
    }

    #[test]
    fn busy_divergent_and_transport_errors_count_as_failed() {
        let want = digest(REF.as_bytes());
        let mut t = Tally::default();
        for outcome in [
            done(REF),
            done(REF),
            Ok(JobOutcome::Busy {
                active: 64,
                limit: 64,
            }),
            done("{}"),
            Err(ProtoError::Io("connection reset".into())),
            Ok(JobOutcome::Shutdown {
                signal: "SIGTERM".into(),
            }),
        ] {
            t.record(classify_job(&outcome, want));
        }
        assert_eq!((t.attempted, t.busy, t.diverged, t.transport), (6, 1, 1, 2));
        assert_eq!(t.failed(), 4);
        assert!((t.ok_frac() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_clean_run_has_ok_frac_exactly_one() {
        let mut t = Tally::default();
        for _ in 0..250 {
            t.record(Verdict::Ok);
        }
        assert_eq!(t.ok_frac(), 1.0);
        let mut all = Tally::default();
        all.merge(&t);
        all.record(Verdict::Busy);
        assert_eq!((all.attempted, all.failed()), (251, 1));
        assert_eq!(Tally::default().ok_frac(), 0.0);
    }

    #[test]
    fn batch_check_rejects_wrong_totals_and_bytes() {
        let empty = ResultMatrix::default();
        let err = check_matrix(&empty, digest(empty.to_json().as_bytes())).unwrap_err();
        assert!(err.contains("instructions retired"), "{err}");
    }
}
