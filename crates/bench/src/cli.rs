//! Shared CLI flag parsing for every bench and server binary.
//!
//! `run_elf`, `make_tables` and `bench_report` grew three private copies
//! of the same flag grammar (`--size`, `--deadline-secs`, `--inject`,
//! `--campaign`, `--retries`, `--trace-dir`); the `isacmpd`
//! daemon and `load_driver` would have been the fourth and fifth. This
//! module is the single source of truth: the value grammars live here
//! once, and [`MatrixFlags`] bundles the matrix-shaped subset so a job
//! spec built by `load_driver` and a matrix run configured by
//! `make_tables` cannot drift apart.
//!
//! Every parser returns `Result<_, String>` with an actionable message;
//! the bins decide whether that is an `exit(2)` (CLI) or a typed `Error`
//! frame (daemon).

use std::path::PathBuf;
use std::time::Duration;

use isacmp::{CampaignSpec, InjectSpec, SizeClass};

/// The value following `flag`, when present (`--flag value` style).
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Is the bare flag present?
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Check `args` against a binary's flag grammar: each `--flag` must be in
/// `valued` (and be followed by its value) or in `bare`, where an entry
/// ending in `=` admits `--flag=VALUE` forms. Anything else — an unknown
/// flag, a missing value, a stray positional — is an error, so a typo
/// fails instead of silently running with defaults.
pub fn check_flags(args: &[String], valued: &[&str], bare: &[&str]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            if it.next().is_none() {
                return Err(format!("{a} needs a value"));
            }
        } else if !bare
            .iter()
            .any(|b| a == b || (b.ends_with('=') && a.starts_with(b)))
        {
            return Err(if a.starts_with("--") {
                format!("unknown flag {a:?}")
            } else {
                format!("unexpected argument {a:?}")
            });
        }
    }
    Ok(())
}

/// Parse a size-class name (`test`, `small`, `paper`).
pub fn size_from_name(name: &str) -> Result<SizeClass, String> {
    match name {
        "test" => Ok(SizeClass::Test),
        "small" => Ok(SizeClass::Small),
        "paper" => Ok(SizeClass::Paper),
        other => Err(format!(
            "unknown size {other:?}; one of: test, small, paper"
        )),
    }
}

/// Parse `--size` (default [`SizeClass::Small`], matching every bin's
/// historical default).
pub fn parse_size(args: &[String]) -> Result<SizeClass, String> {
    match flag_value(args, "--size") {
        Some(name) => size_from_name(&name),
        None => Ok(SizeClass::Small),
    }
}

/// Parse a `--deadline-secs` value (fractional seconds). The checked
/// conversion rejects what a `Duration` cannot hold: negative, NaN,
/// infinite, and finite but too large (`1e30`).
pub fn deadline_from_secs(s: &str) -> Result<Duration, String> {
    s.parse::<f64>()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .ok_or_else(|| format!("bad --deadline-secs value {s:?}: expected seconds"))
}

/// Parse `--deadline-secs`, if given.
pub fn parse_deadline(args: &[String]) -> Result<Option<Duration>, String> {
    flag_value(args, "--deadline-secs")
        .map(|s| deadline_from_secs(&s))
        .transpose()
}

/// Parse `--retries` (defaulting to `default` — one retry for matrix
/// runs: transient upsets get a second chance, deterministic failures
/// never retry).
pub fn parse_retries(args: &[String], default: u32) -> Result<u32, String> {
    match flag_value(args, "--retries") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --retries value {s:?}: expected a small integer")),
        None => Ok(default),
    }
}

/// Parse `--inject workload/compiler/isa:fault` (matrix-style targeted
/// injection), if given.
pub fn parse_inject(args: &[String]) -> Result<Option<InjectSpec>, String> {
    flag_value(args, "--inject")
        .map(|s| InjectSpec::parse(&s))
        .transpose()
}

/// Parse `--campaign <seed>:<n-faults>` into its spec (sampling the
/// schedule — and writing the manifest — stays with the caller), if given.
pub fn parse_campaign_spec(args: &[String]) -> Result<Option<CampaignSpec>, String> {
    flag_value(args, "--campaign")
        .map(|s| CampaignSpec::parse(&s))
        .transpose()
}

/// Parse `--trace-dir`, if given. Directory creation stays with the
/// caller (the daemon creates it once at startup, the CLIs per run).
pub fn parse_trace_dir(args: &[String]) -> Option<PathBuf> {
    flag_value(args, "--trace-dir").map(PathBuf::from)
}

/// Forward `--progress[=N]` to the emulation core's environment knob.
pub fn apply_progress_env(args: &[String]) {
    for a in args {
        if a == "--progress" {
            std::env::set_var("ISACMP_PROGRESS", "1");
        } else if let Some(n) = a.strip_prefix("--progress=") {
            std::env::set_var("ISACMP_PROGRESS", n);
        }
    }
}

/// The matrix-shaped flag set shared by `make_tables`, the `isacmpd` job
/// spec, and `load_driver`: one parse, one meaning, everywhere.
#[derive(Debug, Clone)]
pub struct MatrixFlags {
    /// Problem size class (`--size`, default small).
    pub size: SizeClass,
    /// Per-cell wall-clock watchdog (`--deadline-secs`).
    pub deadline: Option<Duration>,
    /// Per-cell retries for retryable failures (`--retries`, default 1).
    pub retries: u32,
    /// Targeted deterministic fault injection (`--inject`).
    pub inject: Option<InjectSpec>,
    /// Seeded multi-fault campaign spec (`--campaign <seed>:<n>`).
    pub campaign: Option<CampaignSpec>,
    /// Trace capture/replay cache directory (`--trace-dir`).
    pub trace_dir: Option<PathBuf>,
    /// Arm the macro-op fusion pass (`--fusion`): every cell additionally
    /// reports fused pair counts and effective path length.
    pub fusion: bool,
}

impl MatrixFlags {
    /// Parse the matrix flag subset out of `args`.
    pub fn parse(args: &[String]) -> Result<MatrixFlags, String> {
        Ok(MatrixFlags {
            size: parse_size(args)?,
            deadline: parse_deadline(args)?,
            retries: parse_retries(args, 1)?,
            inject: parse_inject(args)?,
            campaign: parse_campaign_spec(args)?,
            trace_dir: parse_trace_dir(args),
            fusion: has_flag(args, "--fusion"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sizes_parse_with_default() {
        assert_eq!(parse_size(&args(&[])).unwrap(), SizeClass::Small);
        assert_eq!(
            parse_size(&args(&["--size", "test"])).unwrap(),
            SizeClass::Test
        );
        assert_eq!(
            parse_size(&args(&["--size", "paper"])).unwrap(),
            SizeClass::Paper
        );
        assert!(parse_size(&args(&["--size", "huge"])).is_err());
    }

    #[test]
    fn matrix_flags_round_up_the_shared_grammar() {
        let f = MatrixFlags::parse(&args(&[
            "--size",
            "test",
            "--deadline-secs",
            "2.5",
            "--retries",
            "2",
            "--inject",
            "STREAM/gcc-12.2/RISC-V:trap@1000",
            "--campaign",
            "7:3",
            "--trace-dir",
            "results/traces",
            "--fusion",
        ]))
        .unwrap();
        assert_eq!(f.size, SizeClass::Test);
        assert_eq!(f.deadline, Some(Duration::from_millis(2500)));
        assert_eq!(f.retries, 2);
        assert!(f.inject.is_some());
        let c = f.campaign.unwrap();
        assert_eq!((c.seed, c.n_faults), (7, 3));
        assert_eq!(
            f.trace_dir.as_deref(),
            Some(std::path::Path::new("results/traces"))
        );
        assert!(f.fusion);
    }

    #[test]
    fn defaults_match_make_tables_historical_behaviour() {
        let f = MatrixFlags::parse(&args(&[])).unwrap();
        assert_eq!(f.size, SizeClass::Small);
        assert_eq!(f.retries, 1);
        assert!(f.deadline.is_none() && f.inject.is_none() && f.campaign.is_none());
        assert!(!f.fusion);
    }

    #[test]
    fn check_flags_admits_the_grammar_and_nothing_else() {
        let check = |a: &[&str]| check_flags(&args(a), &["--size"], &["--strict", "--progress="]);
        assert!(check(&["--size", "test", "--strict", "--progress=5"]).is_ok());
        assert!(check(&["--engine", "legacy"])
            .unwrap_err()
            .contains("unknown flag \"--engine\""));
        assert!(check(&["--size"]).unwrap_err().contains("needs a value"));
        assert!(
            check(&["--progress"]).is_err(),
            "only the `=` form was admitted"
        );
        assert!(check(&["stray"])
            .unwrap_err()
            .contains("unexpected argument"));
    }

    #[test]
    fn bad_values_are_actionable_errors() {
        for bad in ["fast", "-1", "inf", "NaN", "1e30"] {
            assert!(parse_deadline(&args(&["--deadline-secs", bad]))
                .unwrap_err()
                .contains("deadline"));
        }
        assert_eq!(
            parse_deadline(&args(&["--deadline-secs", "2.5"])),
            Ok(Some(Duration::from_millis(2500)))
        );
        assert!(parse_retries(&args(&["--retries", "many"]), 1)
            .unwrap_err()
            .contains("retries"));
        assert!(parse_inject(&args(&["--inject", "nope"])).is_err());
        assert!(parse_campaign_spec(&args(&["--campaign", "x"])).is_err());
    }
}
