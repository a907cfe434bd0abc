//! `load_driver` — concurrent load generator for `isacmpd`.
//!
//! Usage: load_driver --addr HOST:PORT [--clients N] [--requests N]
//!                    [job flags: --size/--retries/--deadline-secs/--inject/
//!                     --campaign/--fusion]
//!                    [--out MATRIX.JSON] [--stats-out STATS.JSON]
//!                    [--min-hit-rate PCT]
//!
//! Spawns `--clients` threads, each submitting the same job spec
//! `--requests` times over its own connection, and reports p50/p99
//! submit-to-result latency (log2 histogram), throughput, and the
//! daemon-side cache hit rate over the run. Every returned matrix must be
//! byte-identical (the provenance-cache invariant); the first one can be
//! written out with `--out` for external comparison against a one-shot
//! `make_tables` run.
//!
//! Exit codes: 0 success; 1 any job failure, matrix divergence, a
//! `--min-hit-rate` miss, or (with `--fail-on-cell-failures`) any failure
//! entry inside a served matrix; 2 usage (including an unknown flag, a
//! flag missing its value or a stray argument). Failure *entries* are otherwise
//! reported but tolerated — a fault campaign produces them by design.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::cli;
use isacmp::telemetry::{json::Json, Histogram};
use server::{Client, JobOutcome, JobSpec};

/// Give up on a single request after this many consecutive busy
/// rejections (the daemon is saturated beyond backoff's help).
const MAX_BUSY_RETRIES: u32 = 200;

/// First busy rejection sleeps around this long ...
const BUSY_BACKOFF_BASE_MS: u64 = 5;

/// ... doubling per consecutive rejection up to this cap.
const BUSY_BACKOFF_CAP_MS: u64 = 250;

/// splitmix64 — the jitter stream (one per client thread, deterministic
/// from the client index, so runs are reproducible but threads never
/// sleep in lockstep).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Capped exponential backoff with full jitter: consecutive rejection
/// `retry` sleeps a uniform random duration in
/// `[base, min(cap, base << retry)]`. Exponential growth drains a
/// saturated admission queue; the jitter keeps the herd from thundering
/// back in phase.
fn busy_backoff(retry: u32, rng: &mut u64) -> Duration {
    let ceil = BUSY_BACKOFF_BASE_MS
        .saturating_mul(1u64 << retry.min(16) as u64)
        .min(BUSY_BACKOFF_CAP_MS);
    let span = ceil.saturating_sub(BUSY_BACKOFF_BASE_MS) + 1;
    Duration::from_millis(BUSY_BACKOFF_BASE_MS + splitmix64(rng) % span)
}

/// Flags taking a value, and bare flags (`--help`/`-h` are handled first).
const VALUED_FLAGS: [&str; 11] = [
    "--addr",
    "--clients",
    "--requests",
    "--size",
    "--retries",
    "--deadline-secs",
    "--inject",
    "--campaign",
    "--out",
    "--stats-out",
    "--min-hit-rate",
];
const BARE_FLAGS: [&str; 2] = ["--fusion", "--fail-on-cell-failures"];

fn usage() -> ! {
    eprintln!(
        "usage: load_driver --addr HOST:PORT [--clients N] [--requests N] \
         [--size NAME] [--retries N] [--deadline-secs S] \
         [--inject SPEC] [--campaign SEED:N] [--fusion] [--out MATRIX.JSON] \
         [--stats-out STATS.JSON] [--min-hit-rate PCT] [--fail-on-cell-failures]"
    );
    std::process::exit(2);
}

fn or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("load_driver: {e}");
        usage();
    })
}

/// Shared tallies across client threads.
#[derive(Default)]
struct Tally {
    latency_us: Mutex<Histogram>,
    ok: AtomicU64,
    /// Transport/submit errors: the job produced no matrix.
    failures: AtomicU64,
    /// Failure entries *inside* served matrices. For a fault campaign
    /// these are the expected outcome, so they are reported separately
    /// and only gated by `--fail-on-cell-failures`.
    cell_failures: AtomicU64,
    busy_rejections: AtomicU64,
    /// Longest consecutive busy-retry streak any single request needed.
    max_busy_streak: AtomicU64,
    /// Cumulative milliseconds slept in busy backoff across all clients.
    backoff_ms: AtomicU64,
    shutdowns: AtomicU64,
    divergent: AtomicU64,
    first_matrix: Mutex<Option<String>>,
}

impl Tally {
    /// Record a served matrix; flags divergence from the first one seen.
    fn record_matrix(&self, matrix_json: &str) {
        let mut first = self
            .first_matrix
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match first.as_deref() {
            None => *first = Some(matrix_json.to_string()),
            Some(seen) if seen == matrix_json => {}
            Some(_) => {
                self.divergent.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn run_client(id: u64, addr: &str, spec: &JobSpec, requests: u64, tally: &Tally) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("load_driver: connect {addr}: {e}");
            tally.failures.fetch_add(requests, Ordering::Relaxed);
            return;
        }
    };
    let mut rng = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x10ad_d21f_e500_0001;
    for _ in 0..requests {
        let mut busy_retries = 0u32;
        loop {
            let t0 = Instant::now();
            match client.submit(spec, |_, _, _, _| {}) {
                Ok(JobOutcome::Done {
                    matrix_json,
                    failures,
                    ..
                }) => {
                    let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    tally
                        .latency_us
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .record(us);
                    tally.record_matrix(&matrix_json);
                    tally.cell_failures.fetch_add(failures, Ordering::Relaxed);
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Ok(JobOutcome::Busy { .. }) => {
                    tally.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    busy_retries += 1;
                    tally
                        .max_busy_streak
                        .fetch_max(busy_retries as u64, Ordering::Relaxed);
                    if busy_retries > MAX_BUSY_RETRIES {
                        tally.failures.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    let sleep = busy_backoff(busy_retries, &mut rng);
                    tally
                        .backoff_ms
                        .fetch_add(sleep.as_millis() as u64, Ordering::Relaxed);
                    std::thread::sleep(sleep);
                }
                Ok(JobOutcome::Shutdown { .. }) => {
                    tally.shutdowns.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(e) => {
                    eprintln!("load_driver: job error: {e}");
                    tally.failures.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cli::has_flag(&args, "--help") || cli::has_flag(&args, "-h") {
        usage();
    }
    or_usage(cli::check_flags(&args, &VALUED_FLAGS, &BARE_FLAGS));
    let Some(addr) = cli::flag_value(&args, "--addr") else {
        eprintln!("load_driver: --addr is required");
        usage();
    };
    let clients: u64 = or_usage(
        cli::flag_value(&args, "--clients")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--clients expects an integer, got '{s}'"))
            })
            .unwrap_or(Ok(8)),
    );
    let requests: u64 = or_usage(
        cli::flag_value(&args, "--requests")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--requests expects an integer, got '{s}'"))
            })
            .unwrap_or(Ok(1)),
    );
    let min_hit_rate: Option<f64> = cli::flag_value(&args, "--min-hit-rate").map(|s| {
        or_usage(
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && (0.0..=100.0).contains(v))
                .ok_or_else(|| format!("--min-hit-rate expects a percentage 0..=100, got '{s}'")),
        )
    });
    let out = cli::flag_value(&args, "--out");
    let stats_out = cli::flag_value(&args, "--stats-out");
    let fail_on_cell_failures = cli::has_flag(&args, "--fail-on-cell-failures");
    let spec = or_usage(JobSpec::from_args(&args));

    // Cache counters are sampled before and after so the reported hit
    // rate covers exactly this run, even against a long-lived daemon.
    let mut probe = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("load_driver: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    let before = probe.stats().unwrap_or_else(|e| {
        eprintln!("load_driver: stats: {e}");
        std::process::exit(1);
    });

    let tally = Arc::new(Tally::default());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let (addr, spec, tally) = (addr.clone(), spec.clone(), Arc::clone(&tally));
            std::thread::spawn(move || run_client(id, &addr, &spec, requests, &tally))
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let wall = t0.elapsed();

    let after = probe.stats().unwrap_or_else(|e| {
        eprintln!("load_driver: stats: {e}");
        std::process::exit(1);
    });
    let d_hits = after.cache_hits.saturating_sub(before.cache_hits);
    let d_misses = after.cache_misses.saturating_sub(before.cache_misses);
    let claims = d_hits + d_misses;
    let hit_rate = if claims == 0 {
        0.0
    } else {
        100.0 * d_hits as f64 / claims as f64
    };

    let hist = tally
        .latency_us
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let ok = tally.ok.load(Ordering::Relaxed);
    let failures = tally.failures.load(Ordering::Relaxed);
    let cell_failures = tally.cell_failures.load(Ordering::Relaxed);
    let busy = tally.busy_rejections.load(Ordering::Relaxed);
    let max_streak = tally.max_busy_streak.load(Ordering::Relaxed);
    let backoff_ms = tally.backoff_ms.load(Ordering::Relaxed);
    let shutdowns = tally.shutdowns.load(Ordering::Relaxed);
    let divergent = tally.divergent.load(Ordering::Relaxed);
    let (p50, p99) = (hist.quantile(0.5), hist.quantile(0.99));
    let throughput = if wall.as_secs_f64() > 0.0 {
        ok as f64 / wall.as_secs_f64()
    } else {
        0.0
    };

    println!(
        "load_driver: {clients} client(s) x {requests} request(s) in {:.2}s",
        wall.as_secs_f64()
    );
    println!("  jobs ok:        {ok} ({throughput:.2} jobs/s)");
    println!("  failures:       {failures}");
    println!("  cell failures:  {cell_failures}");
    println!("  busy retries:   {busy} (max streak {max_streak}, {backoff_ms} ms backed off)");
    println!("  shutdown-ended: {shutdowns}");
    println!("  divergent:      {divergent}");
    println!(
        "  latency us:     p50 {p50}  p99 {p99}  mean {:.0}  max {}",
        hist.mean(),
        hist.max()
    );
    println!("  cache:          {d_hits} hit(s) / {d_misses} miss(es) = {hit_rate:.1}% hit rate");

    if let Some(path) = &out {
        let first = tally
            .first_matrix
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match first.as_deref() {
            Some(matrix) => {
                if let Err(e) = std::fs::write(path, matrix) {
                    eprintln!("load_driver: write {path}: {e}");
                    std::process::exit(1);
                }
            }
            None => eprintln!("load_driver: no matrix served; {path} not written"),
        }
    }

    if let Some(path) = &stats_out {
        let stats = Json::obj(vec![
            ("clients", Json::Num(clients as f64)),
            ("requests_per_client", Json::Num(requests as f64)),
            ("jobs_ok", Json::Num(ok as f64)),
            ("failures", Json::Num(failures as f64)),
            ("cell_failures", Json::Num(cell_failures as f64)),
            ("busy_rejections", Json::Num(busy as f64)),
            ("busy_max_streak", Json::Num(max_streak as f64)),
            ("backoff_sleep_ms", Json::Num(backoff_ms as f64)),
            ("shutdowns", Json::Num(shutdowns as f64)),
            ("divergent_matrices", Json::Num(divergent as f64)),
            ("p50_latency_us", Json::Num(p50 as f64)),
            ("p99_latency_us", Json::Num(p99 as f64)),
            ("mean_latency_us", Json::Num(hist.mean())),
            ("throughput_jobs_per_sec", Json::Num(throughput)),
            ("cache_hits", Json::Num(d_hits as f64)),
            ("cache_misses", Json::Num(d_misses as f64)),
            ("cache_hit_rate", Json::Num(hit_rate)),
            ("server_jobs_total", Json::Num(after.jobs_total as f64)),
            ("wall_secs", Json::Num(wall.as_secs_f64())),
        ]);
        let mut text = stats.pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("load_driver: write {path}: {e}");
            std::process::exit(1);
        }
    }
    let _ = std::io::stdout().flush();

    let mut bad = false;
    if failures > 0 {
        eprintln!("load_driver: FAIL: {failures} job failure(s)");
        bad = true;
    }
    if fail_on_cell_failures && cell_failures > 0 {
        eprintln!("load_driver: FAIL: {cell_failures} failed cell(s) in served matrices");
        bad = true;
    }
    if divergent > 0 {
        eprintln!("load_driver: FAIL: {divergent} divergent matrix result(s)");
        bad = true;
    }
    if let Some(min) = min_hit_rate {
        if hit_rate < min {
            eprintln!("load_driver: FAIL: hit rate {hit_rate:.1}% below required {min:.1}%");
            bad = true;
        }
    }
    std::process::exit(if bad { 1 } else { 0 });
}
