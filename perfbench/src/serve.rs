//! `serve-small`: an `isacmpd` child process serving the matrix to a
//! closed loop of clients on persistent connections.
//!
//! Set-up starts a daemon with a fresh, empty jobs directory and connects
//! [`CLIENTS`] clients to it. The first job is cold: every cell is
//! computed on the daemon's pool and written to its cache. Every later
//! job is the same spec, so it is served from the cache. Callers of the
//! daemon wait for each reply, hence a closed loop: a client submits its
//! next job only when the previous one has resolved.
//!
//! The end-to-end `wall_s` is the cold job's submit-to-result. Warm
//! latency is reported by the traced run only: on 2-core shared hosts it
//! is bound by the client's JSON parse, whose speed moved twofold with
//! host load between runs of the same code, so it cannot carry a bound.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use isacmp::telemetry::Json;
use isacmp::{CellJournal, ResultMatrix};
use server::{Client, JobSpec, ServerMsg, StatsBody};

use crate::check::{classify_job, Tally, Verdict, TOTAL_RETIRED, UNFUSED_MATRIX};
use crate::layers::{ms, timed, Readings, SIZE};
use crate::stats::{median, percentile};
use crate::{host, set_ups, speed, Ctx, Outcome};

/// Concurrent clients: one per core of the 2-core hosts this benchmark
/// was sized on, far below the daemon's default admission limit of 64.
const CLIENTS: usize = 2;
/// A warm phase runs at least this many jobs, so that p95 has ten or more
/// samples beyond it.
const MIN_WARM_JOBS: usize = 200;
/// Set-ups, each a daemon with one cold job, per untraced run.
const SET_UPS: usize = 4;

/// A running `isacmpd`; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(exe: &Path, jobs_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--jobs-dir")
            .arg(jobs_dir)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        match (read, line.trim().strip_prefix("isacmpd listening on ")) {
            (Ok(_), Some(addr)) => daemon.addr = addr.to_string(),
            _ => return Err(format!("isacmpd did not report its address: {line:?}")),
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(c)
    }

    fn stats(&self) -> Result<StatsBody, String> {
        self.connect()?.stats().map_err(|e| format!("stats: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start a daemon on an empty jobs directory and connect the clients;
/// returns them with the time that took, in s.
fn set_up(ctx: &Ctx, k: usize) -> Result<(Daemon, Vec<Client>, f64), String> {
    let jobs = ctx.tmp.join(format!("jobs-{k}"));
    let start = Instant::now();
    let daemon = Daemon::spawn(&ctx.isacmpd, &jobs)?;
    let clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, clients, start.elapsed().as_secs_f64()))
}

/// One warm job's timeline, in ms from submit.
struct Frames {
    first_progress: f64,
    last_progress: f64,
    result: f64,
}

/// What a warm phase measured.
struct Warm {
    /// Submit-to-result of every job that passed its check, in ms.
    latencies: Vec<f64>,
    frames: Vec<Frames>,
    tally: Tally,
    wall_s: f64,
}

/// The closed loop: every client submits the spec, waits for the result,
/// checks it and submits again, until `seconds` have passed and at least
/// `min_jobs` jobs have resolved. A broken connection is replaced.
fn warm_phase(
    addr: &str,
    clients: &mut [Client],
    seconds: f64,
    min_jobs: usize,
    frames: bool,
) -> Warm {
    let spec = JobSpec::matrix(SIZE);
    let resolved = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<(Vec<f64>, Vec<Frames>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (spec, resolved) = (&spec, &resolved);
                s.spawn(move || {
                    let (mut lat, mut timeline, mut tally) =
                        (Vec::new(), Vec::new(), Tally::default());
                    while start.elapsed().as_secs_f64() < seconds
                        || resolved.load(Ordering::Relaxed) < min_jobs
                    {
                        let t = Instant::now();
                        let (mut first, mut last) = (None, 0.0);
                        let outcome = if frames {
                            client.submit(spec, |_, _, _, _| {
                                let now = ms(t.elapsed());
                                first.get_or_insert(now);
                                last = now;
                            })
                        } else {
                            client.submit(spec, |_, _, _, _| {})
                        };
                        let took = ms(t.elapsed());
                        resolved.fetch_add(1, Ordering::Relaxed);
                        let verdict = classify_job(&outcome, UNFUSED_MATRIX);
                        tally.record(verdict);
                        match verdict {
                            Verdict::Ok => {
                                lat.push(took);
                                if let Some(first) = first {
                                    timeline.push(Frames {
                                        first_progress: first,
                                        last_progress: last,
                                        result: took,
                                    });
                                }
                            }
                            Verdict::Transport => match Client::connect(addr) {
                                Ok(c) => *client = c,
                                Err(e) => {
                                    eprintln!("perfbench: reconnect failed: {e}");
                                    break;
                                }
                            },
                            Verdict::Busy => std::thread::sleep(Duration::from_millis(5)),
                            Verdict::Diverged => eprintln!("perfbench: served matrix diverged"),
                        }
                    }
                    (lat, timeline, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut warm = Warm {
        latencies: Vec::new(),
        frames: Vec::new(),
        tally: Tally::default(),
        wall_s: start.elapsed().as_secs_f64(),
    };
    for (lat, timeline, tally) in parts {
        warm.latencies.extend(lat);
        warm.frames.extend(timeline);
        warm.tally.merge(&tally);
    }
    warm
}

/// Exact warm percentile, or an error when too few samples lie beyond it.
fn warm_percentile(warm: &Warm, q: f64) -> Result<f64, String> {
    percentile(&warm.latencies, q).ok_or_else(|| {
        format!(
            "{} warm samples are too few for p{}",
            warm.latencies.len(),
            q * 100.0
        )
    })
}

pub fn serve_small(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    // Each set-up's daemon serves one cold job; the last daemon, its cache
    // now full, serves the warm phase. Cold and warm jobs together last at
    // least `seconds`, except in the traced run, whose warm figures come
    // from a warm phase that alone lasts `seconds`.
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut setups, mut colds, mut cold_cpus, mut scaled) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    // The reference load runs with no daemon up and between cold jobs.
    let mut before = if traced {
        f64::NAN
    } else {
        speed::reference_cpu_s()?
    };
    for k in 0..set_ups(traced, SET_UPS) {
        // The previous daemon is stopped before the next one starts.
        drop(kept.take());
        let (daemon, mut clients, t) = set_up(ctx, k)?;
        setups.push(t);
        let cold_client = (ctx.seed as usize + k) % CLIENTS;
        let daemon_cpu_s = || {
            host::cpu_ms(Some(daemon.pid()))
                .map(|t| t / 1e3)
                .ok_or("cannot read the daemon's CPU time")
        };
        let cpu0 = daemon_cpu_s()?;
        let (cold, t) =
            timed(|| clients[cold_client].submit(&JobSpec::matrix(SIZE), |_, _, _, _| {}));
        let cpu = daemon_cpu_s()? - cpu0;
        tally.record(classify_job(&cold, UNFUSED_MATRIX));
        colds.push(t / 1e3);
        cold_cpus.push(cpu);
        if !traced {
            let after = speed::reference_cpu_s()?;
            scaled.push(speed::scaled(cpu, (before + after) / 2.0));
            before = after;
        }
        let served = match cold {
            Ok(server::JobOutcome::Done { matrix_json, .. }) => matrix_json,
            other => return Err(format!("cold job did not return a matrix: {other:?}")),
        };
        kept = Some((daemon, clients, served));
    }
    let (daemon, mut clients, served) = kept.expect("at least one set-up");
    let jobs_dir = ctx
        .tmp
        .join(format!("jobs-{}", set_ups(traced, SET_UPS) - 1));

    let warm_seconds = if traced {
        ctx.seconds
    } else {
        ctx.seconds - start.elapsed().as_secs_f64()
    };
    let warm = warm_phase(
        &daemon.addr,
        &mut clients,
        warm_seconds,
        MIN_WARM_JOBS,
        false,
    );
    tally.merge(&warm.tally);
    let p50 = warm_percentile(&warm, 0.50)?;
    let p95 = warm_percentile(&warm, 0.95)?;
    let jobs_per_s = warm.latencies.len() as f64 / warm.wall_s;
    let mut out = Outcome::new(tally);
    out.note(format!(
        "cold {colds:.3?} s, daemon CPU {cold_cpus:.2?} s, scaled {scaled:.2?} s; warm: {} jobs in {:.2} s ({jobs_per_s:.1}/s), p50 {p50:.2} ms, p95 {p95:.2} ms; jobs dir filesystem: {}",
        warm.latencies.len(),
        warm.wall_s,
        host::fs_type(&jobs_dir)
    ));
    if !traced {
        out.set("setup_s", median(&setups));
        let norm_cpu_s = median(&scaled);
        out.set("norm_cpu_s", norm_cpu_s);
        out.set("cell_mips", TOTAL_RETIRED as f64 / norm_cpu_s / 1e6);
        out.set(
            "peak_rss_mb",
            host::peak_rss_mb(Some(daemon.pid())).unwrap_or(f64::NAN),
        );
        return Ok(out);
    }

    let mut r = Readings::new();
    r.insert("server.warm_p50_ms", p50);
    r.insert("server.warm_p95_ms", p95);
    r.insert("server.warm_jobs_per_s", jobs_per_s);

    // The same loop again with every progress frame timed.
    let stats0 = daemon.stats()?;
    let (daemon_cpu, client_cpu) = (host::cpu_ms(Some(daemon.pid())), host::cpu_ms(None));
    let traced_warm = warm_phase(&daemon.addr, &mut clients, ctx.seconds, MIN_WARM_JOBS, true);
    let jobs = traced_warm.tally.attempted as f64;
    let per_job = |before: Option<f64>, after: Option<f64>| match (before, after) {
        (Some(b), Some(a)) => (a - b) / jobs,
        _ => f64::NAN,
    };
    r.insert(
        "server.daemon_cpu_ms_per_job",
        per_job(daemon_cpu, host::cpu_ms(Some(daemon.pid()))),
    );
    r.insert(
        "server.client_cpu_ms_per_job",
        per_job(client_cpu, host::cpu_ms(None)),
    );
    let stats1 = daemon.stats()?;
    let (hits, misses) = (
        stats1.cache_hits - stats0.cache_hits,
        stats1.cache_misses - stats0.cache_misses,
    );
    r.insert(
        "server.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.tally.merge(&traced_warm.tally);
    let f = &traced_warm.frames;
    r.insert(
        "server.first_progress_ms",
        median(&f.iter().map(|f| f.first_progress).collect::<Vec<_>>()),
    );
    r.insert(
        "server.result_tail_ms",
        median(
            &f.iter()
                .map(|f| f.result - f.last_progress)
                .collect::<Vec<_>>(),
        ),
    );
    r.insert(
        "trace_overhead_frac",
        warm_percentile(&traced_warm, 0.5)? / p50 - 1.0,
    );
    r.insert(
        "server.busy",
        (warm.tally.busy + traced_warm.tally.busy) as f64,
    );

    let mut connects = Vec::new();
    for _ in 0..20 {
        let (c, t) = timed(|| daemon.connect());
        c?;
        connects.push(t);
    }
    r.insert("server.connect_ms", median(&connects));
    let mut pings = Vec::new();
    for _ in 0..200 {
        let (res, t) = timed(|| clients[0].ping());
        res.map_err(|e| format!("ping: {e}"))?;
        pings.push(t);
    }
    r.insert("server.ping_ms", median(&pings));

    // One client alone: the job time the layers below add up to.
    let serial = warm_phase(&daemon.addr, &mut clients[..1], 0.0, 50, false);
    out.tally.merge(&serial.tally);
    r.insert("server.serial_job_ms", warm_percentile(&serial, 0.5)?);

    frame_layers(&mut r, &served, &jobs_dir)?;
    out.layers(r);
    out.reconcile(
        "server.serial_job_ms",
        &[
            ("telemetry.json_parse_ms", 1.0),
            ("telemetry.progress_parse_ms", 20.0),
            ("tables.to_json_ms", 1.0),
            ("telemetry.json_compact_ms", 1.0),
            ("core.journal_append_ms", 21.0),
        ],
    );
    Ok(out)
}

/// Median time of `f` over `n` calls, in ms.
fn median_ms<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| timed(|| std::hint::black_box(f())).1)
        .collect();
    median(&samples)
}

/// The serialization and journal work of one warm job, each timed alone
/// over the bytes the daemon served: the matrix JSON, the Result frame
/// carrying it, a Progress frame, and a journal record per cell appended
/// on the jobs directory's filesystem.
fn frame_layers(r: &mut Readings, served: &str, jobs_dir: &Path) -> Result<(), String> {
    let matrix = ResultMatrix::from_json(served)?;
    r.insert(
        "tables.from_json_ms",
        median_ms(20, || ResultMatrix::from_json(served)),
    );
    r.insert("tables.to_json_ms", median_ms(20, || matrix.to_json()));

    let result = ServerMsg::Result {
        hits: 20,
        misses: 0,
        failures: 0,
        matrix_json: served.into(),
    };
    let frame = result.to_json();
    r.insert(
        "telemetry.json_compact_ms",
        median_ms(20, || frame.compact()),
    );
    let text = frame.compact();
    r.insert(
        "telemetry.json_parse_ms",
        median_ms(10, || Json::parse(&text)),
    );
    let progress = ServerMsg::Progress {
        done: 1,
        total: 20,
        cell: "STREAM/gcc-9.2/AArch64".into(),
        cached: true,
    }
    .to_json()
    .compact();
    r.insert(
        "telemetry.progress_parse_ms",
        median_ms(1000, || Json::parse(&progress)),
    );

    let path: PathBuf = jobs_dir.join("perfbench-probe.journal.jsonl");
    let mut appends = Vec::new();
    for _ in 0..3 {
        let mut journal =
            CellJournal::create(&path, SIZE.name(), None).map_err(|e| format!("journal: {e}"))?;
        for cell in &matrix.cells {
            let (res, t) = timed(|| journal.record_cell(cell));
            res.map_err(|e| format!("journal: {e}"))?;
            appends.push(t);
        }
    }
    let _ = std::fs::remove_file(&path);
    r.insert("core.journal_append_ms", median(&appends));
    Ok(())
}
