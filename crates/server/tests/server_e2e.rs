//! End-to-end daemon tests: an in-process `Server` on a loopback port,
//! driven through the real `Client`.
//!
//! The shutdown flag is process-global, so every test that runs a server
//! serializes behind [`E2E_LOCK`] — a drained test server must not take a
//! concurrently-running one down with it — and builds its one-shot
//! reference under the same lock: the reference heeds the flag too, so
//! another test's drain would truncate it.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Mutex, PoisonError};

use isacmp::{
    matrix_combos, pool, run_matrix_opts, shutdown, CellJournal, MatrixOptions, SizeClass, Workload,
};
use server::proto::write_frame;
use server::{
    Client, ClientMsg, Config, FrameReader, JobOutcome, JobSpec, ReadOutcome, Server, ServerMsg,
};

static E2E_LOCK: Mutex<()> = Mutex::new(());

/// A unique scratch dir per test (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isacmpd-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// What a one-shot `make_tables table1 --size test` run would produce —
/// the byte-identity reference for daemon-served matrices.
fn one_shot_reference() -> String {
    let opts = MatrixOptions {
        retries: 1,
        heed_shutdown: true,
        ..Default::default()
    };
    run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts).to_json()
}

/// Boot a server, run `f` against it, then drain it and restore the
/// global shutdown flag.
fn with_server(cfg: Config, f: impl FnOnce(SocketAddr)) {
    with_reference(cfg, |_| (), |addr, ()| f(addr));
}

/// [`with_server`] with a reference built first, under [`E2E_LOCK`] and
/// with the shutdown flag clear. `reference` runs before the server
/// binds, so it can also seed the jobs dir (a warm artifact, a journal).
fn with_reference<R>(
    cfg: Config,
    reference: impl FnOnce(&Config) -> R,
    f: impl FnOnce(SocketAddr, R),
) {
    let _guard = E2E_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    shutdown::reset();
    let r = reference(&cfg);
    let srv = Server::bind(cfg).expect("bind loopback");
    let addr = srv.local_addr().expect("bound addr");
    let handle = std::thread::spawn(move || srv.run());
    f(addr, r);
    shutdown::request();
    assert_eq!(
        handle.join().expect("server thread"),
        0,
        "drain must exit 0"
    );
    shutdown::reset();
}

fn test_config(tag: &str) -> Config {
    Config {
        jobs_dir: scratch(tag),
        max_jobs: 8,
        drain_timeout: std::time::Duration::from_secs(2),
        ..Config::default()
    }
}

fn expect_done(outcome: JobOutcome) -> (u64, u64, u64, String) {
    match outcome {
        JobOutcome::Done {
            hits,
            misses,
            failures,
            matrix_json,
        } => (hits, misses, failures, matrix_json),
        other => panic!("expected a served matrix, got {other:?}"),
    }
}

/// Submit `spec` and check its progress stream: the callback must see
/// `done` = 1..=total, each exactly once and in order, whatever path
/// (journal, cache, pool, follower) resolved each cell. Returns the
/// outcome and how many frames were marked cached.
fn submit_checked(client: &mut Client, spec: &JobSpec) -> (JobOutcome, u64) {
    let total_cells = matrix_combos(&Workload::ALL).len() as u64;
    let mut seen = Vec::new();
    let mut cached_frames = 0u64;
    let outcome = client
        .submit(spec, |done, total, cell, cached| {
            assert_eq!(total, total_cells);
            assert!(!cell.is_empty());
            seen.push(done);
            cached_frames += cached as u64;
        })
        .expect("submit");
    if matches!(outcome, JobOutcome::Done { .. }) {
        let want: Vec<u64> = (1..=total_cells).collect();
        assert_eq!(seen, want, "one progress frame per cell, done = 1..=total");
    }
    (outcome, cached_frames)
}

#[test]
fn served_matrix_is_byte_identical_to_one_shot_run() {
    with_reference(
        test_config("byte-identity"),
        |_| one_shot_reference(),
        |addr, reference| {
            let mut client = Client::connect(&addr.to_string()).expect("connect");
            let total_cells = matrix_combos(&Workload::ALL).len() as u64;
            let (outcome, _) = submit_checked(&mut client, &JobSpec::matrix(SizeClass::Test));
            let (hits, misses, failures, matrix_json) = expect_done(outcome);
            assert_eq!(failures, 0);
            assert_eq!(hits + misses, total_cells);
            assert_eq!(matrix_json, reference, "daemon bytes == one-shot bytes");
        },
    );
}

#[test]
fn repeated_submissions_are_served_from_the_cache() {
    with_server(test_config("cache-hits"), |addr| {
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let spec = JobSpec::matrix(SizeClass::Test);
        let total = matrix_combos(&Workload::ALL).len() as u64;

        let (hits, misses, _, first) = expect_done(submit_checked(&mut client, &spec).0);
        assert_eq!((hits, misses), (0, total), "cold cache: all misses");

        let (outcome, cached_frames) = submit_checked(&mut client, &spec);
        let (hits, misses, _, second) = expect_done(outcome);
        assert_eq!((hits, misses), (total, 0), "warm cache: all hits");
        assert_eq!(cached_frames, total, "every progress frame marked cached");
        assert_eq!(first, second, "cached bytes == computed bytes");

        let mut probe = Client::connect(&addr.to_string()).expect("connect");
        let stats = probe.stats().expect("stats");
        assert_eq!(stats.jobs_total, 2);
        assert_eq!(stats.cache_cells, total);
        assert_eq!(stats.cache_hits, total);
        assert_eq!(stats.cache_misses, total);
    });
}

#[test]
fn warm_start_serves_a_one_shot_artifact_without_recomputing() {
    let mut cfg = test_config("warm-start");
    cfg.warm = Some(cfg.jobs_dir.join("matrix.json"));
    cfg.warm_size = SizeClass::Test;
    let reference = |cfg: &Config| {
        let reference = one_shot_reference();
        std::fs::write(cfg.warm.as_ref().unwrap(), &reference).expect("write artifact");
        reference
    };
    with_reference(cfg, reference, |addr, reference| {
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let total = matrix_combos(&Workload::ALL).len() as u64;
        let (hits, misses, _, served) =
            expect_done(submit_checked(&mut client, &JobSpec::matrix(SizeClass::Test)).0);
        assert_eq!((hits, misses), (total, 0), "warm cache: nothing recomputed");
        assert_eq!(served, reference);
    });
}

/// FNV-1a, matching the daemon's journal file naming (the algorithm is
/// pinned by `job_spec_canonical_is_stable_and_discriminating` plus this
/// test: together they freeze the journal-recovery contract).
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn restarted_daemon_recovers_a_killed_jobs_journal() {
    // Simulate the kill -9 lifecycle: a journal holding every cell of a
    // previous run sits in the jobs dir; a *fresh* daemon (cold cache)
    // receiving the same spec must serve entirely from the journal —
    // zero cells recomputed — and produce the exact one-shot bytes.
    let cfg = test_config("journal-recovery");
    let spec = JobSpec::matrix(SizeClass::Test);
    let journal_path = cfg.jobs_dir.join(format!(
        "job-{:016x}.journal.jsonl",
        fnv1a64(&spec.canonical())
    ));
    let reference = |_: &Config| {
        let opts = MatrixOptions {
            retries: 1,
            heed_shutdown: true,
            ..Default::default()
        };
        let reference_matrix = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts);
        let mut journal = CellJournal::create(&journal_path, SizeClass::Test.name(), None)
            .expect("create journal");
        for cell in &reference_matrix.cells {
            journal.record_cell(cell).expect("record");
        }
        reference_matrix
    };

    with_reference(cfg, reference, |addr, reference_matrix| {
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let total = matrix_combos(&Workload::ALL).len() as u64;
        let (outcome, recovered) = submit_checked(&mut client, &spec);
        let (hits, misses, failures, served) = expect_done(outcome);
        assert_eq!(recovered, total, "every cell recovered from the journal");
        assert_eq!(
            (hits, misses, failures),
            (0, 0, 0),
            "nothing computed, nothing cached"
        );
        assert_eq!(
            served,
            reference_matrix.to_json(),
            "recovered bytes == one-shot bytes"
        );
    });
    assert!(
        !journal_path.exists(),
        "a cleanly completed job retires its journal"
    );
}

#[test]
fn a_client_that_hangs_up_mid_job_leaves_no_journal_behind() {
    // Client A submits, reads one progress frame and hangs up, so the
    // daemon fails to send it a later frame and its job ends early. Client
    // B then runs the same spec to its result: that clean completion must
    // retire the journal, however the earlier holder of it left.
    let cfg = test_config("hang-up");
    let jobs_dir = cfg.jobs_dir.clone();
    let spec = JobSpec::matrix(SizeClass::Test);
    with_server(cfg, |addr| {
        let mut a = TcpStream::connect(addr).expect("connect");
        let submit = ClientMsg::Submit { job: spec.clone() };
        write_frame(&mut a, &submit.to_json()).expect("submit");
        let mut reader = FrameReader::new();
        let first = loop {
            match reader.poll(&mut a).expect("read") {
                ReadOutcome::Frame(j) => break ServerMsg::from_json(&j).expect("frame"),
                ReadOutcome::Idle => continue,
                ReadOutcome::Closed => panic!("daemon closed before any progress"),
            }
        };
        assert!(matches!(first, ServerMsg::Progress { .. }), "{first:?}");
        drop(a);

        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while client.stats().expect("stats").jobs_active > 0 {
            assert!(std::time::Instant::now() < deadline, "A's job never ended");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (_, _, failures, _) = expect_done(submit_checked(&mut client, &spec).0);
        assert_eq!(failures, 0);
    });
    let left: Vec<_> = std::fs::read_dir(&jobs_dir)
        .expect("jobs dir")
        .map(|e| e.expect("entry").file_name())
        .filter(|name| name.to_string_lossy().ends_with(".journal.jsonl"))
        .collect();
    assert!(left.is_empty(), "journals left behind: {left:?}");
}

#[test]
fn fused_and_unfused_jobs_never_share_cache_slots() {
    // Same size, opposite fusion axis: the daemon must key the
    // two apart (distinct CellKeys, distinct canonical/journal identities)
    // and a fused submission after a warm unfused one must recompute every
    // cell — a cross-contaminated hit would serve unfused bytes as fused.
    let fused_reference = |_: &Config| {
        let opts = MatrixOptions {
            retries: 1,
            heed_shutdown: true,
            fusion: true,
            ..Default::default()
        };
        run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts).to_json()
    };
    with_reference(
        test_config("fusion-axis"),
        fused_reference,
        |addr, fused_reference| {
            let mut client = Client::connect(&addr.to_string()).expect("connect");
            let total = matrix_combos(&Workload::ALL).len() as u64;

            let unfused_spec = JobSpec::matrix(SizeClass::Test);
            let mut fused_spec = JobSpec::matrix(SizeClass::Test);
            fused_spec.fusion = true;
            assert_ne!(unfused_spec.canonical(), fused_spec.canonical());

            let (hits, misses, _, unfused_json) =
                expect_done(submit_checked(&mut client, &unfused_spec).0);
            assert_eq!((hits, misses), (0, total));

            // Warm unfused cache must not satisfy a single fused cell.
            let (hits, misses, failures, fused_json) =
                expect_done(submit_checked(&mut client, &fused_spec).0);
            assert_eq!(
                (hits, misses, failures),
                (0, total, 0),
                "fused run must miss everywhere"
            );
            assert_ne!(fused_json, unfused_json);
            assert!(
                fused_json.contains("\"fused\""),
                "fused cells carry their report"
            );
            assert!(
                !unfused_json.contains("\"fused\""),
                "unfused cells stay pre-fusion-identical"
            );
            assert_eq!(
                fused_json, fused_reference,
                "daemon fused bytes == one-shot fused bytes"
            );

            // Both axes now resident: each resubmission is all hits on its own
            // slots and returns its own bytes.
            let (hits, _, _, fused_again) = expect_done(submit_checked(&mut client, &fused_spec).0);
            assert_eq!(hits, total);
            assert_eq!(fused_again, fused_json);
            let (hits, _, _, unfused_again) =
                expect_done(submit_checked(&mut client, &unfused_spec).0);
            assert_eq!(hits, total);
            assert_eq!(unfused_again, unfused_json);

            let mut probe = Client::connect(&addr.to_string()).expect("connect");
            let stats = probe.stats().expect("stats");
            assert_eq!(
                stats.cache_cells,
                2 * total,
                "both axes resident, keyed apart"
            );
        },
    );
}

#[test]
fn followers_of_a_failed_leader_still_stream_every_cell_once() {
    // Stall the shared pool, so that a zero-deadline job claims, and so
    // leads, every cell long before any of them runs, and a clean job
    // submitted next follows all of those flights. Released, the doomed
    // cells fail at once, and the clean job re-claims each cell and
    // computes it inline. Both jobs must stream exactly one progress frame
    // per cell, and the clean job must serve the one-shot bytes.
    with_reference(
        test_config("failed-leader"),
        |_| one_shot_reference(),
        |addr, reference| {
            let total = matrix_combos(&Workload::ALL).len() as u64;
            let (started_tx, started) = mpsc::channel();
            let releases: Vec<mpsc::Sender<()>> = (0..pool::global().stats().workers)
                .map(|_| {
                    let (release, wait) = mpsc::channel();
                    let started_tx = started_tx.clone();
                    pool::global().submit(Box::new(move || {
                        let _ = started_tx.send(());
                        let _ = wait.recv();
                    }));
                    release
                })
                .collect();
            for _ in &releases {
                started.recv().expect("a stalled worker");
            }
            let submit = move |deadline_secs| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr.to_string()).expect("connect");
                    let mut spec = JobSpec::matrix(SizeClass::Test);
                    spec.deadline_secs = deadline_secs;
                    expect_done(submit_checked(&mut client, &spec).0)
                })
            };
            let mut probe = Client::connect(&addr.to_string()).expect("connect");
            let mut wait_for = |done: &dyn Fn(&server::StatsBody) -> bool| {
                while !done(&probe.stats().expect("stats")) {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            };
            let doomed = submit(Some(0.0));
            wait_for(&|s| s.cache_misses == total);
            let clean = submit(None);
            wait_for(&|s| s.cache_hits == total);
            for release in releases {
                release.send(()).expect("release a worker");
            }

            let (hits, misses, failures, served) = clean.join().expect("clean job");
            assert_eq!((hits, misses, failures), (total, 0, 0));
            assert_eq!(served, reference);
            let (_, _, failures, _) = doomed.join().expect("zero-deadline job");
            assert_eq!(failures, total, "every doomed cell timed out");
        },
    );
}

#[test]
fn admission_control_rejects_with_typed_busy() {
    let cfg = Config {
        max_jobs: 0,
        ..test_config("admission")
    };
    with_server(cfg, |addr| {
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        match client
            .submit(&JobSpec::matrix(SizeClass::Test), |_, _, _, _| {})
            .unwrap()
        {
            JobOutcome::Busy { active, limit } => {
                assert_eq!(limit, 0);
                assert_eq!(active, 0);
            }
            other => panic!("expected busy, got {other:?}"),
        }
        // The connection survives a busy rejection.
        client.ping().expect("ping after busy");
    });
}

#[test]
fn ping_stats_and_bad_specs_on_one_connection() {
    with_server(test_config("ping-stats"), |addr| {
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        client.ping().expect("ping");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.jobs_total, 0);
        assert!(stats.pool_workers > 0, "shard pool is live");

        // A spec the CLI grammar cannot parse (an unparsable campaign) is
        // rejected with a typed error at submit time, client-side or
        // server-side — either way the submit call errors, not panics.
        let mut bad = JobSpec::matrix(SizeClass::Test);
        bad.campaign = Some("not-a-campaign".into());
        let err = client
            .submit(&bad, |_, _, _, _| {})
            .expect_err("invalid spec");
        assert!(
            err.to_string().contains("campaign"),
            "typed message, got: {err}"
        );
    });
}

#[test]
fn draining_daemon_sends_typed_shutdown_frames() {
    let _guard = E2E_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    shutdown::reset();
    let srv = Server::bind(test_config("drain")).expect("bind");
    let addr = srv.local_addr().expect("addr");
    let handle = std::thread::spawn(move || srv.run());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    // The ping round-trip proves a connection thread is attached before
    // the drain starts (a merely-queued connection is owed nothing).
    client.ping().expect("ping");

    shutdown::request();
    // The idle connection notices the flag within one poll interval and
    // says goodbye with a typed frame before closing.
    match client.read_next().expect("shutdown frame") {
        ServerMsg::Shutdown { signal } => assert!(!signal.is_empty()),
        other => panic!("expected shutdown frame, got {other:?}"),
    }
    assert_eq!(
        handle.join().expect("server thread"),
        0,
        "SIGTERM drain exits 0"
    );
    shutdown::reset();
}
