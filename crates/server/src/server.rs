//! The `isacmpd` daemon: listener, connection handling, and the job
//! runner that unifies the shard pool, the result cache and the per-job
//! cell journals.
//!
//! Threading model: one OS thread per client connection (connections are
//! few and mostly idle), all emulation on the process-wide work-stealing
//! shard pool ([`isacmp::pool::global`]). Connection threads may block —
//! on follower flights, on the progress channel — but pool tasks never
//! block on other pool tasks (the pool's deadlock rule), which is why
//! cache waits live here and not in the cell tasks.
//!
//! Crash safety: every job journals its cell outcomes (through the same
//! `isacmp::run_journaled_cell` task as `make_tables`) to a per-spec journal
//! under the jobs directory. A `kill -9` loses at most the cells in
//! flight; when the restarted daemon receives the same spec again it
//! recovers every recorded outcome and runs only the rest, reassembling
//! in canonical order — the served matrix is byte-identical to an
//! uninterrupted run. On SIGTERM/SIGINT the daemon stops accepting,
//! interrupts in-flight cells at the next masked boundary, sends every
//! client a typed `shutdown` frame, keeps the journals, and exits 0.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use isacmp::{
    assemble_matrix, isa_label, journal_outcome, matrix_combos, pool, read_journal,
    run_journaled_cell, shutdown, CellError, CellJournal, CellOptions, ExperimentCell, IsaKind,
    Outcome, Personality, ReferenceMemo, ResultMatrix, SizeClass, Workload,
};

use crate::cache::{CellKey, Claim, ResultCache};
use crate::proto::{
    self, ClientMsg, FrameReader, JobSpec, ProtoError, ReadOutcome, ServerMsg, StatsBody,
};

/// How often idle loops (the accept watcher, connection poll, flight
/// waits) check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address; use port 0 to let the OS pick (the bound address
    /// is printed / queryable via [`Server::local_addr`]).
    pub addr: String,
    /// Admission bound: jobs in flight beyond this are rejected with a
    /// typed `busy` frame.
    pub max_jobs: usize,
    /// Per-job cell journals live here (`job-<speckey>.journal.jsonl`).
    pub jobs_dir: PathBuf,
    /// Trace capture/replay dir. Every job runs its cells through it, as
    /// `make_tables --trace-dir` does: a cell with a capture replays it, a
    /// live one captures, and fault-armed cells bypass it. Replayed cells
    /// are byte-identical to live ones.
    pub trace_dir: Option<PathBuf>,
    /// Warm the cell cache from a one-shot `matrix.json` at startup.
    pub warm: Option<PathBuf>,
    /// Size class the warm artifact was measured at.
    pub warm_size: SizeClass,
    /// How long `run` waits for connection threads to drain after a
    /// shutdown signal before detaching them.
    pub drain_timeout: Duration,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:0".into(),
            max_jobs: 64,
            jobs_dir: PathBuf::from("results/jobs"),
            trace_dir: None,
            warm: None,
            warm_size: SizeClass::Small,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Refcounted registry of open per-job journals, so concurrent
/// submissions of the same spec share one journal file (and the file is
/// deleted only when the last clean job releases it; a crashed or
/// interrupted job leaves it behind for resume).
#[derive(Default)]
struct JournalRegistry {
    map: Mutex<HashMap<u64, RegistryEntry>>,
}

struct RegistryEntry {
    refs: usize,
    delete_on_last: bool,
    path: PathBuf,
    journal: Option<Arc<Mutex<CellJournal>>>,
}

impl JournalRegistry {
    /// Open (or share) the journal for `key`. Journal I/O failures
    /// degrade to journal-less operation, mirroring `make_tables`.
    fn acquire(
        &self,
        key: u64,
        path: &Path,
        size: &str,
        manifest: Option<&isacmp::CampaignManifest>,
    ) -> Option<Arc<Mutex<CellJournal>>> {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = map.get_mut(&key) {
            e.refs += 1;
            return e.journal.clone();
        }
        let opened = if path.exists() {
            CellJournal::append_to(path)
        } else {
            CellJournal::create(path, size, manifest)
        };
        let journal = match opened {
            Ok(j) => Some(Arc::new(Mutex::new(j))),
            Err(e) => {
                eprintln!(
                    "isacmpd: warning: cannot open {}: {e} (job running without crash journal)",
                    path.display()
                );
                None
            }
        };
        map.insert(
            key,
            RegistryEntry {
                refs: 1,
                delete_on_last: false,
                path: path.to_path_buf(),
                journal: journal.clone(),
            },
        );
        journal
    }

    /// Release one job's hold. `completed` means the job resolved every
    /// combo (no interruption) — when the last such holder releases, the
    /// journal file has served its purpose and is removed.
    fn release(&self, key: u64, completed: bool) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(e) = map.get_mut(&key) else { return };
        e.refs -= 1;
        e.delete_on_last |= completed;
        if e.refs == 0 {
            if e.delete_on_last {
                let _ = std::fs::remove_file(&e.path);
            }
            map.remove(&key);
        }
    }
}

/// One job's hold on its journal's registry entry, released on every
/// exit from the job, as interrupted unless the job marks it completed.
/// A job that returns early, say because its client hung up, still lets a
/// later clean run of the same spec retire the journal.
struct JournalHold<'a> {
    journals: &'a JournalRegistry,
    key: u64,
    completed: bool,
}

impl Drop for JournalHold<'_> {
    fn drop(&mut self) {
        self.journals.release(self.key, self.completed);
    }
}

/// Daemon-wide shared state.
pub struct State {
    cfg: Config,
    cache: ResultCache,
    journals: JournalRegistry,
    active: AtomicUsize,
    jobs_total: AtomicU64,
}

impl State {
    fn stats(&self) -> StatsBody {
        let (hits, misses) = self.cache.stats();
        let pool = pool::global().stats();
        StatsBody {
            jobs_total: self.jobs_total.load(Ordering::Relaxed),
            jobs_active: self.active.load(Ordering::Relaxed) as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_cells: self.cache.len() as u64,
            pool_workers: pool.workers as u64,
            pool_queued: pool.queued as u64,
            pool_executed: pool.executed,
            pool_stolen: pool.stolen,
        }
    }

    /// Publish the serving gauges the bench trajectory records.
    fn publish_gauges(&self) {
        let tel = isacmp::telemetry::global();
        let s = self.stats();
        tel.gauge_set("server_jobs_total", s.jobs_total as f64);
        tel.gauge_set("cache_hits", s.cache_hits as f64);
        tel.gauge_set("cache_misses", s.cache_misses as f64);
    }
}

/// Decrement the active-jobs counter on every exit path.
struct ActiveGuard<'a>(&'a State);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// FNV-1a, the per-spec journal file name hash. Stable across builds and
/// platforms (unlike `DefaultHasher`), which is what lets a *restarted*
/// daemon find a killed run's journal from the resubmitted spec.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind the listener, create the jobs dir, and warm the cache if
    /// configured.
    pub fn bind(cfg: Config) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.jobs_dir)?;
        if let Some(dir) = &cfg.trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let cache = ResultCache::new();
        if let Some(warm) = &cfg.warm {
            let text = std::fs::read_to_string(warm)?;
            let matrix = ResultMatrix::from_json(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let n = cache.warm(&matrix, cfg.warm_size.name());
            eprintln!(
                "isacmpd: cache warmed with {n} cell(s) from {}",
                warm.display()
            );
        }
        Ok(Server {
            listener,
            state: Arc::new(State {
                cfg,
                cache,
                journals: JournalRegistry::default(),
                active: AtomicUsize::new(0),
                jobs_total: AtomicU64::new(0),
            }),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept-and-serve until a shutdown is requested (SIGTERM/SIGINT or
    /// `shutdown::request()`), then drain. Returns the process exit code
    /// (0 — an orderly drain is success; 1 if the listener has no address).
    ///
    /// The accept blocks; a watcher thread polls the shutdown flag and,
    /// once it is raised, wakes the accept with a connection to the
    /// listener's own address.
    pub fn run(self) -> i32 {
        let addr = match self.local_addr() {
            Ok(addr) => wake_addr(addr),
            Err(e) => {
                eprintln!("isacmpd: listener has no local address: {e}");
                return 1;
            }
        };
        let watcher = std::thread::spawn(move || {
            while !shutdown::requested() {
                std::thread::sleep(POLL);
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        });
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shutdown::requested() {
            match self.listener.accept() {
                // The watcher's wake-up, or a client racing the drain: a
                // connection accepted after the flag is owed nothing.
                Ok(_) if shutdown::requested() => break,
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    conns.push(std::thread::spawn(move || handle_conn(state, stream)));
                }
                Err(e) => {
                    eprintln!("isacmpd: accept error: {e}");
                    std::thread::sleep(POLL);
                }
            }
            conns.retain(|h| !h.is_finished());
        }
        // The flag is up, so the watcher is at most one poll from done.
        if watcher.join().is_err() {
            eprintln!("isacmpd: accept watcher panicked");
        }
        // Drain: connection threads observe the flag themselves — idle
        // ones send the shutdown frame immediately, busy ones after their
        // interrupted job flushes its journal.
        let signal = shutdown::last_signal()
            .map(shutdown::signal_name)
            .unwrap_or_else(|| "shutdown request".into());
        eprintln!(
            "isacmpd: {signal}: draining {} connection(s) ...",
            conns.len()
        );
        let deadline = Instant::now() + self.state.cfg.drain_timeout;
        while Instant::now() < deadline && conns.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(POLL);
        }
        let stranded = conns.iter().filter(|h| !h.is_finished()).count();
        if stranded > 0 {
            eprintln!("isacmpd: drain timeout; detaching {stranded} connection(s)");
        }
        eprintln!("isacmpd: bye");
        0
    }
}

/// Where a self-connect reaches a listener bound to `addr`: the loopback
/// address in place of an unspecified one.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        std::net::IpAddr::V4(ip) if ip.is_unspecified() => std::net::Ipv4Addr::LOCALHOST.into(),
        std::net::IpAddr::V6(ip) if ip.is_unspecified() => std::net::Ipv6Addr::LOCALHOST.into(),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Serve one client connection until it closes, errors, or the daemon
/// drains.
fn handle_conn(state: Arc<State>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = FrameReader::new();
    loop {
        if shutdown::requested() {
            let signal = shutdown::last_signal()
                .map(shutdown::signal_name)
                .unwrap_or_else(|| "shutdown request".into());
            let _ = proto::send(&mut stream, &ServerMsg::Shutdown { signal });
            return;
        }
        match reader.poll(&mut stream) {
            Ok(ReadOutcome::Frame(j)) => match ClientMsg::from_json(&j) {
                Ok(ClientMsg::Ping) => {
                    if proto::send(&mut stream, &ServerMsg::Pong).is_err() {
                        return;
                    }
                }
                Ok(ClientMsg::Stats) => {
                    if proto::send(&mut stream, &ServerMsg::Stats(state.stats())).is_err() {
                        return;
                    }
                }
                Ok(ClientMsg::Submit { job }) => {
                    if submit(&state, &job, &mut stream).is_err() {
                        return;
                    }
                }
                // Malformed messages get a typed rejection, then the
                // connection closes — a peer this confused won't frame the
                // next message correctly either.
                Err(e) => {
                    let _ = proto::send(
                        &mut stream,
                        &ServerMsg::Error {
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            },
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Closed) => return,
            Err(e) => {
                let _ = proto::send(
                    &mut stream,
                    &ServerMsg::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
        }
    }
}

/// Admission control + job execution for one submit.
fn submit(state: &Arc<State>, spec: &JobSpec, stream: &mut TcpStream) -> Result<(), ProtoError> {
    let limit = state.cfg.max_jobs;
    let prev = state.active.fetch_add(1, Ordering::SeqCst);
    if prev >= limit {
        state.active.fetch_sub(1, Ordering::SeqCst);
        return proto::send(
            stream,
            &ServerMsg::Busy {
                active: prev as u64,
                limit: limit as u64,
            },
        );
    }
    let _guard = ActiveGuard(state);
    state.jobs_total.fetch_add(1, Ordering::Relaxed);
    let result = run_job(state, spec, stream);
    state.publish_gauges();
    result
}

/// A job's per-combo outcome slots and its progress stream. Every combo
/// the job resolves, whether recovered from its journal, served from the
/// cache or computed, passes through [`JobProgress::resolved`] exactly
/// once, which sends its one progress frame.
struct JobProgress<'a> {
    stream: &'a mut TcpStream,
    combos: &'a [(Workload, Personality, IsaKind)],
    journal: Option<&'a Mutex<CellJournal>>,
    retries: u32,
    slots: Vec<Option<Outcome>>,
    done: u64,
}

impl JobProgress<'_> {
    /// Fill combo `i`'s slot (a journal-recovered combo leaves it empty)
    /// and stream its progress frame.
    fn resolved(
        &mut self,
        i: usize,
        outcome: Option<Outcome>,
        cached: bool,
    ) -> Result<(), ProtoError> {
        let (w, p, isa) = self.combos[i];
        self.slots[i] = outcome;
        self.done += 1;
        let frame = ServerMsg::Progress {
            done: self.done,
            total: self.combos.len() as u64,
            cell: format!("{}/{}/{}", w.name(), p.label(), isa_label(isa)),
            cached,
        };
        proto::send(self.stream, &frame)
    }

    /// Resolve combo `i` with a cell the cache served. The hit is journaled
    /// too, so this job's journal is self-contained for resume on a cold
    /// (cache-less) restart.
    fn hit(&mut self, i: usize, cell: ExperimentCell) -> Result<(), ProtoError> {
        let (w, p, isa) = self.combos[i];
        let outcome = Ok(cell);
        let (wn, pl, il) = (w.name(), p.label(), isa_label(isa));
        journal_outcome(self.journal, wn, pl, il, &outcome, self.retries);
        self.resolved(i, Some(Ok(outcome)), true)
    }
}

/// What the cache keeps of a computed cell: the cell, or why it failed.
fn cache_value(outcome: &Result<ExperimentCell, CellError>) -> Result<ExperimentCell, String> {
    outcome.as_ref().cloned().map_err(ToString::to_string)
}

/// Execute one job: a `make_tables` matrix run with the spec's flags.
/// Plan combos in canonical order, recover journaled outcomes, resolve
/// the rest through the cache / the shard pool, stream progress, and send
/// the result (or a typed shutdown frame).
fn run_job(state: &Arc<State>, spec: &JobSpec, stream: &mut TcpStream) -> Result<(), ProtoError> {
    let (opts, manifest) = match spec.matrix_options(state.cfg.trace_dir.clone()) {
        Ok(x) => x,
        Err(e) => return proto::send(stream, &ServerMsg::Error { message: e }),
    };
    let combos = matrix_combos(&Workload::ALL);
    let size = spec.size;

    // Journal recovery: a restarted daemon finds a killed run's records
    // by the spec's provenance key.
    let speckey = fnv1a64(&spec.canonical());
    let journal_path = state
        .cfg
        .jobs_dir
        .join(format!("job-{speckey:016x}.journal.jsonl"));
    let prior = match journal_path.exists() {
        true => match read_journal(&journal_path) {
            Ok(j) if j.size == size.name() => j.matrix,
            // A mismatched or unreadable journal is not trusted; the job
            // recomputes (and re-records) everything.
            _ => ResultMatrix::default(),
        },
        false => ResultMatrix::default(),
    };
    let journal = state
        .journals
        .acquire(speckey, &journal_path, size.name(), manifest.as_ref());
    let mut hold = JournalHold {
        journals: &state.journals,
        key: speckey,
        completed: false,
    };

    let mut job = JobProgress {
        stream,
        combos: &combos,
        journal: journal.as_deref(),
        retries: opts.retries,
        slots: (0..combos.len()).map(|_| None).collect(),
        done: 0,
    };
    let (tx, rx) = mpsc::channel::<(usize, Outcome)>();
    let mut follows: Vec<(usize, CellKey, Arc<crate::cache::Flight>)> = Vec::new();
    let mut outstanding = 0usize;
    let (mut hits, mut misses) = (0u64, 0u64);
    // The cells this job computes share one reference checksum per
    // workload.
    let reference = Arc::new(ReferenceMemo::new());
    // Compute combo `i` on the pool as a journaled matrix cell; a leader
    // (`key` set) hands the result to the cache for its followers.
    let compute = |i: usize, cell_opts: CellOptions, key: Option<CellKey>| {
        let (w, p, isa) = combos[i];
        let (tx, journal) = (tx.clone(), journal.clone());
        let (reference, state) = (Arc::clone(&reference), Arc::clone(state));
        pool::global().submit(Box::new(move || {
            let outcome =
                run_journaled_cell(w, isa, &p, size, &cell_opts, &reference, journal.as_deref());
            if let Some(key) = key {
                state.cache.complete(&key, cache_value(&outcome));
            }
            let _ = tx.send((i, Ok(outcome)));
        }));
    };

    for (i, &(w, p, isa)) in combos.iter().enumerate() {
        let (wn, pl, il) = (w.name(), p.label(), isa_label(isa));
        if prior.has_record(wn, pl, il) {
            // Recovered from the journal; assembled from `prior`.
            job.resolved(i, None, true)?;
            continue;
        }
        let cell_opts = opts.cell_options(wn, pl, il);
        // Fault-armed cells are not reusable measurements — never cached.
        if cell_opts.campaign.is_some() {
            misses += 1;
            outstanding += 1;
            compute(i, cell_opts, None);
            continue;
        }
        let key = CellKey::new(wn, pl, il, size.name(), spec.fusion);
        match state.cache.claim(&key) {
            Claim::Hit(cell) => {
                hits += 1;
                job.hit(i, *cell)?;
            }
            Claim::Lead => {
                misses += 1;
                outstanding += 1;
                compute(i, cell_opts, Some(key));
            }
            Claim::Follow(flight) => {
                hits += 1;
                follows.push((i, key, flight));
            }
        }
    }
    drop(tx);

    // Drain this job's own pool tasks, streaming progress as cells land.
    // Interrupted cells (shutdown) come back quickly as `Interrupted` and
    // resolve the loop; no special case needed.
    while outstanding > 0 {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((i, outcome)) => {
                outstanding -= 1;
                job.resolved(i, Some(outcome), false)?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            // All senders gone without filling every slot: a pool worker
            // died. The missing slots degrade to recorded failures below.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Resolve cells another job is computing. Waiting happens here, on
    // the connection thread; if that leader fails or is interrupted we
    // re-claim (possibly becoming the new leader and computing inline).
    for (i, key, mut flight) in follows {
        loop {
            match flight.wait_for(Duration::from_millis(100)) {
                Some(Ok(cell)) => break job.hit(i, cell)?,
                Some(Err(_leader_failed)) => match state.cache.claim(&key) {
                    Claim::Hit(cell) => break job.hit(i, *cell)?,
                    Claim::Follow(next) => flight = next,
                    Claim::Lead => {
                        // Compute inline — this is a connection thread, so
                        // blocking here is fine.
                        let (w, p, isa) = combos[i];
                        let cell_opts = opts.cell_options(w.name(), p.label(), isa_label(isa));
                        let outcome = run_journaled_cell(
                            w,
                            isa,
                            &p,
                            size,
                            &cell_opts,
                            &reference,
                            journal.as_deref(),
                        );
                        state.cache.complete(&key, cache_value(&outcome));
                        break job.resolved(i, Some(Ok(outcome)), false)?;
                    }
                },
                // Stop waiting on a drain; the slot stays unresolved and
                // the journal's gap marks it for resume.
                None if shutdown::requested() => break,
                None => {}
            }
        }
    }

    // Assemble through the same fold as every other matrix entry point —
    // the byte-identity invariant.
    let matrix = assemble_matrix(&combos, &prior, job.slots, opts.retries);
    let completed = combos
        .iter()
        .all(|&(w, p, isa)| matrix.has_record(w.name(), p.label(), isa_label(isa)));
    hold.completed = completed;
    drop(hold);

    if !completed {
        // Interrupted mid-job: the journal keeps what finished; the
        // client learns this was a drain, not a result.
        let signal = shutdown::last_signal()
            .map(shutdown::signal_name)
            .unwrap_or_else(|| "shutdown request".into());
        return proto::send(job.stream, &ServerMsg::Shutdown { signal });
    }
    proto::send(
        job.stream,
        &ServerMsg::Result {
            hits,
            misses,
            failures: matrix.failures.len() as u64,
            matrix_json: matrix.to_json(),
        },
    )
}
