//! The `isacmpd` wire protocol: length-prefixed JSON frames and the typed
//! messages that ride in them.
//!
//! A frame is a 4-byte big-endian payload length followed by exactly that
//! many bytes of UTF-8 JSON (`telemetry::json` — hand-rolled, std-only).
//! Payloads are capped at [`MAX_FRAME`]; anything larger is rejected with
//! a typed error before a single payload byte is buffered, so a hostile
//! or corrupt peer cannot balloon daemon memory. Malformed input of any
//! kind (truncated frame, bad UTF-8, bad JSON, unknown message type)
//! surfaces as a [`ProtoError`] — never a panic (see
//! `tests/proto_roundtrip.rs`, which fuzzes the reader with seeded random
//! bytes).
//!
//! [`FrameReader`] is deliberately poll-style: it owns the partial-frame
//! buffer, so a connection thread can interleave "is there a request
//! yet?" with shutdown-drain checks on a read-timeout socket without ever
//! losing mid-frame bytes.

use std::io::{Read, Write};
use std::time::Duration;

use bench::cli;
use isacmp::telemetry::Json;
use isacmp::{CampaignManifest, MatrixOptions, SizeClass};

/// Protocol version spoken by this build. Client messages carry it; a
/// mismatch is a typed error, not silent misinterpretation. Version 2
/// dropped the job spec's `engine` field (there is one retire loop);
/// version 3 dropped its `kind` field, which restated the `campaign` and
/// `fusion` fields.
pub const PROTO_VERSION: u64 = 3;

/// Hard cap on a frame payload. A full paper-size `matrix.json` is ~100
/// KiB; 16 MiB leaves room for growth while keeping a hostile length
/// prefix harmless.
pub const MAX_FRAME: usize = 16 << 20;

/// Typed protocol failure. Everything a malformed peer can do lands here.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// Underlying socket error.
    Io(String),
    /// Peer closed the connection mid-frame (`n` bytes stranded).
    Truncated { have: usize },
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversized { len: usize, max: usize },
    /// Payload is not valid UTF-8 JSON.
    BadJson(String),
    /// Frame or message structure is wrong (zero length, missing fields,
    /// unknown message type).
    BadFrame(String),
    /// Peer speaks a different protocol version.
    VersionMismatch { got: u64, want: u64 },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Truncated { have } => {
                write!(f, "connection closed mid-frame ({have} byte(s) stranded)")
            }
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::BadJson(e) => write!(f, "bad frame payload: {e}"),
            ProtoError::BadFrame(e) => write!(f, "bad frame: {e}"),
            ProtoError::VersionMismatch { got, want } => {
                write!(f, "protocol version {got} (this end speaks {want})")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Write one frame (blocking).
pub fn write_frame(w: &mut impl Write, msg: &Json) -> Result<(), ProtoError> {
    let payload = msg.compact();
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(ProtoError::Oversized {
            len: bytes.len(),
            max: MAX_FRAME,
        });
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    w.flush().map_err(|e| ProtoError::Io(e.to_string()))
}

/// One poll step's result.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame arrived.
    Frame(Json),
    /// The socket has no bytes right now (read timeout / would-block);
    /// any partial frame stays buffered for the next poll.
    Idle,
    /// Clean close at a frame boundary.
    Closed,
}

/// Incremental frame reader owning the partial-frame buffer.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Pull bytes from `r` until a full frame, idleness, close, or a
    /// protocol error. Safe to call again after `Idle` — mid-frame bytes
    /// are kept.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<ReadOutcome, ProtoError> {
        let mut tmp = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.try_extract()? {
                return Ok(ReadOutcome::Frame(frame));
            }
            match r.read(&mut tmp) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Closed)
                    } else {
                        Err(ProtoError::Truncated {
                            have: self.buf.len(),
                        })
                    }
                }
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(ReadOutcome::Idle)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ProtoError::Io(e.to_string())),
            }
        }
    }

    /// Parse one frame out of the buffer, if a complete one is there.
    /// The length prefix is validated *before* waiting for the payload.
    fn try_extract(&mut self) -> Result<Option<Json>, ProtoError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len == 0 {
            return Err(ProtoError::BadFrame("zero-length frame".into()));
        }
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized {
                len,
                max: MAX_FRAME,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let text = std::str::from_utf8(&self.buf[4..4 + len])
            .map_err(|e| ProtoError::BadFrame(format!("payload is not UTF-8: {e}")))?;
        let json = Json::parse(text).map_err(ProtoError::BadJson)?;
        self.buf.drain(..4 + len);
        Ok(Some(json))
    }
}

/// Blocking read of exactly one frame, with a reader that dies with the
/// call — so any *extra* frames pulled into its buffer die too. Only use
/// this where at most one frame will ever arrive on the stream (e.g. the
/// goodbye frame of a draining daemon); conversations must keep one
/// [`FrameReader`] per connection (see `client::Client`).
pub fn read_frame(r: &mut impl Read) -> Result<Json, ProtoError> {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(r)? {
            ReadOutcome::Frame(j) => return Ok(j),
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => return Err(ProtoError::Truncated { have: 0 }),
        }
    }
}

/// A job submission: everything that determines a matrix run's output,
/// carried as the same canonical spec strings the `make_tables` CLI
/// takes, parsed and validated by the exact same `bench::cli` grammar —
/// so a spec the daemon accepts is a spec the one-shot CLI would run
/// identically: a job is a matrix run with these flags.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub size: SizeClass,
    pub retries: u32,
    /// Per-cell watchdog, in (fractional) seconds.
    pub deadline_secs: Option<f64>,
    /// `workload/compiler/isa:fault` targeted injection spec.
    pub inject: Option<String>,
    /// `<seed>:<n-faults>` campaign spec.
    pub campaign: Option<String>,
    /// Arm the macro-op fusion pass (`--fusion`).
    pub fusion: bool,
}

impl JobSpec {
    /// A clean full-matrix job at the given size — the daemon-side
    /// equivalent of `make_tables table1 --size <s>` with defaults.
    pub fn matrix(size: SizeClass) -> JobSpec {
        JobSpec {
            size,
            retries: 1,
            deadline_secs: None,
            inject: None,
            campaign: None,
            fusion: false,
        }
    }

    /// Build a spec from CLI args via the shared `bench::cli` grammar
    /// (`--size`, `--retries`, `--deadline-secs`, `--inject`, `--campaign`,
    /// `--fusion`). Values are validated here, client-side, with the same
    /// parsers the daemon re-runs server-side.
    pub fn from_args(args: &[String]) -> Result<JobSpec, String> {
        let flags = cli::MatrixFlags::parse(args)?;
        Ok(JobSpec {
            size: flags.size,
            retries: flags.retries,
            deadline_secs: flags.deadline.map(|d| d.as_secs_f64()),
            inject: cli::flag_value(args, "--inject"),
            campaign: cli::flag_value(args, "--campaign"),
            fusion: flags.fusion,
        })
    }

    /// The provenance key: a stable canonical string of everything that
    /// determines this job's output. Identical cells across identical
    /// specs hit the cache; the per-job journal file is named by a hash
    /// of this string, which is how a restarted daemon finds the records
    /// of a killed run when the same spec is resubmitted.
    pub fn canonical(&self) -> String {
        let mut key = format!(
            "v{PROTO_VERSION}:{}:r{}:d{}:i{}:c{}",
            self.size.name(),
            self.retries,
            self.deadline_secs
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            self.inject.as_deref().unwrap_or("-"),
            self.campaign.as_deref().unwrap_or("-"),
        );
        // Appended only when armed: an unfused key carries no fusion field.
        if self.fusion {
            key.push_str(":f1");
        }
        key
    }

    /// Lower the spec into the core's [`MatrixOptions`], mirroring
    /// `make_tables`' `parse_matrix_opts` exactly (same defaults, same
    /// deterministic campaign sampling) — this is what makes a
    /// daemon-served matrix byte-identical to a one-shot run. Also
    /// returns the sampled campaign manifest for the job journal's begin
    /// record. `trace_dir` is the daemon's trace cache; the cells run
    /// through it as `make_tables --trace-dir` runs them (fault-armed cells
    /// bypass it).
    pub fn matrix_options(
        &self,
        trace_dir: Option<std::path::PathBuf>,
    ) -> Result<(MatrixOptions, Option<CampaignManifest>), String> {
        let inject = self
            .inject
            .as_deref()
            .map(isacmp::InjectSpec::parse)
            .transpose()?;
        let mut manifest = None;
        let campaign = self
            .campaign
            .as_deref()
            .map(|s| -> Result<_, String> {
                let spec = isacmp::CampaignSpec::parse(s)?;
                let m = CampaignManifest::sample(spec);
                let armed = m.campaign()?;
                manifest = Some(m);
                Ok(armed)
            })
            .transpose()?;
        let deadline = self
            .deadline_secs
            .map(|d| {
                Duration::try_from_secs_f64(d).map_err(|e| format!("bad deadline_secs {d}: {e}"))
            })
            .transpose()?;
        let opts = MatrixOptions {
            deadline,
            retries: self.retries,
            inject,
            campaign,
            trace_dir,
            heed_shutdown: true,
            checkpoint_dir: None,
            fusion: self.fusion,
        };
        Ok((opts, manifest))
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("size", Json::Str(self.size.name().into())),
            ("retries", Json::Num(self.retries as f64)),
        ];
        if let Some(d) = self.deadline_secs {
            fields.push(("deadline_secs", Json::Num(d)));
        }
        if let Some(i) = &self.inject {
            fields.push(("inject", Json::Str(i.clone())));
        }
        if let Some(c) = &self.campaign {
            fields.push(("campaign", Json::Str(c.clone())));
        }
        if self.fusion {
            fields.push(("fusion", Json::Bool(true)));
        }
        Json::obj(fields)
    }

    pub fn from_json(j: &Json) -> Result<JobSpec, ProtoError> {
        let bad = |m: &str| ProtoError::BadFrame(format!("job spec: {m}"));
        let s = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let size = cli::size_from_name(&s("size").ok_or_else(|| bad("missing size"))?)
            .map_err(|e| bad(&e))?;
        let retries = j
            .get("retries")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing retries"))? as u32;
        let deadline_secs = match j.get("deadline_secs") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|d| Duration::try_from_secs_f64(*d).is_ok())
                    .ok_or_else(|| bad("invalid deadline_secs"))?,
            ),
        };
        Ok(JobSpec {
            size,
            retries,
            deadline_secs,
            inject: s("inject"),
            campaign: s("campaign"),
            fusion: matches!(j.get("fusion"), Some(Json::Bool(true))),
        })
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    Submit { job: JobSpec },
    Ping,
    Stats,
}

impl ClientMsg {
    pub fn to_json(&self) -> Json {
        let proto = ("proto", Json::Num(PROTO_VERSION as f64));
        match self {
            ClientMsg::Submit { job } => Json::obj(vec![
                ("type", Json::Str("submit".into())),
                proto,
                ("job", job.to_json()),
            ]),
            ClientMsg::Ping => Json::obj(vec![("type", Json::Str("ping".into())), proto]),
            ClientMsg::Stats => Json::obj(vec![("type", Json::Str("stats".into())), proto]),
        }
    }

    pub fn from_json(j: &Json) -> Result<ClientMsg, ProtoError> {
        let ty = j
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::BadFrame("missing message type".into()))?;
        let proto = j
            .get("proto")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::BadFrame("missing proto version".into()))?;
        if proto != PROTO_VERSION {
            return Err(ProtoError::VersionMismatch {
                got: proto,
                want: PROTO_VERSION,
            });
        }
        match ty {
            "submit" => {
                let job = j
                    .get("job")
                    .ok_or_else(|| ProtoError::BadFrame("submit without a job".into()))?;
                Ok(ClientMsg::Submit {
                    job: JobSpec::from_json(job)?,
                })
            }
            "ping" => Ok(ClientMsg::Ping),
            "stats" => Ok(ClientMsg::Stats),
            other => Err(ProtoError::BadFrame(format!(
                "unknown client message type {other:?}"
            ))),
        }
    }
}

/// A server stats snapshot (also the `load_driver` hit-rate source).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsBody {
    pub jobs_total: u64,
    pub jobs_active: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_cells: u64,
    pub pool_workers: u64,
    pub pool_queued: u64,
    pub pool_executed: u64,
    pub pool_stolen: u64,
}

impl StatsBody {
    const FIELDS: [&'static str; 9] = [
        "jobs_total",
        "jobs_active",
        "cache_hits",
        "cache_misses",
        "cache_cells",
        "pool_workers",
        "pool_queued",
        "pool_executed",
        "pool_stolen",
    ];

    fn values(&self) -> [u64; 9] {
        [
            self.jobs_total,
            self.jobs_active,
            self.cache_hits,
            self.cache_misses,
            self.cache_cells,
            self.pool_workers,
            self.pool_queued,
            self.pool_executed,
            self.pool_stolen,
        ]
    }

    pub fn to_json(&self) -> Json {
        Json::obj(
            Self::FIELDS
                .iter()
                .zip(self.values())
                .map(|(k, v)| (*k, Json::Num(v as f64)))
                .collect(),
        )
    }

    pub fn from_json(j: &Json) -> Result<StatsBody, ProtoError> {
        let field = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::BadFrame(format!("stats: missing {k}")))
        };
        Ok(StatsBody {
            jobs_total: field("jobs_total")?,
            jobs_active: field("jobs_active")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            cache_cells: field("cache_cells")?,
            pool_workers: field("pool_workers")?,
            pool_queued: field("pool_queued")?,
            pool_executed: field("pool_executed")?,
            pool_stolen: field("pool_stolen")?,
        })
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// One cell resolved (streamed as the job runs).
    Progress {
        done: u64,
        total: u64,
        cell: String,
        cached: bool,
    },
    /// Job finished. `matrix_json` is the *exact* pretty-printed
    /// `results/matrix.json` text a one-shot `make_tables` run would have
    /// written — transported as a JSON string (the codec's escape
    /// round-trip is exact), so clients can write the bytes verbatim.
    Result {
        hits: u64,
        misses: u64,
        failures: u64,
        matrix_json: String,
    },
    /// Admission control: too many jobs in flight; try again later.
    Busy {
        active: u64,
        limit: u64,
    },
    /// Typed failure (bad spec, protocol error, internal error).
    Error {
        message: String,
    },
    /// Orderly daemon drain (SIGTERM/SIGINT); in-flight work is
    /// journaled. The connection closes after this frame.
    Shutdown {
        signal: String,
    },
    Pong,
    Stats(StatsBody),
}

impl ServerMsg {
    pub fn to_json(&self) -> Json {
        match self {
            ServerMsg::Progress {
                done,
                total,
                cell,
                cached,
            } => Json::obj(vec![
                ("type", Json::Str("progress".into())),
                ("done", Json::Num(*done as f64)),
                ("total", Json::Num(*total as f64)),
                ("cell", Json::Str(cell.clone())),
                ("cached", Json::Bool(*cached)),
            ]),
            ServerMsg::Result {
                hits,
                misses,
                failures,
                matrix_json,
            } => Json::obj(vec![
                ("type", Json::Str("result".into())),
                ("hits", Json::Num(*hits as f64)),
                ("misses", Json::Num(*misses as f64)),
                ("failures", Json::Num(*failures as f64)),
                ("matrix_json", Json::Str(matrix_json.clone())),
            ]),
            ServerMsg::Busy { active, limit } => Json::obj(vec![
                ("type", Json::Str("busy".into())),
                ("active", Json::Num(*active as f64)),
                ("limit", Json::Num(*limit as f64)),
            ]),
            ServerMsg::Error { message } => Json::obj(vec![
                ("type", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
            ServerMsg::Shutdown { signal } => Json::obj(vec![
                ("type", Json::Str("shutdown".into())),
                ("signal", Json::Str(signal.clone())),
            ]),
            ServerMsg::Pong => Json::obj(vec![("type", Json::Str("pong".into()))]),
            ServerMsg::Stats(body) => {
                let Json::Obj(mut fields) = body.to_json() else {
                    unreachable!()
                };
                fields.insert(0, ("type".into(), Json::Str("stats".into())));
                Json::Obj(fields)
            }
        }
    }

    pub fn from_json(j: &Json) -> Result<ServerMsg, ProtoError> {
        let bad = |m: String| ProtoError::BadFrame(m);
        let ty = j
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing message type".into()))?;
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("{ty}: missing {k}")))
        };
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("{ty}: missing {k}")))
        };
        match ty {
            "progress" => Ok(ServerMsg::Progress {
                done: num("done")?,
                total: num("total")?,
                cell: text("cell")?,
                cached: matches!(j.get("cached"), Some(Json::Bool(true))),
            }),
            "result" => Ok(ServerMsg::Result {
                hits: num("hits")?,
                misses: num("misses")?,
                failures: num("failures")?,
                matrix_json: text("matrix_json")?,
            }),
            "busy" => Ok(ServerMsg::Busy {
                active: num("active")?,
                limit: num("limit")?,
            }),
            "error" => Ok(ServerMsg::Error {
                message: text("message")?,
            }),
            "shutdown" => Ok(ServerMsg::Shutdown {
                signal: text("signal")?,
            }),
            "pong" => Ok(ServerMsg::Pong),
            "stats" => Ok(ServerMsg::Stats(StatsBody::from_json(j)?)),
            other => Err(bad(format!("unknown server message type {other:?}"))),
        }
    }
}

/// Send a typed server message (best-effort senders just drop the error).
pub fn send(w: &mut impl Write, msg: &ServerMsg) -> Result<(), ProtoError> {
    write_frame(w, &msg.to_json())
}
