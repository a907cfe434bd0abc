//! A small blocking client for `isacmpd`.
//!
//! Used by the `load_driver` load generator and the server end-to-end
//! tests; also the reference for anyone scripting against the daemon.
//! One connection, synchronous request/response, progress frames
//! surfaced through a callback.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use crate::proto::{
    self, ClientMsg, FrameReader, JobSpec, ProtoError, ReadOutcome, ServerMsg, StatsBody,
};

/// How a submitted job resolved.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The daemon served a complete matrix.
    Done {
        hits: u64,
        misses: u64,
        failures: u64,
        /// The full `ResultMatrix` JSON, byte-identical to what a
        /// one-shot `make_tables` run writes to `results/matrix.json`.
        matrix_json: String,
    },
    /// Admission control rejected the job; retry after a backoff.
    Busy { active: u64, limit: u64 },
    /// The daemon is draining; the job's journal is preserved server-side
    /// and resubmitting the same spec after a restart resumes it.
    Shutdown { signal: String },
}

/// A blocking connection to an `isacmpd` daemon.
///
/// The frame reader is part of the connection, not of any one read: a
/// server that bursts several frames into one socket read leaves the
/// extras buffered here for the next call instead of losing them.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Connect with a bound on how long to wait for the daemon to accept.
    pub fn connect_timeout(addr: &std::net::SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Read the next server message (blocking).
    fn read_msg(&mut self) -> Result<ServerMsg, ProtoError> {
        loop {
            match self.reader.poll(&mut self.stream)? {
                ReadOutcome::Frame(j) => return ServerMsg::from_json(&j),
                ReadOutcome::Idle => continue,
                ReadOutcome::Closed => return Err(ProtoError::Truncated { have: 0 }),
            }
        }
    }

    /// Read the next server frame — for callers expecting an unsolicited
    /// frame, like the typed goodbye of a draining daemon.
    pub fn read_next(&mut self) -> Result<ServerMsg, ProtoError> {
        self.read_msg()
    }

    fn request(&mut self, msg: &ClientMsg) -> Result<ServerMsg, ProtoError> {
        proto::write_frame(&mut self.stream, &msg.to_json())?;
        self.read_msg()
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ProtoError> {
        match self.request(&ClientMsg::Ping)? {
            ServerMsg::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Daemon-side serving counters (jobs, cache, pool).
    pub fn stats(&mut self) -> Result<StatsBody, ProtoError> {
        match self.request(&ClientMsg::Stats)? {
            ServerMsg::Stats(body) => Ok(body),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Submit a job and block until it resolves. Progress frames invoke
    /// `on_progress(done, total, cell, cached)` as cells land.
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        mut on_progress: impl FnMut(u64, u64, &str, bool),
    ) -> Result<JobOutcome, ProtoError> {
        proto::write_frame(
            &mut self.stream,
            &ClientMsg::Submit { job: spec.clone() }.to_json(),
        )?;
        loop {
            match self.read_msg()? {
                ServerMsg::Progress {
                    done,
                    total,
                    cell,
                    cached,
                } => on_progress(done, total, &cell, cached),
                ServerMsg::Result {
                    hits,
                    misses,
                    failures,
                    matrix_json,
                } => {
                    return Ok(JobOutcome::Done {
                        hits,
                        misses,
                        failures,
                        matrix_json,
                    })
                }
                ServerMsg::Busy { active, limit } => return Ok(JobOutcome::Busy { active, limit }),
                ServerMsg::Shutdown { signal } => return Ok(JobOutcome::Shutdown { signal }),
                ServerMsg::Error { message } => {
                    return Err(ProtoError::BadFrame(format!(
                        "server rejected job: {message}"
                    )))
                }
                other => return Err(unexpected("progress/result", &other)),
            }
        }
    }
}

fn unexpected(wanted: &str, got: &ServerMsg) -> ProtoError {
    ProtoError::BadFrame(format!(
        "expected {wanted} frame, got {:?}",
        frame_kind(got)
    ))
}

fn frame_kind(msg: &ServerMsg) -> &'static str {
    match msg {
        ServerMsg::Progress { .. } => "progress",
        ServerMsg::Result { .. } => "result",
        ServerMsg::Busy { .. } => "busy",
        ServerMsg::Error { .. } => "error",
        ServerMsg::Shutdown { .. } => "shutdown",
        ServerMsg::Pong => "pong",
        ServerMsg::Stats(_) => "stats",
    }
}
