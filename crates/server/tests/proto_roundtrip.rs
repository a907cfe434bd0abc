//! Wire-protocol conformance: every message round-trips exactly, every
//! malformed input is a typed error, and no byte stream — random or
//! adversarial — can panic the frame reader.

use std::io::Cursor;

use server::proto::{self, read_frame, FrameReader, ReadOutcome};
use server::{ClientMsg, JobSpec, ProtoError, ServerMsg, StatsBody, MAX_FRAME, PROTO_VERSION};

fn frame_bytes(j: &isacmp::telemetry::Json) -> Vec<u8> {
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, j).expect("frame fits");
    buf
}

fn roundtrip_client(msg: ClientMsg) {
    let bytes = frame_bytes(&msg.to_json());
    let json = read_frame(&mut Cursor::new(bytes)).expect("readable frame");
    assert_eq!(ClientMsg::from_json(&json).expect("valid message"), msg);
}

fn roundtrip_server(msg: ServerMsg) {
    let bytes = frame_bytes(&msg.to_json());
    let json = read_frame(&mut Cursor::new(bytes)).expect("readable frame");
    assert_eq!(ServerMsg::from_json(&json).expect("valid message"), msg);
}

#[test]
fn client_messages_round_trip() {
    roundtrip_client(ClientMsg::Ping);
    roundtrip_client(ClientMsg::Stats);
    roundtrip_client(ClientMsg::Submit {
        job: JobSpec::matrix(isacmp::SizeClass::Test),
    });
    let full = JobSpec {
        size: isacmp::SizeClass::Small,
        retries: 3,
        deadline_secs: Some(2.5),
        inject: None,
        campaign: Some("42:6".into()),
        fusion: false,
    };
    roundtrip_client(ClientMsg::Submit { job: full });

    // A fused job: the `fusion` flag must survive the wire.
    let mut fused = JobSpec::matrix(isacmp::SizeClass::Test);
    fused.fusion = true;
    roundtrip_client(ClientMsg::Submit { job: fused });
}

#[test]
fn server_messages_round_trip() {
    roundtrip_server(ServerMsg::Pong);
    roundtrip_server(ServerMsg::Busy {
        active: 64,
        limit: 64,
    });
    roundtrip_server(ServerMsg::Error {
        message: "no \"such\" job\nnewline".into(),
    });
    roundtrip_server(ServerMsg::Shutdown {
        signal: "SIGTERM".into(),
    });
    roundtrip_server(ServerMsg::Progress {
        done: 7,
        total: 20,
        cell: "dhrystone/gcc-12.2/RISC-V".into(),
        cached: true,
    });
    roundtrip_server(ServerMsg::Stats(StatsBody {
        jobs_total: 1,
        jobs_active: 2,
        cache_hits: 3,
        cache_misses: 4,
        cache_cells: 5,
        pool_workers: 6,
        pool_queued: 7,
        pool_executed: 8,
        pool_stolen: 9,
    }));
    // The matrix travels as a JSON string; the codec's escape round-trip
    // must preserve every byte, including quotes, newlines and unicode.
    roundtrip_server(ServerMsg::Result {
        hits: 19,
        misses: 1,
        failures: 0,
        matrix_json: "{\n  \"cells\": [\"\\u0001 weird \\\\ text\"]\n}\n".into(),
    });
}

#[test]
fn truncated_frames_are_typed_errors() {
    // A complete frame chopped anywhere mid-payload strands bytes.
    let bytes = frame_bytes(&ClientMsg::Ping.to_json());
    for cut in 1..bytes.len() {
        let err = read_frame(&mut Cursor::new(&bytes[..cut])).expect_err("truncated");
        match err {
            ProtoError::Truncated { have } => assert_eq!(have, cut),
            other => panic!("expected Truncated at cut {cut}, got {other:?}"),
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_payload() {
    // Only the 4-byte prefix arrives: the reader must reject it without
    // waiting for (or buffering) a single payload byte.
    let prefix = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
    let err = read_frame(&mut Cursor::new(prefix)).expect_err("oversized");
    assert_eq!(
        err,
        ProtoError::Oversized {
            len: MAX_FRAME + 1,
            max: MAX_FRAME
        }
    );
}

#[test]
fn zero_length_and_corrupt_payloads_are_typed_errors() {
    let err = read_frame(&mut Cursor::new(0u32.to_be_bytes().to_vec())).expect_err("zero length");
    assert!(
        matches!(err, ProtoError::BadFrame(_)),
        "zero-length: {err:?}"
    );

    let mut corrupt = (7u32.to_be_bytes()).to_vec();
    corrupt.extend_from_slice(b"{nope!!");
    let err = read_frame(&mut Cursor::new(corrupt)).expect_err("corrupt json");
    assert!(
        matches!(err, ProtoError::BadJson(_)),
        "corrupt json: {err:?}"
    );

    let mut not_utf8 = (4u32.to_be_bytes()).to_vec();
    not_utf8.extend_from_slice(&[0xff, 0xfe, 0x80, 0x80]);
    let err = read_frame(&mut Cursor::new(not_utf8)).expect_err("bad utf-8");
    assert!(matches!(err, ProtoError::BadFrame(_)), "bad utf-8: {err:?}");
}

#[test]
fn job_spec_rejects_deadlines_a_duration_cannot_hold() {
    let spec = |d: f64| {
        let mut job = JobSpec::matrix(isacmp::SizeClass::Test);
        job.deadline_secs = Some(d);
        job.to_json()
    };
    assert!(JobSpec::from_json(&spec(2.5)).is_ok());
    // Finite and non-negative, yet far beyond `Duration::MAX`.
    let err = JobSpec::from_json(&spec(1e30)).expect_err("1e30 s is no deadline");
    assert!(
        matches!(&err, ProtoError::BadFrame(m) if m.contains("deadline_secs")),
        "{err:?}"
    );
}

#[test]
fn version_mismatch_is_typed() {
    let mut j = ClientMsg::Ping.to_json();
    if let isacmp::telemetry::Json::Obj(fields) = &mut j {
        for (k, v) in fields.iter_mut() {
            if k == "proto" {
                *v = isacmp::telemetry::Json::Num(99.0);
            }
        }
    }
    let err = ClientMsg::from_json(&j).expect_err("version mismatch");
    assert_eq!(
        err,
        ProtoError::VersionMismatch {
            got: 99,
            want: PROTO_VERSION
        }
    );
}

#[test]
fn reader_keeps_partial_frames_across_idle_polls() {
    // Feed a frame one byte per poll through a reader that sees
    // WouldBlock between bytes — mid-frame bytes must survive Idle.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        ready: bool,
    }
    impl std::io::Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() {
                return Ok(0);
            }
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            out[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }
    let msg = ServerMsg::Busy {
        active: 1,
        limit: 2,
    };
    let mut src = Trickle {
        bytes: frame_bytes(&msg.to_json()),
        pos: 0,
        ready: false,
    };
    let mut reader = FrameReader::new();
    let mut idles = 0u32;
    loop {
        match reader.poll(&mut src).expect("no protocol error") {
            ReadOutcome::Frame(j) => {
                assert_eq!(ServerMsg::from_json(&j).unwrap(), msg);
                break;
            }
            ReadOutcome::Idle => idles += 1,
            ReadOutcome::Closed => panic!("closed before the frame completed"),
        }
        assert!(idles < 10_000, "reader made no progress");
    }
    assert!(
        idles > 0,
        "the trickle source should have idled at least once"
    );
}

#[test]
fn two_frames_in_one_buffer_both_parse() {
    let mut bytes = frame_bytes(&ServerMsg::Pong.to_json());
    bytes.extend_from_slice(&frame_bytes(
        &ServerMsg::Error {
            message: "x".into(),
        }
        .to_json(),
    ));
    let mut cursor = Cursor::new(bytes);
    let mut reader = FrameReader::new();
    let first = match reader.poll(&mut cursor).unwrap() {
        ReadOutcome::Frame(j) => ServerMsg::from_json(&j).unwrap(),
        other => panic!("expected first frame, got {other:?}"),
    };
    assert_eq!(first, ServerMsg::Pong);
    let second = match reader.poll(&mut cursor).unwrap() {
        ReadOutcome::Frame(j) => ServerMsg::from_json(&j).unwrap(),
        other => panic!("expected second frame, got {other:?}"),
    };
    assert_eq!(
        second,
        ServerMsg::Error {
            message: "x".into()
        }
    );
    assert!(matches!(
        reader.poll(&mut cursor).unwrap(),
        ReadOutcome::Closed
    ));
}

/// The same deterministic mixer the fault injector uses (simcore's
/// `splitmix64`), inlined: the crate doesn't re-export it.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[test]
fn fuzzed_byte_streams_never_panic_the_reader() {
    // 64 seeded random streams, up to 4 KiB each: every poll must return
    // a frame, idle/close, or a *typed* error — never panic, never loop.
    for seed in 0..64u64 {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xD15EA5E;
        let len = 64 + (splitmix64(&mut state) % 4096) as usize;
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            bytes.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        // Half the streams get a plausible small length prefix up front so
        // the parser exercises payload paths, not just Oversized.
        if seed % 2 == 0 {
            let small = (splitmix64(&mut state) % 256) as u32;
            bytes[..4].copy_from_slice(&small.to_be_bytes());
        }
        let mut cursor = Cursor::new(bytes);
        let mut reader = FrameReader::new();
        for _ in 0..1024 {
            match reader.poll(&mut cursor) {
                Ok(ReadOutcome::Frame(j)) => {
                    // Whatever parsed must still go through message
                    // decoding without panicking.
                    let _ = ClientMsg::from_json(&j);
                    let _ = ServerMsg::from_json(&j);
                }
                Ok(ReadOutcome::Idle) => continue,
                Ok(ReadOutcome::Closed) => break,
                Err(_typed) => break,
            }
        }
    }
}

#[test]
fn job_spec_canonical_is_stable_and_discriminating() {
    let a = JobSpec::matrix(isacmp::SizeClass::Test);
    // The journal-recovery contract: the canonical string (and thus the
    // journal file name) must not drift between builds.
    assert_eq!(a.canonical(), "v3:test:r1:d-:i-:c-");
    let mut b = a.clone();
    b.retries = 2;
    assert_ne!(a.canonical(), b.canonical());
    let mut c = a.clone();
    c.size = isacmp::SizeClass::Small;
    assert_ne!(a.canonical(), c.canonical());
    // The fusion axis must discriminate cache/journal identity, and it does
    // so with a suffix so every pre-fusion canonical string stays byte-stable.
    let mut f = a.clone();
    f.fusion = true;
    assert_ne!(a.canonical(), f.canonical());
    assert_eq!(f.canonical(), "v3:test:r1:d-:i-:c-:f1");
}

#[test]
fn job_spec_from_args_uses_the_shared_cli_grammar() {
    let args: Vec<String> = ["--size", "test", "--retries", "2", "--campaign", "7:3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let spec = JobSpec::from_args(&args).expect("valid args");
    assert_eq!(spec.size, isacmp::SizeClass::Test);
    assert_eq!(spec.retries, 2);
    assert_eq!(spec.campaign.as_deref(), Some("7:3"));

    let bad: Vec<String> = ["--size", "galactic"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(JobSpec::from_args(&bad).is_err());

    // `--fusion` arms the fusion axis.
    let fused: Vec<String> = ["--fusion", "--size", "test"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let spec = JobSpec::from_args(&fused).expect("valid args");
    assert!(spec.fusion);
}
