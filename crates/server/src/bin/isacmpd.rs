//! `isacmpd` — the always-on experiment daemon.
//!
//! Usage: isacmpd [--addr HOST:PORT] [--max-jobs N] [--jobs-dir PATH]
//!                [--trace-dir PATH] [--warm MATRIX.JSON]
//!                [--warm-size NAME] [--drain-secs SECS]
//!
//! Binds the listener (port 0 lets the OS pick), prints
//! `isacmpd listening on <addr>` on stdout once ready, and serves until
//! SIGTERM/SIGINT, at which point it checkpoints in-flight jobs via their
//! cell journals, notifies connected clients with a typed `shutdown`
//! frame, and exits 0. An unknown flag, a flag missing its value or a
//! stray argument exits 2 with the usage text.

use std::path::PathBuf;
use std::time::Duration;

use bench::cli;
use isacmp::shutdown;
use server::{Config, Server};

/// Flags taking a value; `--help`/`-h` are the only bare ones.
const VALUED_FLAGS: [&str; 7] = [
    "--addr",
    "--max-jobs",
    "--jobs-dir",
    "--trace-dir",
    "--warm",
    "--warm-size",
    "--drain-secs",
];

fn usage() -> ! {
    eprintln!(
        "usage: isacmpd [--addr HOST:PORT] [--max-jobs N] [--jobs-dir PATH] \
         [--trace-dir PATH] [--warm MATRIX.JSON] [--warm-size NAME] \
         [--drain-secs SECS]"
    );
    std::process::exit(2);
}

fn or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("isacmpd: {e}");
        usage();
    })
}

fn parse_config(args: &[String]) -> Config {
    let mut cfg = Config::default();
    if let Some(addr) = cli::flag_value(args, "--addr") {
        cfg.addr = addr;
    }
    if let Some(n) = cli::flag_value(args, "--max-jobs") {
        cfg.max_jobs = or_usage(
            n.parse::<usize>()
                .map_err(|_| format!("--max-jobs expects a non-negative integer, got '{n}'")),
        );
    }
    if let Some(dir) = cli::flag_value(args, "--jobs-dir") {
        cfg.jobs_dir = PathBuf::from(dir);
    }
    if let Some(dir) = cli::flag_value(args, "--trace-dir") {
        cfg.trace_dir = Some(PathBuf::from(dir));
    }
    if let Some(path) = cli::flag_value(args, "--warm") {
        cfg.warm = Some(PathBuf::from(path));
    }
    if let Some(name) = cli::flag_value(args, "--warm-size") {
        cfg.warm_size = or_usage(cli::size_from_name(&name));
    }
    if let Some(s) = cli::flag_value(args, "--drain-secs") {
        cfg.drain_timeout = or_usage(
            s.parse::<f64>()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| format!("--drain-secs expects a non-negative number, got '{s}'")),
        );
    }
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cli::has_flag(&args, "--help") || cli::has_flag(&args, "-h") {
        usage();
    }
    or_usage(cli::check_flags(&args, &VALUED_FLAGS, &[]));
    shutdown::install();
    let cfg = parse_config(&args);
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("isacmpd: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // CI and scripts scrape this line for the bound port.
            println!("isacmpd listening on {addr}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("isacmpd: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(server.run());
}
