//! The `lineup-server` binary: run the monitoring service, or replay a
//! captured wire stream through the same ingest path.
//!
//! ```text
//! lineup-server [--tcp ADDR] [--unix PATH] [--window N]
//!               [--stats-secs N] [--json] [--replay FILE ...]
//! ```
//!
//! With `--replay`, the listed capture files (e.g. from the `capture`
//! bin of `lineup-bench`) are ingested offline, the final snapshot is
//! printed, and the exit code reflects the verdict (1 on violations).
//! A file that cannot be opened or does not decode as a wire stream
//! exits 2, as a usage error does, so it never reads as a verdict.
//! Otherwise the service listens until a client sends `Shutdown`,
//! logging a stats line every `--stats-secs` (0 disables). `--json`
//! switches the final snapshot to JSON.

use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lineup_server::{Engine, EngineConfig, Server, ServerConfig, ShardConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut window: usize = 512;
    let mut stats_secs: u64 = 10;
    let mut json = false;
    let mut replay: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                i += 1;
                tcp = Some(expect_value(&args, i, "--tcp"));
            }
            "--unix" => {
                i += 1;
                unix = Some(expect_value(&args, i, "--unix"));
            }
            "--window" => {
                i += 1;
                window = expect_value(&args, i, "--window")
                    .parse()
                    .unwrap_or_else(|_| usage("--window expects a number"));
            }
            "--stats-secs" => {
                i += 1;
                stats_secs = expect_value(&args, i, "--stats-secs")
                    .parse()
                    .unwrap_or_else(|_| usage("--stats-secs expects a number"));
            }
            "--json" => json = true,
            "--replay" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    replay.push(args[i].clone());
                    i += 1;
                }
                continue;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let engine_config = EngineConfig {
        shard: ShardConfig {
            window_target: window,
        },
    };

    if !replay.is_empty() {
        return replay_files(engine_config, &replay, json);
    }

    if tcp.is_none() && unix.is_none() {
        tcp = Some("127.0.0.1:7117".to_string());
    }
    let server = match Server::spawn(ServerConfig {
        tcp,
        unix: unix.map(Into::into),
        engine: engine_config,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lineup-server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = server.tcp_addr() {
        eprintln!("lineup-server: listening on tcp://{addr}");
    }
    let engine = Arc::clone(server.engine());
    let ticker = (stats_secs > 0).then(|| {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            while !engine.shutdown_requested() {
                thread::sleep(Duration::from_secs(stats_secs.min(1)));
                let mut waited = 1;
                while waited < stats_secs && !engine.shutdown_requested() {
                    thread::sleep(Duration::from_secs(1));
                    waited += 1;
                }
                if !engine.shutdown_requested() {
                    eprintln!("lineup-server: {}", engine.snapshot().one_line());
                }
            }
        })
    });
    server.join();
    if let Some(t) = ticker {
        let _ = t.join();
    }
    report(&engine, json)
}

fn replay_files(config: EngineConfig, files: &[String], json: bool) -> ExitCode {
    let engine = Engine::new(config);
    for file in files {
        let f = match std::fs::File::open(file) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("lineup-server: cannot open {file}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = lineup_server::ingest_stream(&engine, f) {
            eprintln!("lineup-server: {file}: {e}");
            return ExitCode::from(2);
        }
    }
    report(&engine, json)
}

fn report(engine: &Engine, json: bool) -> ExitCode {
    let snapshot = engine.snapshot();
    if json {
        println!("{}", snapshot.to_json());
    } else {
        println!("{}", snapshot.one_line());
    }
    // counters already include live shards (snapshot folds them in).
    if snapshot.counters.violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn expect_value(args: &[String], i: usize, flag: &str) -> String {
    args.get(i)
        .cloned()
        .unwrap_or_else(|| usage(&format!("{flag} expects a value")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("lineup-server: {err}");
    }
    eprintln!(
        "usage: lineup-server [--tcp ADDR] [--unix PATH] [--window N] \
         [--stats-secs N] [--json] [--replay FILE ...]"
    );
    std::process::exit(2);
}
