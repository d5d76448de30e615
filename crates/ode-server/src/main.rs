//! `ode-server` binary: serve an engine root over TCP.
//!
//! ```text
//! ode-server --root /var/lib/ode --addr 127.0.0.1:7479 --token sesame
//! ode-server --volatile --addr 127.0.0.1:0 --token dev
//! ```
//!
//! With `--volatile` every database lives in memory and dies with the
//! process. The bound address is printed on stdout as `LISTENING <addr>`
//! (scripts can parse it when binding port 0). `--metrics-addr` starts
//! the HTTP scrape endpoint (`GET /metrics`, `GET /healthz`), printed
//! as `METRICS <addr>`; `--slow-ms N` traces every statement and logs
//! the span tree of any statement slower than N milliseconds to
//! stderr. By default a batch frame's commits are made durable together
//! at the frame's end; `--no-piggyback` makes each statement wait for its
//! own commit before the next one runs.
//!
//! A flag that takes a value and is given none is an error (exit 2),
//! never a silent fall-back to a default such as the well-known token.

use ode_core::Engine;
use ode_server::{MetricsServer, Server, ServerOptions};
use ode_storage::StorageOptions;

/// The value following `flag`; exits 2 when the command line ends first.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} wants a value (try --help)");
        std::process::exit(2);
    })
}

fn main() {
    let mut root: Option<String> = None;
    let mut addr = "127.0.0.1:7479".to_string();
    let mut token = "ode".to_string();
    let mut volatile = false;
    let mut metrics_addr: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut server_options = ServerOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(value(&mut args, "--root")),
            "--addr" => addr = value(&mut args, "--addr"),
            "--token" => token = value(&mut args, "--token"),
            "--volatile" => volatile = true,
            "--metrics-addr" => metrics_addr = Some(value(&mut args, "--metrics-addr")),
            "--no-piggyback" => server_options.piggyback = false,
            "--slow-ms" => match value(&mut args, "--slow-ms").parse() {
                Ok(ms) => slow_ms = Some(ms),
                Err(_) => {
                    eprintln!("--slow-ms wants an integer millisecond threshold");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: ode-server [--root DIR | --volatile] [--addr HOST:PORT] \
                     [--token TOKEN] [--metrics-addr HOST:PORT] [--slow-ms N] \
                     [--no-piggyback]\n\n  \
                     --no-piggyback  wait for each statement's commit before the next \
                     statement, instead of once at the end of a batch frame"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let slow_micros = slow_ms.map(|ms| ms.saturating_mul(1000));
    let options = StorageOptions {
        slow_statement_micros: slow_micros,
        ..StorageOptions::default()
    };
    let engine = match (volatile, root) {
        (true, _) => Engine::volatile_with(StorageOptions {
            slow_statement_micros: slow_micros,
            ..StorageOptions::memory()
        }),
        (false, Some(root)) => match Engine::open(&root, options) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("open engine root: {e}");
                std::process::exit(1);
            }
        },
        (false, None) => {
            eprintln!("need --root DIR or --volatile (try --help)");
            std::process::exit(2);
        }
    };
    let server = match Server::start_with(
        std::sync::Arc::clone(&engine),
        &addr,
        &token,
        server_options,
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTENING {}", server.addr());
    let _metrics = metrics_addr.map(|maddr| match MetricsServer::start(engine, &maddr) {
        Ok(metrics) => {
            println!("METRICS {}", metrics.addr());
            metrics
        }
        Err(e) => {
            eprintln!("bind metrics {maddr}: {e}");
            std::process::exit(1);
        }
    });
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
