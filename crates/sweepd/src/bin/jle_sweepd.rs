//! `jle-sweepd` — run the resident sweep service.
//!
//! ```text
//! jle-sweepd --socket /tmp/sweepd.sock --cache-dir results/.cache
//! jle-sweepd --listen 127.0.0.1:7677 --workers 2 --prom-dump /tmp/sweepd.prom
//! ```
//!
//! The service answers the JSONL protocol on the socket; an HTTP-ish
//! `GET` on the same socket (e.g. `curl http://127.0.0.1:7677/metrics`)
//! returns the Prometheus export.

use jle_sweepd::{Endpoint, ServerConfig, SweepServer};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
jle-sweepd: resident multi-tenant experiment service

USAGE:
  jle-sweepd (--socket PATH | --listen ADDR) [OPTIONS]

OPTIONS:
  --socket PATH       Listen on a Unix-domain socket
  --listen ADDR       Listen on a TCP address (e.g. 127.0.0.1:7677)
  --cache-dir DIR     Result-store root (default: in-memory only)
  --workers N         Worker threads (default: half the cores)
  --mc-jobs N         Monte-Carlo threads per job while others wait
                      (default: 1); a lone job borrows idle workers'
                      threads and gives them back when another queues
  --max-queue N       Bounded queue length (default: 64)
  --client-share N    Max in-flight jobs per client (default: 8)
  --chunk-size N      Checkpoint chunk size (default: 32)
  --salt S            Cache-key salt (default: jle-sim-v1)
  --progress-ms N     Min ms between progress frames (default: 100)
  --prom-dump PATH    Periodically write the Prometheus text here
  -h, --help          This text
";

fn fail(msg: &str) -> ! {
    eprintln!("jle-sweepd: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--socket" => endpoint = Some(Endpoint::Unix(PathBuf::from(value("--socket")))),
            "--listen" => endpoint = Some(Endpoint::Tcp(value("--listen").to_string())),
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--workers" => {
                config.workers =
                    value("--workers").parse().unwrap_or_else(|_| fail("bad --workers"))
            }
            "--mc-jobs" => {
                config.mc_jobs =
                    value("--mc-jobs").parse().unwrap_or_else(|_| fail("bad --mc-jobs"))
            }
            "--max-queue" => {
                config.max_queue =
                    value("--max-queue").parse().unwrap_or_else(|_| fail("bad --max-queue"))
            }
            "--client-share" => {
                config.client_share =
                    value("--client-share").parse().unwrap_or_else(|_| fail("bad --client-share"))
            }
            "--chunk-size" => {
                config.chunk_size =
                    value("--chunk-size").parse().unwrap_or_else(|_| fail("bad --chunk-size"))
            }
            "--salt" => config.salt = value("--salt").to_string(),
            "--progress-ms" => {
                config.progress_every = Duration::from_millis(
                    value("--progress-ms").parse().unwrap_or_else(|_| fail("bad --progress-ms")),
                )
            }
            "--prom-dump" => config.prom_dump = Some(PathBuf::from(value("--prom-dump"))),
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    let Some(endpoint) = endpoint else { fail("one of --socket or --listen is required") };

    let server = match SweepServer::bind(&endpoint, config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jle-sweepd: cannot bind {endpoint}: {e}");
            std::process::exit(1);
        }
    };
    match server.tcp_addr() {
        Some(addr) => eprintln!("jle-sweepd: listening on tcp:{addr}"),
        None => eprintln!("jle-sweepd: listening on {endpoint}"),
    }
    if let Some(dir) = &config.cache_dir {
        eprintln!("jle-sweepd: result store at {}", dir.display());
    }
    if let Err(e) = server.serve() {
        eprintln!("jle-sweepd: accept loop failed: {e}");
        std::process::exit(1);
    }
    eprintln!("jle-sweepd: drained, bye");
}
