//! `sxed` — the compile-service daemon.
//!
//! Binds a loopback TCP socket, serves the frame protocol of
//! [`sxe_serve::proto`], and runs until a client sends a shutdown
//! request (which drains in-flight work and fsyncs the cache index).
//! The first stdout line is machine-readable:
//!
//! ```text
//! sxed: listening on 127.0.0.1:<port> cache=<dir>
//! ```
//!
//! so harnesses can pass `--port 0` and scrape the ephemeral port.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use sxe_jit::cmdline::Args;
use sxe_serve::{ServeConfig, Server};

const USAGE: &str = "\
usage: sxed [options]

options:
  --port <n>             TCP port on 127.0.0.1 (0 = ephemeral; default 7433)
  --cache-dir <dir>      persistent artifact cache directory (default sxed-cache)
  --threads <n>          compile worker threads (default 4)
  --queue-capacity <n>   bounded admission queue size (default 64)
  --fuel <n>             default per-request fuel budget (default unlimited)
  --timeout <ms>         default per-request wall-clock budget (default unlimited)
  --io-timeout <ms>      socket read/write timeout (default 10000)
  --frame-deadline <ms>  per-frame read deadline once a frame has started,
                         the slow-loris cutoff (default 2000)
  --max-conns <n>        connection cap; beyond it new connections get a typed
                         connection-limit refusal (0 = unlimited; default 256)
  --retry-after <ms>     backoff hint attached to refusals (default 25)
  --write-delay-ms <ms>  test hook: slow cache writes to widen the crash window
  --help                 print this help";

fn main() -> ExitCode {
    let mut port: u16 = 7433;
    let mut config = ServeConfig::default();
    let mut args = Args::from_env("sxed", USAGE);
    // Milliseconds; `off_at_0` maps 0 to `None` ("unlimited", "no delay"),
    // the other durations clamp it to 1 ms.
    let ms = |n: u64| Duration::from_millis(n.max(1));
    let off_at_0 = |n: u64| (n > 0).then(|| Duration::from_millis(n));
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--port" => port = args.value(),
            "--cache-dir" => config.cache_dir = args.value(),
            "--threads" => config.threads = args.value(),
            "--queue-capacity" => config.queue_capacity = args.value(),
            "--fuel" => config.default_fuel = Some(args.value()),
            "--timeout" => config.default_time_limit = off_at_0(args.value()),
            "--io-timeout" => config.io_timeout = ms(args.value()),
            "--frame-deadline" => config.frame_deadline = ms(args.value()),
            "--max-conns" => config.max_connections = args.value(),
            "--retry-after" => config.retry_after = Duration::from_millis(args.value()),
            "--write-delay-ms" => config.write_delay = off_at_0(args.value()),
            "--help" | "-h" => args.help(),
            _ => args.unexpected(),
        }
    }
    let cache_dir = config.cache_dir.clone();
    let server = match Server::start(port, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sxed: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("sxed: listening on 127.0.0.1:{} cache={}", server.port(), cache_dir.display());
    let _ = std::io::stdout().flush();
    server.wait();
    println!("sxed: shut down cleanly");
    ExitCode::SUCCESS
}
