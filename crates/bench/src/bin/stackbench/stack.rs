//! The served stack the `served_*` workloads and the ladder stand up,
//! and the process-level facts every result carries.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ddrs_cgm::Machine;
use ddrs_net::{NetConfig, NetServer, RemoteConfig, RemoteStore};
use ddrs_rangetree::{DynamicDistRangeTree, Point, Sum};
use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
use ddrs_wal::{FileSink, LogSink, MemSink};

use crate::gen::CAPACITY;
use crate::json::Json;
use crate::stats::median;

pub const SHARDS: usize = 2;
pub const QUEUE_CAPACITY: usize = 65_536;
pub const FLUSH_POLICY: &str = "FileSink: plain write per record, never fsync";

pub const SHARDED_CONFIG: ShardedConfig = ShardedConfig {
    max_batch: 128,
    max_delay: Duration::from_micros(300),
    queue_capacity: QUEUE_CAPACITY,
    rebalance_factor: 0.0,
    rebalance_min: 64,
};

/// What one invocation was asked to do.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed part lasts; fixed-work workloads size their
    /// work from it, so the work is the same whenever this is.
    pub seconds: f64,
    pub traced: bool,
    /// Stack builds per run; `setup_s` is their median.
    pub setups: usize,
    pub host: Host,
    pub out_dir: PathBuf,
    /// Per-process directory for WAL files, under `out_dir`.
    pub wal_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Largest power of two within `min(nproc, 4)`.
    pub p_bench: usize,
    /// Client threads and TCP connections: `min(nproc, 2)`.
    pub clients: usize,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut p_bench = 1;
        while p_bench * 2 <= nproc.min(4) {
            p_bench *= 2;
        }
        Host { nproc, p_bench, clients: nproc.clamp(1, 2) }
    }

    pub fn json(&self, run: &Run) -> Json {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("p_bench", Json::Num(self.p_bench as f64)),
            ("clients", Json::Num(self.clients as f64)),
            ("commit", Json::Str(commit)),
            ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
            (
                "features",
                Json::obj(vec![("crate_span_recording", Json::Bool(ddrs_trace::enabled()))]),
            ),
            ("seed", Json::Num(run.seed as f64)),
            ("seconds", Json::Num(run.seconds)),
            ("flush_policy", Json::str(FLUSH_POLICY)),
        ])
    }
}

/// No pass may take longer than this. A fixed-work pass that would is a
/// failed run and says so; nothing is cut short to make it fit.
const PASS_LIMIT: Duration = Duration::from_secs(29);

pub fn check_pass_limit(pass_start: Instant, workload: &str) {
    if pass_start.elapsed() > PASS_LIMIT {
        eprintln!("stackbench: {workload} did not finish its fixed work within {PASS_LIMIT:?}");
        std::process::exit(3);
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times every stack build of a run; `setup_s` is their median. A run
/// builds its stack several times (each torn down before the next) so
/// that one slow build does not decide the metric.
#[derive(Default)]
pub struct SetupClock {
    times: Vec<f64>,
}

impl SetupClock {
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = build();
        self.times.push(t0.elapsed().as_secs_f64());
        built
    }

    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// A store at `p` built from `batches`, one `insert_batch` each.
pub fn build_store(p: usize, batches: &[&[Point<2>]]) -> (Machine, DynamicDistRangeTree<2>) {
    let machine = Machine::new(p).expect("p is a power of two");
    let mut tree = DynamicDistRangeTree::new(CAPACITY);
    for b in batches {
        tree.insert_batch(&machine, b).expect("generated ids are unique");
    }
    machine.take_stats();
    (machine, tree)
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Sink {
    Mem,
    File,
}

static NEXT_LOG: AtomicU64 = AtomicU64::new(0);

/// `shards` groups of `p = 1`, range partition from the initial points.
pub fn start_service(
    shards: usize,
    initial: &[Point<2>],
    sink: Sink,
    wal_dir: &Path,
) -> ShardedService<Sum, 2> {
    let machines = (0..shards).map(|_| Machine::new(1).expect("p = 1")).collect();
    let sinks = (0..shards)
        .map(|_| match sink {
            Sink::Mem => Box::new(MemSink::new()) as Box<dyn LogSink>,
            Sink::File => {
                // A fresh file per log: an earlier build's service may
                // still be draining on another thread.
                let n = NEXT_LOG.fetch_add(1, Ordering::Relaxed);
                let path = wal_dir.join(format!("shard-{n}.log"));
                Box::new(FileSink::create(&path).expect("creating a WAL file under the out dir"))
            }
        })
        .collect();
    ShardedService::start_with_sinks(
        machines,
        CAPACITY,
        initial,
        Sum,
        PartitionPolicy::range_from_sample(shards, initial),
        SHARDED_CONFIG,
        sinks,
    )
    .expect("generated ids are unique")
}

/// `RemoteStore` → loopback TCP → `NetServer` → `ShardedService`, all in
/// this process so the harness can read `stats()`.
///
/// Field order is drop order: the client closes its sockets, the server
/// drains and joins its connection threads, and only then does this
/// handle on the service go.
pub struct Served {
    pub remote: RemoteStore<Sum, 2>,
    pub server: NetServer<Sum, 2>,
    pub service: Arc<ShardedService<Sum, 2>>,
}

impl Served {
    /// Take the stack down and wait until the service itself is gone, so
    /// the next build does not share memory or cores with this one.
    ///
    /// A connection thread can still hold the server's handle on the
    /// service for a moment after `NetServer::shutdown` returns, so the
    /// service is never `Arc::try_unwrap`ped (that panicked in two runs
    /// of three when tried): whichever thread drops the last handle
    /// drains the router, and this waits for it.
    pub fn teardown(self) {
        let Served { remote, server, service } = self;
        drop(remote);
        server.shutdown();
        let gone = Arc::downgrade(&service);
        drop(service);
        let t0 = Instant::now();
        while gone.strong_count() > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

pub fn serve(service: ShardedService<Sum, 2>, connections: usize) -> Served {
    let service = Arc::new(service);
    let server = NetServer::serve(
        Box::new(Arc::clone(&service)),
        "127.0.0.1:0",
        NetConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            queue_capacity: QUEUE_CAPACITY,
        },
    )
    .expect("binding a loopback port");
    let remote = RemoteStore::connect(server.local_addr(), RemoteConfig { connections })
        .expect("connecting to the in-process server");
    Served { remote, server, service }
}

/// The full served stack of the `served_*` workloads.
pub fn served_stack(run: &Run, initial: &[Point<2>]) -> Served {
    serve(start_service(SHARDS, initial, Sink::File, &run.wal_dir), run.host.clients)
}

/// Silence the panic output of simulated processors for the life of the
/// guard: the injected fault of `crash_recover` is expected, and a real
/// failure there still surfaces as a machine error the workload counts.
pub struct QuietRankPanics;

impl QuietRankPanics {
    pub fn install() -> QuietRankPanics {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let rank = std::thread::current().name().is_some_and(|n| n.starts_with("cgm-worker"));
            if !rank {
                default_hook(info);
            }
        }));
        QuietRankPanics
    }
}

impl Drop for QuietRankPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}
