//! # ddrs — d-Dimensional Range Search on Multicomputers
//!
//! Umbrella crate re-exporting the full reproduction of
//! *Ferreira, Kenyon, Rau-Chaplin, Ubéda — "d-Dimensional Range Search on
//! Multicomputers"* (IPPS 1997 / LIP RR-1996-23):
//!
//! * [`cgm`] — the Coarse Grained Multicomputer `CGM(s, p)` simulator
//!   (SPMD supersteps, collective communication, h-relation accounting),
//! * [`rangetree`] — sequential and distributed d-dimensional range trees
//!   (hat/forest decomposition, batched multisearch, associative-function
//!   and report query modes; [`QueryBatch`](rangetree::QueryBatch) plans
//!   any mix of them into one SPMD submission, one
//!   [`Machine::run`](cgm::Machine::run) per client batch however many
//!   dynamization levels are occupied),
//! * [`baselines`] — k-d tree, brute-force scan, layered range tree and the
//!   fully-replicated parallel scheme the paper argues against,
//! * [`workloads`] — deterministic point/query generators used by the
//!   experiment harness,
//! * [`client`] — the unified client contract: the
//!   [`RangeStore`](client::RangeStore) trait every serving backend
//!   implements, composable multi-op [`Request`](client::Request)s,
//!   `Future`-based [`Ticket`](client::Ticket)s, per-request
//!   [`Consistency`](client::Consistency) bounds, and the zero-thread
//!   [`InlineStore`](client::InlineStore) backend,
//! * [`trace`] — the observability layer: per-thread ring-buffer span
//!   recording of the request lifecycle (queue → window → machine-run →
//!   merge → resolve), per-superstep machine timelines, the unified
//!   [`MetricsRegistry`](trace::MetricsRegistry), and the
//!   chrome://tracing exporter — all compiled out of release builds
//!   unless the `trace` feature is on,
//! * [`shard`] — the concurrent serving front-end
//!   ([`ShardedService`](shard::ShardedService)): multi-producer
//!   submission with future-like tickets, adaptive micro-batch
//!   coalescing into fused runs, bounded-queue admission control,
//!   per-request deadlines and epoch-scheduled updates with a
//!   batch-serializability guarantee — over one machine, or with the
//!   id/key domain partitioned (hash or range policy) across `S` shard
//!   groups, each with its own machine, store and worker: cross-shard
//!   read batches plan into per-shard fused sub-batches (≤ `S` machine
//!   runs per window), writes route by key, one global commit order, and
//!   skewed shards rebalance by subtree migration,
//! * [`net`] — the TCP network front-end: a dependency-free
//!   CRC-framed binary protocol over `std::net`, the
//!   [`NetServer`](net::NetServer) connection fan-in (per-connection
//!   reader/writer threads, out-of-order response correlation,
//!   connection limits, graceful drain) and the pooled, pipelining
//!   [`RemoteStore`](net::RemoteStore) client that implements
//!   [`RangeStore`](client::RangeStore) itself — a served store is a
//!   drop-in backend, pinned by the differential proptest running
//!   over loopback unchanged,
//! * [`wal`] — durability: the per-shard epoch write-ahead log
//!   ([`EpochWal`](wal::EpochWal)) with length-prefixed checksummed
//!   binary framing, pluggable in-memory / file-backed
//!   [`LogSink`](wal::LogSink)s, torn-tail-tolerant replay and the
//!   [`replay_into_store`](wal::replay_into_store) crash-recovery path
//!   that [`ShardedService::recover_shard`](shard::ShardedService::recover_shard)
//!   uses to rebuild a quarantined shard.
//!
//! ## Quickstart
//!
//! ```
//! use ddrs::prelude::*;
//!
//! // Eight simulated processors (p must be a power of two).
//! let machine = Machine::new(8).unwrap();
//!
//! // A small 2-d point set.
//! let pts: Vec<Point<2>> = (0..256)
//!     .map(|i| Point::new([i as i64, (i as i64 * 37) % 256], i))
//!     .collect();
//!
//! // Build the distributed range tree (Algorithm Construct).
//! let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
//!
//! // Batched queries: count, aggregate and report modes.
//! let queries = vec![Rect::new([0, 0], [127, 255]), Rect::new([10, 20], [30, 40])];
//! let counts = tree.count_batch(&machine, &queries);
//! assert_eq!(counts[0], 128);
//! ```
pub use ddrs_baselines as baselines;
pub use ddrs_cgm as cgm;
pub use ddrs_check as check;
pub use ddrs_client as client;
pub use ddrs_net as net;
pub use ddrs_rangetree as rangetree;
pub use ddrs_shard as shard;
pub use ddrs_trace as trace;
pub use ddrs_wal as wal;
pub use ddrs_workloads as workloads;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use ddrs_baselines::{
        BruteForce, KdTree, LayeredRangeTree2d, ReplicatedRangeTree, WeightedDominance2d,
    };
    pub use ddrs_cgm::{Machine, RunStats, RunStatsRollup};
    pub use ddrs_client::{
        Commit, Consistency, InlineStore, RangeStore, Request, Response, ServiceError, SubmitError,
        Ticket, WaitFor,
    };
    pub use ddrs_net::{NetConfig, NetServer, NetStats, RemoteConfig, RemoteStore};
    pub use ddrs_rangetree::{
        BatchResults, Count, DistRangeTree, DynamicDistRangeTree, Point, QueryBatch, Rect,
        SeqRangeTree, Sum,
    };
    pub use ddrs_shard::{
        PartitionPolicy, RecoveryReport, ShardedConfig, ShardedService, ShardedStats, SplitReport,
    };
    pub use ddrs_wal::{EpochWal, FileSink, LogSink, LogTail, MemSink};
    pub use ddrs_workloads::{
        ArrivalProcess, ArrivalTrace, PointDistribution, QueryWorkload, WorkloadBuilder,
    };
}
