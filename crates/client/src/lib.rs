//! # ddrs-client — one client API over every front-end
//!
//! There are three ways to talk to the paper's distributed range tree —
//! direct `QueryBatch` execution, the coalescing `ShardedService` (one
//! machine or many), and a `RemoteStore` across a socket. This crate is
//! the **contract** every backend implements, so workloads, differential
//! tests and benches are written once and run against any of them.
//!
//! * [`RangeStore`] — the object-safe trait with the full read/write
//!   surface. The single-op conveniences (`count`, `aggregate`,
//!   `report`, `insert`, `delete` and their `_within` deadline
//!   variants) are **default methods** over one required method,
//!   [`submit`](RangeStore::submit) — the per-backend wrapper
//!   duplication is gone.
//! * [`Request`] / [`Response`] — composable multi-op requests: any mix
//!   of reads and writes submitted as one unit, returning one
//!   [`Ticket`]`<`[`Response`]`>`. A request's reads are guaranteed to
//!   plan into a single fused `QueryBatch` per shard; its writes commit
//!   first, so the reads observe them.
//! * [`Ticket`] — a real [`std::future::Future`] (waker-based, no
//!   async runtime in the tree), with blocking [`wait`](Ticket::wait) /
//!   [`wait_for`](Ticket::wait_for) adapters,
//!   [`on_resolve`](Ticket::on_resolve) callbacks and
//!   [`map`](Ticket::map) projection, all through one listener slot.
//! * [`Consistency`] — per-request read-your-writes bounds
//!   ([`Consistency::AtLeast`]) that work identically across backends.
//! * [`InlineStore`] — the zero-thread backend: `Machine` +
//!   `DynamicDistRangeTree` behind the same trait, tickets resolved
//!   synchronously. Even the raw engine speaks the client API.
//!
//! ## The same code, every backend
//!
//! ```
//! use ddrs_cgm::Machine;
//! use ddrs_client::{InlineStore, RangeStore, Request};
//! use ddrs_rangetree::{DynamicDistRangeTree, Point, Rect, Sum};
//! use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
//!
//! // One workload, written once against the trait.
//! fn workload(store: &dyn RangeStore<Sum, 2>) -> (u64, u64) {
//!     let mut req = Request::new();
//!     let w = req.insert(vec![Point::weighted([9, 9], 100, 5)]);
//!     let c = req.count(Rect::new([0, 0], [10, 10]));
//!     let a = req.aggregate(Rect::new([0, 0], [10, 10]));
//!     let resp = store.submit(req).unwrap().wait().unwrap().value;
//!     assert!(resp.write(w).is_ok());
//!     (resp.count(c), (*resp.aggregate(a)).unwrap_or(0))
//! }
//!
//! let pts: Vec<Point<2>> =
//!     (0..8).map(|i| Point::weighted([i, i], i as u32, 2)).collect();
//!
//! // Backend 1: the zero-thread inline engine.
//! let machine = Machine::new(2).unwrap();
//! let mut tree = DynamicDistRangeTree::<2>::new(8);
//! tree.insert_batch(&machine, &pts).unwrap();
//! let inline = InlineStore::new(machine, tree, Sum);
//!
//! // Backend 2: the coalescing service over one machine.
//! let service = ShardedService::start(
//!     vec![Machine::new(2).unwrap()], 8, &pts, Sum, PartitionPolicy::Hash,
//!     ShardedConfig::default(),
//! ).unwrap();
//!
//! // Backend 3: the same service scatter-gathering over two shard groups.
//! let machines = vec![Machine::new(1).unwrap(), Machine::new(1).unwrap()];
//! let sharded = ShardedService::start(
//!     machines, 8, &pts, Sum, PartitionPolicy::Hash, ShardedConfig::default(),
//! ).unwrap();
//!
//! assert_eq!(workload(&inline), (9, 21));
//! assert_eq!(workload(&service), (9, 21));
//! assert_eq!(workload(&sharded), (9, 21));
//! ```
//!
//! (The doctest above is the README's "Client API" example; CI runs it
//! as this crate's doc-test job. The `dev-dependency` on the serving
//! crate exists only for it — the library itself depends on nothing
//! above the range tree.)

#![warn(missing_docs)]

mod error;
mod inline;
mod request;
mod store;
mod ticket;

pub use error::{ServiceError, SubmitError};
pub use inline::InlineStore;
pub use request::{
    AggregateHandle, Consistency, CountHandle, Planned, PlannedOp, ReportHandle, Request, Response,
    WriteHandle, WriteOp,
};
pub use store::RangeStore;
pub use ticket::{ticket, Commit, Outcome, Resolver, Ticket, WaitFor};
