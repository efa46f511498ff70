//! Inputs and the sequential oracle. Everything here is a function of
//! `--seed`; the stack under test receives only what this module made.

use ddrs_client::{Request, Response};
use ddrs_rangetree::{Point, Rect, SeqRangeTree, Sum};
use ddrs_workloads::{
    PointDistribution, QueryDistribution, QueryMode, QueryWorkload, WorkloadBuilder,
};

pub const SIDE: i64 = 1 << 20;
/// Rebuild unit of every store the benchmark builds.
pub const CAPACITY: usize = 1024;
/// count : aggregate : report.
pub const MODE_MIX: (u32, u32, u32) = (2, 1, 1);
pub const UNIFORM: QueryDistribution = QueryDistribution::Selectivity { fraction: 0.0005 };
pub const HOTSPOT: QueryDistribution = QueryDistribution::HotSpot { region: 0.03, fraction: 0.5 };

pub const EVERYTHING: Rect<2> = Rect { lo: [i64::MIN, i64::MIN], hi: [i64::MAX, i64::MAX] };

/// An independent stream per purpose, so adding a draw to one input
/// never shifts another (splitmix64's finaliser).
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` uniform points with ids `0..n`.
pub fn points(seed: u64, n: usize) -> Vec<Point<2>> {
    WorkloadBuilder::new(subseed(seed, 1), n).points(PointDistribution::UniformCube { side: SIDE })
}

/// The reads of one request or one kernel batch, by mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reads {
    pub counts: Vec<Rect<2>>,
    pub aggs: Vec<Rect<2>>,
    pub reports: Vec<Rect<2>>,
}

impl Reads {
    pub fn len(&self) -> usize {
        self.counts.len() + self.aggs.len() + self.reports.len()
    }
}

/// `batches` distinct mixed batches of `per_batch` reads over `pts`'
/// bounding box, stream `stream + i` for batch `i`.
pub fn read_batches(
    pts: &[Point<2>],
    seed: u64,
    stream: u64,
    dist: QueryDistribution,
    batches: usize,
    per_batch: usize,
) -> Vec<Reads> {
    (0..batches)
        .map(|i| {
            let mut reads = Reads::default();
            let gen = QueryWorkload::from_points(pts, subseed(seed, stream + i as u64));
            for q in gen.mixed(dist, MODE_MIX, per_batch) {
                match q.mode {
                    QueryMode::Count => reads.counts.push(q.rect),
                    QueryMode::Aggregate => reads.aggs.push(q.rect),
                    QueryMode::Report => reads.reports.push(q.rect),
                }
            }
            reads
        })
        .collect()
}

/// One request the harness can rebuild as often as it sends it
/// (`Request` is consumed by `submit` and is not `Clone`).
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    Reads(Reads),
    Insert(Vec<Point<2>>),
    Delete(Vec<u32>),
}

impl Spec {
    pub fn build(&self) -> Request<Sum, 2> {
        let mut req = Request::new();
        match self {
            Spec::Reads(r) => {
                for q in &r.counts {
                    req.count(*q);
                }
                for q in &r.aggs {
                    req.aggregate(*q);
                }
                for q in &r.reports {
                    req.report(*q);
                }
            }
            Spec::Insert(pts) => {
                req.insert(pts.clone());
            }
            Spec::Delete(ids) => {
                req.delete(ids.clone());
            }
        }
        req
    }

    /// Reads carried (0 for a write).
    pub fn reads(&self) -> usize {
        match self {
            Spec::Reads(r) => r.len(),
            _ => 0,
        }
    }
}

/// What the oracle says a set of reads returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Answers {
    pub counts: Vec<u64>,
    pub aggs: Vec<Option<u64>>,
    pub reports: Vec<Vec<u32>>,
}

impl Answers {
    pub fn matches_response(&self, resp: &Response<Sum>) -> bool {
        self.counts == resp.counts && self.aggs == resp.aggregates && self.reports == resp.reports
    }

    /// Mean ids per report query (0 without reports).
    pub fn k_per_report(all: &[Answers]) -> f64 {
        let (k, n) = all
            .iter()
            .flat_map(|a| &a.reports)
            .fold((0usize, 0usize), |(k, n), r| (k + r.len(), n + 1));
        if n == 0 {
            0.0
        } else {
            k as f64 / n as f64
        }
    }
}

/// The plain single-threaded baseline every answer is checked against.
pub struct Oracle {
    tree: SeqRangeTree<2>,
}

impl Oracle {
    pub fn build(pts: &[Point<2>]) -> Oracle {
        Oracle { tree: SeqRangeTree::build(pts).expect("generated ids are unique") }
    }

    pub fn answer(&self, reads: &Reads) -> Answers {
        Answers {
            counts: reads.counts.iter().map(|q| self.tree.count(q)).collect(),
            aggs: reads.aggs.iter().map(|q| self.tree.aggregate(&Sum, q)).collect(),
            reports: reads.reports.iter().map(|q| self.tree.report(q)).collect(),
        }
    }
}

/// The flat oracle of the write workloads: a list of live points,
/// answered by scanning. Writes are replayed into it in commit order.
pub struct FlatOracle {
    pub live: Vec<Point<2>>,
}

impl FlatOracle {
    pub fn answer(&self, reads: &Reads) -> Answers {
        let hits = |q: &Rect<2>| -> Vec<&Point<2>> {
            self.live.iter().filter(|p| q.contains(p)).collect()
        };
        Answers {
            counts: reads.counts.iter().map(|q| hits(q).len() as u64).collect(),
            aggs: reads
                .aggs
                .iter()
                .map(|q| hits(q).iter().map(|p| p.weight).reduce(|a, b| a + b))
                .collect(),
            reports: reads
                .reports
                .iter()
                .map(|q| {
                    let mut ids: Vec<u32> = hits(q).iter().map(|p| p.id).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect(),
        }
    }

    pub fn delete(&mut self, ids: &[u32]) {
        let dead: std::collections::HashSet<u32> = ids.iter().copied().collect();
        self.live.retain(|p| !dead.contains(&p.id));
    }
}

/// The end-of-run probe of the write workloads: the full-range count
/// plus 32 mixed reads, as one request.
pub fn probe_reads(pts: &[Point<2>], seed: u64) -> Reads {
    let mut reads = read_batches(pts, seed, 900, UNIFORM, 1, 32).remove(0);
    reads.counts.push(EVERYTHING);
    reads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_the_two_oracles_agree() {
        let pts = points(5, 4096);
        assert_eq!(pts, points(5, 4096));
        assert_ne!(pts, points(6, 4096));
        let batches =
            read_batches(&pts, 5, 10, QueryDistribution::Selectivity { fraction: 0.01 }, 3, 40);
        assert_eq!(
            batches,
            read_batches(&pts, 5, 10, QueryDistribution::Selectivity { fraction: 0.01 }, 3, 40)
        );
        assert_ne!(batches[0], batches[1], "batches are distinct");
        assert!(batches.iter().all(|b| b.len() == 40));
        let tree = Oracle::build(&pts);
        let flat = FlatOracle { live: pts.clone() };
        for b in &batches {
            assert_eq!(tree.answer(b), flat.answer(b));
        }
        let probe = probe_reads(&pts, 5);
        assert_eq!(probe.len(), 33);
        assert_eq!(*flat.answer(&probe).counts.last().unwrap(), 4096);
    }
}
