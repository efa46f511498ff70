//! # ddrs-bench — experiment harness
//!
//! Shared helpers of the `repro` binary, which regenerates every
//! figure/theorem-scale experiment of the paper (the README's "Paper
//! map" section indexes them; each prints its own expected-vs-measured
//! "claim:" line). The other binary, `stackbench`, is self-contained
//! under `src/bin/stackbench/`.

use std::time::Instant;

use ddrs_rangetree::{Point, Rect};
use ddrs_workloads::{PointDistribution, QueryDistribution, QueryWorkload, WorkloadBuilder};

/// Standard uniform point workload used across experiments.
pub fn uniform_points<const D: usize>(seed: u64, n: usize) -> Vec<Point<D>> {
    WorkloadBuilder::new(seed, n).points(PointDistribution::UniformCube { side: 1 << 20 })
}

/// Standard query batch at a target selectivity.
pub fn selectivity_queries<const D: usize>(
    pts: &[Point<D>],
    seed: u64,
    fraction: f64,
    count: usize,
) -> Vec<Rect<D>> {
    QueryWorkload::from_points(pts, seed)
        .queries(QueryDistribution::Selectivity { fraction }, count)
}

/// Hot-spot query batch (all queries in one small region).
pub fn hotspot_queries<const D: usize>(pts: &[Point<D>], seed: u64, count: usize) -> Vec<Rect<D>> {
    QueryWorkload::from_points(pts, seed)
        .queries(QueryDistribution::HotSpot { region: 0.03, fraction: 0.5 }, count)
}

/// Wall-clock one closure, in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Render one table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Print a table: header + rows, with a rule. When the `DDRS_CSV_DIR`
/// environment variable is set, the same table is also written there as
/// CSV (named after the first word of the title) for plotting or
/// regression tracking.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| rows.iter().map(|r| r[i].len()).chain([h.len()]).max().unwrap_or(4))
        .collect();
    println!("{}", row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for r in rows {
        println!("{}", row(r, &widths));
    }
    if let Ok(dir) = std::env::var("DDRS_CSV_DIR") {
        let mut csv = ddrs_workloads::CsvTable::new(header);
        for r in rows {
            csv.push_row(r.clone());
        }
        let name = title.split_whitespace().next().unwrap_or("table").to_lowercase();
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) = csv.write_to(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(csv written to {})", path.display());
        }
    }
}
