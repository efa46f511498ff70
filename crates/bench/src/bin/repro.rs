//! `repro` — regenerate every figure and theorem-scale experiment of the
//! paper.
//!
//! The paper (a theory paper) has no empirical tables; its results are
//! Figures 1–3 (structural) and Theorems 1–4 with Corollaries (complexity
//! bounds). Each subcommand reproduces one of them on the CGM simulator
//! and prints the expected outcome as a "claim:" line under its table;
//! the README's "Paper map" section says which experiment backs which
//! theorem.
//!
//! ```text
//! cargo run --release -p ddrs-bench --bin repro -- all
//! cargo run --release -p ddrs-bench --bin repro -- t2
//! cargo run --release -p ddrs-bench --features ddrs-trace/trace --bin repro -- steps
//! ```

use std::collections::BTreeMap;

use ddrs_baselines::{
    BruteForce, KdTree, LayeredRangeTree2d, ReplicatedRangeTree, WeightedDominance2d,
};
use ddrs_bench::{hotspot_queries, print_table, selectivity_queries, time_ms, uniform_points};
use ddrs_cgm::Machine;
use ddrs_rangetree::dist::construct::construct;
use ddrs_rangetree::dist::search::{
    balance_visits, hat_stage, report_visits, search_cost, tree_for, QueryRec,
};
use ddrs_rangetree::{
    heap, label, DistRangeTree, DynamicDistRangeTree, Point, QueryBatch, RankSpace, Rect,
    SeqRangeTree, Sum,
};
use ddrs_workloads::{QueryDistribution, QueryMode, QueryWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let all = which == "all";
    let mut ran = false;
    for (name, f) in EXPERIMENTS {
        if all || which == *name {
            f();
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment '{which}'. available:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
}

const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("t1", t1),
    ("t2", t2),
    ("t3", t3),
    ("t4a", t4a),
    ("t4b", t4b),
    ("b1", b1),
    ("b2", b2),
    ("a1", a1),
    ("a2", a2),
    ("e1", e1),
    ("steps", steps),
];

/// Figure 1: the segment tree structure for [1, 8].
fn fig1() {
    println!("\n## FIG1 — segment tree for [1,8] (paper Figure 1)\n");
    let m = 8usize;
    let mut by_level: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for v in 1..2 * m {
        let (a, b) = heap::span(m, v);
        let lvl = heap::level(m, v);
        // Paper convention: 1-based segments, the last leaf degenerate.
        let seg =
            if b == m { format!("[{},{}]", a + 1, b) } else { format!("[{},{})", a + 1, b + 1) };
        by_level.entry(lvl).or_default().push(seg);
    }
    for (lvl, segs) in by_level.iter().rev() {
        println!("level {lvl}: {}", segs.join(" "));
    }
    println!("\nexpected (paper): [1,8] / [1,5) [5,8] / [1,3) [3,5) [5,7) [7,8] / 8 leaves");
}

/// Figure 2: the Index/Level label algebra.
fn fig2() {
    println!("\n## FIG2 — Index and Level of nodes of T (paper Figure 2)\n");
    let m_i = 8usize;
    let u = 5usize; // a node U at level 1 in dimension i
    let x = label::index_in_tree(1, u);
    println!("U in dimension i:   Index(U) = x = {x}, Level(U) = {}", heap::level(m_i, u));
    println!("children of U:      Index = 2x = {}, 2x+1 = {}, Level = 0", 2 * x, 2 * x + 1);
    let v = label::PathLabel::of(&[(u, m_i), (1, 4)]);
    println!(
        "V = root desc(U):   Index(V) = Index(U) = {}, Level(V) = {}",
        v.pairs[1].index, v.pairs[1].level
    );
    let leaves: Vec<u64> = (0..4)
        .map(|i| label::PathLabel::of(&[(u, m_i), (heap::leaf(4, i), 4)]).pairs[1].index)
        .collect();
    println!("leaves of desc(U):  Index = {leaves:?}  (= 4x .. 4x+3)");
    assert_eq!(leaves, vec![4 * x, 4 * x + 1, 4 * x + 2, 4 * x + 3]);
    println!("\nall Figure 2 identities hold ✓");
}

/// Figure 3: the hat and forest for p = 8 in dimension 1.
fn fig3() {
    println!("\n## FIG3 — hat of T in dimension 1 with forest, p = 8 (paper Figure 3)\n");
    let p = 8;
    let n = 2048usize;
    let machine = Machine::new(p).unwrap();
    let pts: Vec<Point<2>> = uniform_points(42, n);
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let rep = tree.structure_report();
    println!("n = {n}, d = 2, p = {p}, n/p = {}", n / p);
    println!("hat: {} nodes, replicated on all p processors", rep.hat_nodes);
    println!("log p = {} levels of the primary tree are in the hat", p.ilog2());
    println!(
        "forest: {} trees dealt round-robin; per-processor shard sizes {:?}",
        rep.forest_trees.iter().sum::<usize>(),
        rep.forest_nodes
    );
    println!(
        "descendant trees of hat nodes (dim 2) hold n, n/2, n/4 … points,\n\
         decomposed recursively into hat + forest parts — see the\n\
         `hat_anatomy` example for the per-tree breakdown."
    );
}

/// Theorem 1: |H| = O(p log^(d-1) p) = O(s/p); |F_i| = O(s/p), balanced.
fn t1() {
    let mut rows = Vec::new();
    for &(n, d) in &[(1usize << 12, 2u32), (1 << 14, 2), (1 << 16, 2), (1 << 10, 3), (1 << 12, 3)] {
        for &p in &[2usize, 4, 8, 16] {
            let machine = Machine::new(p).unwrap();
            let rep = match d {
                2 => {
                    let pts: Vec<Point<2>> = uniform_points(1, n);
                    DistRangeTree::<2>::build(&machine, &pts).unwrap().structure_report()
                }
                _ => {
                    let pts: Vec<Point<3>> = uniform_points(1, n);
                    DistRangeTree::<3>::build(&machine, &pts).unwrap().structure_report()
                }
            };
            let s_over_p = rep.total_nodes / p as u64;
            let max_shard = *rep.forest_nodes.iter().max().unwrap();
            let min_shard = *rep.forest_nodes.iter().min().unwrap();
            rows.push(vec![
                n.to_string(),
                d.to_string(),
                p.to_string(),
                rep.total_nodes.to_string(),
                s_over_p.to_string(),
                rep.hat_nodes.to_string(),
                format!("{:.3}", rep.hat_nodes as f64 / s_over_p as f64),
                max_shard.to_string(),
                format!("{:.3}", max_shard as f64 / s_over_p as f64),
                format!("{:.3}", max_shard as f64 / min_shard.max(1) as f64),
            ]);
        }
    }
    print_table(
        "T1 — Theorem 1: hat and forest-shard sizes vs s/p",
        &["n", "d", "p", "s(nodes)", "s/p", "|H|", "|H|/(s/p)", "max|F_i|", "max/(s/p)", "imbal"],
        &rows,
    );
    println!("\nclaim: |H|/(s/p) = O(1), shrinking in n; max|F_i|/(s/p) ≈ 1; imbal ≈ 1.");
}

/// Theorem 2 / Corollary 1: construction scales as seq/p + O(1) rounds.
/// Checks its own claim: rounds equal at every p ≥ 2, work speedup
/// ≥ 0.95·p, every forest holding exactly the input ids, and no rank
/// holding more than 1.25·⌈|S^j|/p⌉ records after any phase's collective
/// sort. Wall time and its per-step split are printed, never asserted.
fn t2() {
    let n = 1 << 15;
    let pts: Vec<Point<2>> = uniform_points(2, n);
    let faults_before = minor_faults();
    let (seq_ms, seq_tree) = time_ms(|| SeqRangeTree::build(&pts).unwrap());
    let seq_faults = faults_since(faults_before);
    let mut seq_row = vec!["seq".into(), format!("{seq_ms:.1}"), seq_tree.size_nodes().to_string()];
    seq_row.resize(12, "-".into());
    seq_row.push(seq_faults);
    let mut rows = vec![seq_row];
    let mut ids: Vec<u32> = pts.iter().map(|p| p.id).collect();
    ids.sort_unstable();
    let mut rounds = Vec::new();
    let mut broken: Vec<String> = Vec::new();
    for p in [1usize, 2, 4, 8, 16] {
        let machine = Machine::new(p).unwrap();
        // The rank sorts are the host's, before the machine runs: timed
        // by making the same call `build` opens with.
        let (rank_ms, _) = time_ms(|| RankSpace::normalize(&pts, p).unwrap());
        let faults_before = minor_faults();
        let (ms, tree) = time_ms(|| DistRangeTree::<2>::build(&machine, &pts).unwrap());
        let faults = faults_since(faults_before);
        let stats = machine.take_stats();
        let rep = tree.structure_report();
        // Local construction work per processor = the nodes it builds
        // (its forest shard) plus its hat replica; the theorem's claim is
        // that the *maximum* share is s/p.
        let max_work = rep.hat_nodes + rep.forest_nodes.iter().max().unwrap();
        let speedup = rep.total_nodes as f64 / max_work as f64;
        // The collective sort's balance: per phase, the largest share of
        // S^j a rank holds after the sort, against ⌈|S^j|/p⌉.
        let mut sort_share: f64 = 0.0;
        for (j, &records) in tree.phase_records().iter().enumerate() {
            let largest = tree.states().iter().map(|s| s.sorted_records[j]).max().unwrap();
            let even = records.div_ceil(p as u64);
            sort_share = sort_share.max(largest as f64 / even as f64);
            if largest as f64 > 1.25 * even as f64 {
                broken.push(format!(
                    "p={p}: phase {j} sorts {largest} records onto one rank, even share {even}"
                ));
            }
        }
        // Each step's wall time on the processor it took longest on.
        let step = |i: usize| {
            let slowest = tree.states().iter().map(|s| s.step_wall[i]).max().unwrap();
            format!("{:.1}", slowest.as_secs_f64() * 1e3)
        };
        rows.push(vec![
            format!("p={p}"),
            format!("{ms:.1}"),
            max_work.to_string(),
            format!("{speedup:.2}"),
            stats.supersteps().to_string(),
            stats.max_h().to_string(),
            format!("{sort_share:.2}"),
            format!("{rank_ms:.1}"),
            step(0),
            step(1),
            step(2),
            if p == 1 { format!("{:.2}", ms / seq_ms) } else { "-".into() },
            faults,
        ]);
        if p >= 2 {
            rounds.push(stats.supersteps());
        }
        if speedup < 0.95 * p as f64 {
            broken.push(format!("p={p}: work speedup {speedup:.2} < 0.95·p"));
        }
        let primary = tree.states().iter().flat_map(|s| s.forest.iter());
        let mut held: Vec<u32> = primary
            .filter(|e| e.start_dim == 0)
            .flat_map(|e| e.tree.leaves.iter().filter(|pt| !pt.is_pad()).map(|pt| pt.id))
            .collect();
        held.sort_unstable();
        if held != ids {
            broken.push(format!("p={p}: the forest does not hold exactly the input ids"));
        }
    }
    if rounds.windows(2).any(|w| w[0] != w[1]) {
        broken.push(format!("rounds differ among p ≥ 2: {rounds:?}"));
    }
    print_table(
        &format!("T2 — Theorem 2/Cor 1: construction, n = {n}, d = 2"),
        &[
            "machine",
            "wall(ms)",
            "max nodes built/proc",
            "work speedup",
            "rounds",
            "max h(words)",
            "sort share",
            "rank sorts(ms)",
            "coll. sort",
            "deal+group",
            "local build",
            "p1/seq",
            "minor faults",
        ],
        &rows,
    );
    println!(
        "\nclaim: rounds constant in p; max per-processor construction work\n\
         (nodes built) = s/p, i.e. work speedup ≈ p; h = O(s/p).\n\
         note: wall-clock cannot show parallel speedup on this host (the\n\
         simulator's p threads share the physical cores available — on a\n\
         single-core host they are purely time-sliced); the theorem's\n\
         quantities are the measured work shares and round counts. \"sort\n\
         share\" is the largest post-sort share of any phase over the even\n\
         share ⌈|S^j|/p⌉ (asserted ≤ 1.25: regular sampling). The next\n\
         four columns split the wall: the host's rank sorts, then each\n\
         step of Algorithm Construct on the processor it took longest on\n\
         (step 1; steps 2, 3, 5 with their exchanges and the records of\n\
         each S^j; step 4). p = 1 runs 6 rounds, not 10: a one-processor\n\
         sort has no sample and no exchange. \"p1/seq\" is the p = 1 wall\n\
         over the seq build's: at p = 1 Construct is the sequential build.\n\
         \"minor faults\" are the process's minor page faults during the\n\
         build (the rank sorts included; `-` where /proc/self/stat cannot\n\
         be read): fresh pages each build touches first."
    );
    assert!(broken.is_empty(), "t2 does not hold: {broken:#?}");
}

/// Minor page faults of this process so far, field 10 of
/// `/proc/self/stat` (the fields after the parenthesized command name
/// start at field 3); `None` where that file cannot be read.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse().ok()
}

/// The minor faults since `before` as a table cell, `-` when unreadable.
fn faults_since(before: Option<u64>) -> String {
    match (before, minor_faults()) {
        (Some(a), Some(b)) => (b - a).to_string(),
        _ => "-".into(),
    }
}

/// Theorem 3 / Corollary 2: n queries in O(s log n / p) + O(1) rounds.
fn t3() {
    let n = 1 << 14;
    let pts: Vec<Point<2>> = uniform_points(3, n);
    let queries = selectivity_queries(&pts, 7, 0.002, n / 2);
    let seq_tree = SeqRangeTree::build(&pts).unwrap();
    let (seq_ms, _) = time_ms(|| queries.iter().map(|q| seq_tree.count(q)).collect::<Vec<_>>());
    let mut rows = vec![vec![
        "seq".into(),
        format!("{seq_ms:.1}"),
        queries.len().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]];
    let (ranks, rpts) = RankSpace::normalize(&pts, 16).unwrap();
    let rq: Vec<QueryRec<2>> =
        queries.iter().enumerate().map(|(i, q)| (i as u32, ranks.translate(q))).collect();
    for p in [1usize, 2, 4, 8, 16] {
        let machine = Machine::new(p).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        machine.take_stats();
        let (ms, counts) = time_ms(|| tree.count_batch(&machine, &queries));
        let stats = machine.take_stats();
        assert_eq!(counts.len(), queries.len());
        // Per-processor query work: hat advances (the query share) plus
        // routed forest visits after balancing.
        let m = ranks.m();
        let share = m / p;
        let work: Vec<usize> = machine.run(|ctx| {
            let state =
                construct(ctx, rpts[ctx.rank() * share..(ctx.rank() + 1) * share].to_vec(), m);
            let mine: Vec<QueryRec<2>> =
                rq.iter().filter(|(qid, _)| *qid as usize % p == ctx.rank()).copied().collect();
            let hat_work = mine.len();
            let stage = hat_stage(&state, &mine);
            let (_trees, items) = balance_visits(ctx, &[&state], stage.visits);
            hat_work + items.len()
        });
        machine.take_stats();
        let total: usize = work.iter().sum();
        let max_work = *work.iter().max().unwrap();
        rows.push(vec![
            format!("p={p}"),
            format!("{ms:.1}"),
            max_work.to_string(),
            format!("{:.2}", total as f64 / max_work as f64),
            stats.supersteps().to_string(),
            stats.max_h().to_string(),
        ]);
    }
    print_table(
        &format!("T3 — Theorem 3/Cor 2: {} count queries, n = {n}, d = 2", queries.len()),
        &["machine", "wall(ms)", "max work/proc", "work speedup", "rounds", "max h(words)"],
        &rows,
    );
    println!(
        "\nclaim: rounds constant in p and n; max per-processor query work\n\
         (hat advances + routed visits) ≈ total/p, i.e. work speedup ≈ p.\n\
         note: wall-clock parallel speedup is not observable on a host with\n\
         fewer physical cores than p (threads are time-sliced)."
    );
}

/// Theorem 4(a): associative-function mode over selectivities.
fn t4a() {
    let n = 1 << 14;
    let pts: Vec<Point<2>> = uniform_points(4, n);
    let mut rows = Vec::new();
    for &sel in &[0.0001, 0.001, 0.01, 0.1] {
        let queries = selectivity_queries(&pts, 11, sel, 2048);
        for p in [2usize, 8] {
            let machine = Machine::new(p).unwrap();
            let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
            machine.take_stats();
            let (ms, sums) = time_ms(|| tree.aggregate_batch(&machine, Sum, &queries));
            let stats = machine.take_stats();
            let hits = sums.iter().filter(|s| s.is_some()).count();
            rows.push(vec![
                format!("{sel}"),
                p.to_string(),
                format!("{ms:.1}"),
                stats.supersteps().to_string(),
                stats.max_h().to_string(),
                hits.to_string(),
            ]);
        }
    }
    print_table(
        &format!("T4a — Theorem 4: associative-function (Sum), n = {n}, 2048 queries"),
        &["selectivity", "p", "wall(ms)", "rounds", "max h", "nonempty"],
        &rows,
    );
    println!(
        "\nclaim: wall roughly independent of selectivity (no k term in the\n\
         associative mode); rounds constant."
    );
}

/// Theorem 4(b): report mode with the k/p output term.
fn t4b() {
    let n = 1 << 14;
    let pts: Vec<Point<2>> = uniform_points(5, n);
    let p = 8;
    let machine = Machine::new(p).unwrap();
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let mut rows = Vec::new();
    for &sel in &[0.0001, 0.001, 0.01, 0.05, 0.2] {
        let queries = selectivity_queries(&pts, 13, sel, 1024);
        machine.take_stats();
        let (ms, shares) = time_ms(|| tree.report_batch_raw(&machine, &queries));
        let stats = machine.take_stats();
        let k: usize = shares.iter().map(Vec::len).sum();
        let max_share = shares.iter().map(Vec::len).max().unwrap();
        rows.push(vec![
            format!("{sel}"),
            k.to_string(),
            format!("{ms:.1}"),
            (k.div_ceil(p)).to_string(),
            max_share.to_string(),
            stats.supersteps().to_string(),
            stats.max_h().to_string(),
        ]);
    }
    print_table(
        &format!("T4b — Theorem 4: report mode, n = {n}, p = {p}, 1024 queries"),
        &["selectivity", "k", "wall(ms)", "⌈k/p⌉", "max share", "rounds", "max h"],
        &rows,
    );
    println!(
        "\nclaim: max share = ⌈k/p⌉ exactly (balanced output); wall grows\n\
         linearly once k dominates; rounds constant."
    );
}

/// Baseline comparison (Section 1 claims): range tree vs k-d tree vs
/// layered vs brute force, sequential query times.
fn b1() {
    type Counter<'a> = &'a dyn Fn(&Rect<2>) -> u64;
    let mut rows = Vec::new();
    for &n in &[1usize << 12, 1 << 14, 1 << 16] {
        let pts: Vec<Point<2>> = uniform_points(6, n);
        let range = SeqRangeTree::build(&pts).unwrap();
        let kd = KdTree::build(pts.clone());
        let layered = LayeredRangeTree2d::build(&pts);
        let dominance = WeightedDominance2d::build(&pts);
        let brute = BruteForce::new(pts.clone());
        for &sel in &[0.0001, 0.01, 0.3] {
            let queries = selectivity_queries(&pts, 17, sel, 200);
            let per_query_us = |count: Counter| {
                let (ms, counts) = time_ms(|| queries.iter().map(count).collect::<Vec<u64>>());
                (ms * 1e3 / queries.len() as f64, counts)
            };
            let (bt, want) = per_query_us(&|q| brute.count(q));
            let mut row = vec![n.to_string(), format!("{sel}")];
            let structures: [(&str, Counter); 4] = [
                ("range tree", &|q| range.count(q)),
                ("layered", &|q| layered.count(q)),
                ("dominance", &|q| dominance.count(q)),
                ("k-d tree", &|q| kd.count(q)),
            ];
            for (name, count) in structures {
                let (us, counts) = per_query_us(count);
                assert_eq!(counts, want, "{name} disagrees with brute force, n = {n}, sel = {sel}");
                row.push(format!("{us:.2}"));
            }
            row.push(format!("{bt:.2}"));
            rows.push(row);
        }
    }
    print_table(
        "B1 — §1 baselines: per-query count time (µs), d = 2",
        &["n", "selectivity", "range tree", "layered", "dominance", "k-d tree", "brute"],
        &rows,
    );
    println!(
        "\nclaim: every structure's count equals brute force's, query by query. The\n\
         range tree (rank translation included) is faster than the layered tree\n\
         and the dominance counts in every cell; the k-d tree is close to it at\n\
         selectivity 0.0001 and falls behind as outputs grow (O(√n + k)); brute\n\
         force is an order of magnitude slower or more at every selectivity here."
    );
}

/// The replication strawman (Section 1): memory blow-up measured.
fn b2() {
    let n = 1 << 13;
    let pts: Vec<Point<2>> = uniform_points(8, n);
    let queries = selectivity_queries(&pts, 19, 0.001, 2048);
    let mut rows = Vec::new();
    for p in [2usize, 4, 8] {
        let machine = Machine::new(p).unwrap();
        let (dist_build, dist) = time_ms(|| DistRangeTree::<2>::build(&machine, &pts).unwrap());
        let rep_struct = dist.structure_report();
        let (dist_q, _) = time_ms(|| dist.count_batch(&machine, &queries));
        let (repl_build, repl) = time_ms(|| ReplicatedRangeTree::build(p, &pts).unwrap());
        let (repl_q, _) = time_ms(|| repl.count_batch(&queries));
        let dist_max_proc = rep_struct.hat_nodes + rep_struct.forest_nodes.iter().max().unwrap();
        rows.push(vec![
            p.to_string(),
            dist_max_proc.to_string(),
            repl.nodes_per_copy().to_string(),
            format!("{:.1}x", repl.nodes_per_copy() as f64 / dist_max_proc as f64),
            format!("{dist_build:.1}"),
            format!("{repl_build:.1}"),
            format!("{dist_q:.1}"),
            format!("{repl_q:.1}"),
        ]);
    }
    print_table(
        &format!("B2 — §1 replication strawman, n = {n}, d = 2, 2048 queries"),
        &[
            "p",
            "dist mem/proc",
            "repl mem/proc",
            "mem ratio",
            "dist build",
            "repl build",
            "dist query",
            "repl query",
        ],
        &rows,
    );
    println!(
        "\nclaim: replication's per-processor memory ≈ p× the distributed\n\
         structure's and does not shrink with p — the memory wall the paper\n\
         rejects — while its query latency is (unsurprisingly) lower."
    );
}

/// Ablation: the multisearch congestion balancing (Search steps 2–4)
/// on a hot-spot workload, vs naive route-to-owner. Checks that the
/// balanced round leaves no rank more visit weight than the even share
/// plus the largest visit's weight.
fn a1() {
    let n = 1 << 14;
    let p = 8;
    let pts: Vec<Point<2>> = uniform_points(9, n);
    let queries = hotspot_queries(&pts, 23, 4096);
    let (ranks, rpts) = RankSpace::normalize(&pts, p).unwrap();
    let m = ranks.m();
    let share = m / p;
    let rq: Vec<QueryRec<2>> =
        queries.iter().enumerate().map(|(i, q)| (i as u32, ranks.translate(q))).collect();

    // Per rank: (visits finished, their weight, the weight of the visits
    // its hat stage emitted, the largest of those).
    type Load = (usize, u64, u64, u64);
    let run = |balanced: bool| -> (f64, Vec<Load>) {
        let machine = Machine::new(p).unwrap();
        time_ms(|| {
            machine.run(|ctx| {
                let lo = ctx.rank() * share;
                let state = construct(ctx, rpts[lo..lo + share].to_vec(), m);
                let mine: Vec<QueryRec<2>> =
                    rq.iter().filter(|(qid, _)| *qid as usize % p == ctx.rank()).copied().collect();
                let stage = hat_stage(&state, &mine);
                let emitted: u64 = stage.visits.iter().map(|v| v.2).sum();
                let heaviest = stage.visits.iter().map(|v| v.2).max().unwrap_or(0);
                let mut sels = Vec::new();
                let (mut work, mut weight) = (0usize, 0u64);
                if balanced {
                    let (trees, items) = balance_visits(ctx, &[&state], stage.visits);
                    for (fid, (_qid, q)) in items {
                        sels.clear();
                        let tree = &tree_for(&trees, &[&state], fid).tree;
                        tree.search(&q, &mut sels);
                        work += 1;
                        weight += search_cost(tree.leaves.len());
                    }
                } else {
                    // Naive: ship each visit to the tree's owner; no copies.
                    let owners: std::collections::HashMap<u64, usize> = ctx
                        .all_gather(
                            state
                                .forest
                                .iter()
                                .map(|e| (e.fid as u64, ctx.rank()))
                                .collect::<Vec<_>>(),
                        )
                        .into_iter()
                        .flatten()
                        .collect();
                    let routed = ctx.route(
                        stage
                            .visits
                            .into_iter()
                            .map(|(fid, q, _)| (owners[&fid], (fid, q)))
                            .collect::<Vec<_>>(),
                    );
                    for (fid, (_qid, q)) in routed {
                        sels.clear();
                        let tree = &state.entry(fid as u32).tree;
                        tree.search(&q, &mut sels);
                        work += 1;
                        weight += search_cost(tree.leaves.len());
                    }
                }
                (work, weight, emitted, heaviest)
            })
        })
    };

    let (ms_bal, loads_bal) = run(true);
    let (ms_naive, loads_naive) = run(false);
    let summarize = |loads: &[Load]| {
        let max = loads.iter().map(|l| l.0).max().unwrap();
        let total: usize = loads.iter().map(|l| l.0).sum();
        (max, total, max as f64 / (total as f64 / p as f64).max(1.0))
    };
    let (bmax, btot, bratio) = summarize(&loads_bal);
    let (nmax, ntot, nratio) = summarize(&loads_naive);
    // The balancing contract, in the weights the balancer saw.
    let share = loads_bal.iter().map(|l| l.2).sum::<u64>().div_ceil(p as u64);
    let heaviest = loads_bal.iter().map(|l| l.3).max().unwrap();
    let routed = |loads: &[Load]| loads.iter().map(|l| l.1).max().unwrap();
    let (bweight, nweight) = (routed(&loads_bal), routed(&loads_naive));
    print_table(
        &format!(
            "A1 — ablation: congestion copying on a hot-spot batch (n={n}, p={p}, 4096 queries)"
        ),
        &["variant", "wall(ms)", "max visits/proc", "total visits", "max/mean", "max weight/share"],
        &[
            vec![
                "balanced (paper)".into(),
                format!("{ms_bal:.1}"),
                bmax.to_string(),
                btot.to_string(),
                format!("{bratio:.2}"),
                format!("{:.2}", bweight as f64 / share as f64),
            ],
            vec![
                "route-to-owner".into(),
                format!("{ms_naive:.1}"),
                nmax.to_string(),
                ntot.to_string(),
                format!("{nratio:.2}"),
                format!("{:.2}", nweight as f64 / share as f64),
            ],
        ],
    );
    println!(
        "\nclaim: without copying, the hot trees' owners absorb nearly all\n\
         visits (max/mean → p); with copies of the hot trees the load is\n\
         near the mean (max/mean → 1). \"max weight/share\" is the largest\n\
         rank's visit weight over the even share ⌈total/p⌉; the balanced\n\
         round is asserted to stay within the share plus one visit's weight."
    );
    assert!(
        bweight <= share + heaviest,
        "a1: a rank carries visit weight {bweight}, share {share} + heaviest visit {heaviest}"
    );
}

/// Engine: one fused mixed-mode batch vs the same program submitted once
/// per mode, over a multi-level dynamic store — machine submissions,
/// supersteps, wall — and what an empty submission costs.
fn e1() {
    let p = 8;
    let machine = Machine::new(p).unwrap();
    let pts: Vec<Point<2>> = uniform_points(27, 1 << 13);
    let mut rows = Vec::new();
    for waves in [1usize, 2, 3, 4] {
        // `waves` insert batches with strictly shrinking sizes leave
        // `waves` occupied logarithmic-method levels.
        let mut tree = DynamicDistRangeTree::<2>::new(1 << 9);
        let mut lo = 0usize;
        for w in 0..waves {
            let size = (1 << 12) >> w;
            tree.insert_batch(&machine, &pts[lo..lo + size]).unwrap();
            lo += size;
        }
        assert_eq!(tree.occupied_levels(), waves);
        let mixed = QueryWorkload::from_points(&pts, 33).mixed(
            QueryDistribution::Selectivity { fraction: 0.005 },
            (1, 1, 1),
            1024,
        );
        let mut batch = QueryBatch::new(Sum);
        let (mut counts, mut aggs, mut reports) = (Vec::new(), Vec::new(), Vec::new());
        for q in &mixed {
            match q.mode {
                QueryMode::Count => {
                    batch.count(q.rect);
                    counts.push(q.rect);
                }
                QueryMode::Aggregate => {
                    batch.aggregate(q.rect);
                    aggs.push(q.rect);
                }
                QueryMode::Report => {
                    batch.report(q.rect);
                    reports.push(q.rect);
                }
            }
        }
        machine.take_stats();
        let (fused_ms, fused_out) = time_ms(|| batch.execute_dynamic(&machine, &tree));
        let fused_stats = machine.take_stats();
        let (pm_ms, pm_counts) = time_ms(|| {
            let c = tree.count_batch(&machine, &counts);
            tree.aggregate_batch(&machine, Sum, &aggs);
            tree.report_batch(&machine, &reports);
            c
        });
        let pm_stats = machine.take_stats();
        assert_eq!(fused_out.counts, pm_counts, "fused and per-mode counts agree");
        assert_eq!((fused_stats.runs, pm_stats.runs), (1, 3), "one submission vs one per mode");
        rows.push(vec![
            waves.to_string(),
            fused_stats.runs.to_string(),
            fused_stats.supersteps().to_string(),
            format!("{fused_ms:.1}"),
            pm_stats.runs.to_string(),
            pm_stats.supersteps().to_string(),
            format!("{pm_ms:.1}"),
        ]);
    }
    print_table(
        &format!("E1 — engine: fused mixed batch vs per-mode dispatch, p = {p}, 1024 queries"),
        &[
            "levels",
            "fused runs",
            "fused rounds",
            "fused ms",
            "per-mode runs",
            "per-mode rounds",
            "per-mode ms",
        ],
        &rows,
    );
    println!(
        "\nclaim: the fused batch is exactly one machine submission and a\n\
         constant number of supersteps independent of the level count and\n\
         mode mix; per-mode dispatch submits the same program three times,\n\
         once per mode (and before the fused engine it paid 3·levels)."
    );
    // What a submission costs before it does any work: an empty
    // two-barrier program, at a p every host runs at once and at one it
    // oversubscribes, where every wait parks.
    let empty = |ctx: &mut ddrs_cgm::Ctx<'_>| (ctx.barrier(), ctx.barrier());
    for p in [1, 2, 8] {
        let machine = Machine::new(p).unwrap();
        let mut empty_us: Vec<f64> =
            (0..200).map(|_| time_ms(|| machine.run(empty)).0 * 1e3).collect();
        empty_us.sort_by(f64::total_cmp);
        println!(
            "executor: an empty two-barrier run at p = {p} costs {:.1} µs (median of {})",
            empty_us[empty_us.len() / 2],
            empty_us.len()
        );
    }
}

/// The construction caveat (Section 5): per-phase sorted record volume.
fn a2() {
    let mut rows = Vec::new();
    for &(n, d) in &[(1usize << 14, 2u32), (1 << 12, 3)] {
        for &p in &[4usize, 16] {
            let machine = Machine::new(p).unwrap();
            let recs = match d {
                2 => {
                    let pts: Vec<Point<2>> = uniform_points(10, n);
                    DistRangeTree::<2>::build(&machine, &pts).unwrap().phase_records()
                }
                _ => {
                    let pts: Vec<Point<3>> = uniform_points(10, n);
                    DistRangeTree::<3>::build(&machine, &pts).unwrap().phase_records()
                }
            };
            let logp = (p as f64).log2();
            let bound: Vec<u64> =
                (0..d).map(|j| ((n as f64) * logp.powi(j as i32)).round() as u64).collect();
            rows.push(vec![
                n.to_string(),
                d.to_string(),
                p.to_string(),
                format!("{recs:?}"),
                format!("{bound:?}"),
            ]);
        }
    }
    print_table(
        "A2 — §5 caveat: records sorted per phase |S^j| vs n·log^j p",
        &["n", "d", "p", "measured |S^j|", "bound n·log^j p"],
        &rows,
    );
    println!(
        "\nclaim: |S^0| = n (padded); later phases sort ≈ n·log^j p records,\n\
         not n — the acknowledged sub-optimality of Construct."
    );
}

/// Where a query batch's time goes, superstep by superstep: the median
/// compute and barrier time of every rank in every superstep of a
/// steady-state 256-query mixed batch (mode mix 2:1:1) over a four-level
/// store (levels 6, 5, 4 and 3 at rebuild unit 1 024, 122 880 points),
/// uniform and hot-spot, at p = 1 and 2. Read off the machine's
/// per-superstep timeline, which exists only when span recording is
/// compiled in.
fn steps() {
    println!("\n## STEPS — per-superstep compute / barrier medians per rank\n");
    if !ddrs_trace::enabled() {
        println!("recording is compiled out: rerun with --features ddrs-trace/trace");
        return;
    }
    const LEVELS: [usize; 4] = [65_536, 32_768, 16_384, 8_192];
    let (batches, cycles) = (8, 32);
    let pts: Vec<Point<2>> = uniform_points(11, LEVELS.iter().sum());
    let dists = [
        ("uniform", QueryDistribution::Selectivity { fraction: 0.0005 }),
        ("hot-spot", QueryDistribution::HotSpot { region: 0.03, fraction: 0.5 }),
    ];
    for (name, dist) in dists {
        let reads: Vec<[Vec<Rect<2>>; 3]> = (0..batches)
            .map(|i| {
                let mut modes: [Vec<Rect<2>>; 3] = Default::default();
                for q in QueryWorkload::from_points(&pts, 100 + i).mixed(dist, (2, 1, 1), 256) {
                    modes[q.mode as usize].push(q.rect);
                }
                modes
            })
            .collect();
        for p in [1usize, 2] {
            let machine = Machine::new(p).unwrap();
            let mut tree = DynamicDistRangeTree::<2>::new(1024);
            let mut lo = 0;
            for n in LEVELS {
                tree.insert_batch(&machine, &pts[lo..lo + n]).unwrap();
                lo += n;
            }
            // One warm-up cycle fills every level's hat values, so each
            // timed batch is a steady-state run.
            let run =
                |[c, a, r]: &[Vec<Rect<2>>; 3]| tree.query_batch_fused(&machine, Sum, c, a, r);
            for b in &reads {
                run(b);
            }
            machine.take_stats();
            let visits: Vec<usize> = reads.iter().map(|b| forest_visits(&tree, b)).collect();
            let (mut slices, mut ns_per_visit) = (Vec::new(), Vec::new());
            for (b, visits) in reads.iter().zip(&visits).cycle().take(batches as usize * cycles) {
                run(b);
                let timeline = machine.take_stats().timeline;
                let finish: u64 =
                    timeline.iter().filter(|s| s.round == 3).map(|s| s.compute_ns).sum();
                ns_per_visit.push(finish as f64 / *visits as f64);
                slices.extend(timeline);
            }
            slices.sort_by_key(|s| (s.round, s.rank));
            let median_us = |mut ns: Vec<u64>| {
                ns.sort_unstable();
                format!("{:.0}", ns[ns.len() / 2] as f64 / 1e3)
            };
            ns_per_visit.sort_by(f64::total_cmp);
            let per_visit = format!("{:.3}", ns_per_visit[ns_per_visit.len() / 2] / 1e3);
            let rows: Vec<Vec<String>> = slices
                .chunk_by(|a, b| a.round == b.round)
                .map(|round| {
                    let mut row = vec![round[0].round.to_string(), round[0].label.to_string()];
                    for rank in round.chunk_by(|a, b| a.rank == b.rank) {
                        row.push(median_us(rank.iter().map(|s| s.compute_ns).collect()));
                        row.push(median_us(rank.iter().map(|s| s.barrier_ns).collect()));
                    }
                    row.push(if round[0].round == 3 { per_visit.clone() } else { String::new() });
                    row
                })
                .collect();
            let header = ["step", "collective", "r0 compute µs", "r0 barrier µs"];
            let header = [&header[..], &["r1 compute µs", "r1 barrier µs"]].concat();
            let header = [&header[..2 + 2 * p], &["µs / visit"]].concat();
            let (fewest, most) = (visits.iter().min().unwrap(), visits.iter().max().unwrap());
            print_table(
                &format!(
                    "STEPS — {name}, p = {p}, {batches}×{cycles} batches of 256, \
                     {fewest}–{most} forest visits a batch"
                ),
                &header,
                &rows,
            );
        }
    }
    println!(
        "\nsteps 0-2 are the balancing round: step 0's compute is each rank's own\n\
         translation and hat stage, step 3's the forest finish. A barrier\n\
         column is the wait for the slowest rank plus the exchange itself.\n\
         µs / visit is the median over batches of step 3's compute, summed over\n\
         the ranks, divided by the batch's forest visits."
    );
}

/// The forest visits a mixed batch `[counts, aggregates, reports]` makes
/// over every level of `tree`: what each rank's hat stages emit for its
/// own `qid mod p` share, summed over the ranks. Balancing moves visits
/// between ranks and never adds or drops one.
fn forest_visits(tree: &DynamicDistRangeTree<2>, [c, a, r]: &[Vec<Rect<2>>; 3]) -> usize {
    let n_ca = c.len() + a.len();
    let mut visits = 0;
    for level in tree.level_trees() {
        let all = c.iter().chain(a).chain(r).map(|q| level.ranks().translate(q));
        let recs: Vec<QueryRec<2>> = (0..).zip(all).collect();
        let p = level.p();
        for (me, state) in level.states().iter().enumerate() {
            let mine: Vec<QueryRec<2>> = recs.iter().skip(me).step_by(p).copied().collect();
            let (mine_ca, mine_r) =
                mine.split_at(mine.partition_point(|(qid, _)| (*qid as usize) < n_ca));
            visits += hat_stage(state, mine_ca).visits.len() + report_visits(state, mine_r).len();
        }
    }
    visits
}
