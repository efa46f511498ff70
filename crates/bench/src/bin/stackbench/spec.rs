//! What the benchmark measures, by name. `BENCHMARK.json` at the root of
//! the repo mirrors these tables and adds the bounds; every run checks
//! that the two agree before it measures anything, so a name cannot
//! drift between the program and the file the driver reads.

use crate::json::Json;
use crate::stats::valid_name;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 11;
/// A seed never used while the benchmark was written; claims made with
/// the benchmark must also hold on it.
pub const HELD_OUT_SEED: u64 = 1997;

/// Run length and bounds before calibration: what `list --json` prints
/// when there is no `BENCHMARK.json` yet, and the floor `calibrate`
/// proposes (a bound is the larger of this and twice the measured
/// spread, and never more than 0.25).
pub const START_RUN_SECONDS: u32 = 10;
pub fn start_bound(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.25,
        _ => 0.10,
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For a per-layer metric: the end-to-end metric and workload it
    /// should move. For an end-to-end metric: how it is defined.
    pub note: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "kernel_uniform",
        why: "The paper's own experiment: uniform mixed batches straight into cgm + rangetree at p_bench, no serving layers, so barrier, mailbox and allocation work shows here and nowhere else.",
    },
    Workload {
        name: "kernel_hotspot",
        why: "Same store and machine, hot-spot batches: skewed visits trigger the paper's congestion copies, so exchange traffic dominates and a change that helps uniform batches but costs skewed ones shows.",
    },
    Workload {
        name: "served_block_reads",
        why: "Headline read path: closed-loop 64-read requests through RemoteStore, TCP, NetServer and a 2-shard p=1 service; the kernel does no exchange, so codec, router and window cost is a visible share.",
    },
    Workload {
        name: "served_small_open",
        why: "Independent users: open-loop Poisson single-op requests on a four-rate ladder, every tenth an insert, timed from due time; what group-commit windows, tickets and per-request codec cost exist for.",
    },
    Workload {
        name: "served_writes",
        why: "Fixed-work insert stream then whole-store deletes through the served stack: WAL append, write epochs and logarithmic-method cascades do the work and reads do none.",
    },
    Workload {
        name: "crash_recover",
        why: "Poison one shard, then recover_shard it from its file WAL, over and over on an identical log: the only workload where WAL decode + replay is the whole cost.",
    },
];

macro_rules! metrics {
    ($($name:literal, $unit:literal, $better:literal, $note:literal;)*) => {
        [$(Metric { name: $name, unit: $unit, better: $better, note: $note },)*]
    };
}

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: [Metric; 3] = metrics![
    "setup_s", "s", "lower", "median of the stack builds in one run: machines, store load, service, server, client (input generation and oracle excluded, see gen.oracle_s)";
    "ops_per_s", "1/s", "higher", "queries/s (kernel_*, served_block_reads); points committed/s in the insert phase (served_writes); completions/s on the top rung, capped at its rate (served_small_open); live points replayed/s (crash_recover)";
    "lat_p50_us", "us", "lower", "median per batch (kernel_*), per request (served_block_reads, served_writes inserts), per request from due time on the 1 500/s rung (served_small_open), per recover_shard call (crash_recover)";
];

/// Measured in the traced run. A metric reads 0 on a workload where its
/// layer does no work or the reading does not apply.
pub const PER_LAYER: [Metric; 77] = metrics![
    // The tail and the memory a user sees. Not bounded end-to-end
    // metrics: on the shared reference host the tail spread by more than
    // the largest bound the driver allows, and the peak resident set of
    // `served_block_reads` reads 116 or 156 MB by where glibc's arenas
    // happened to put the store (see the README).
    "lat_tail_us", "us", "lower", "the samples behind lat_p50_us: the highest percentile up to the 99th with at least ten samples beyond it (client.tail_pct says which, client.samples how many)";
    "rss_peak_mb", "MB", "lower", "VmHWM of the benchmark process when the timed part ends: inputs, oracle, one stack and its workload (crash_recover: after the first recovery)";
    // Readings a user sees on one workload only. They are not bounded
    // end-to-end metrics because the driver wants every bounded metric
    // from every workload.
    "max_rate_ok", "req/s", "higher", "served_small_open: highest rung whose tail from due time is within 20 ms with no growing backlog";
    "delete_ms", "ms", "lower", "served_writes: median delete request";
    "recover_ms", "ms", "lower", "crash_recover: median RecoveryReport::duration";
    "open.rung1_tail_us", "us", "lower", "served_small_open: tail from due time at 1 500 req/s";
    "open.rung2_tail_us", "us", "lower", "served_small_open: tail from due time at 3 000 req/s";
    "open.rung3_tail_us", "us", "lower", "served_small_open: tail from due time at 8 000 req/s";
    "open.rung4_tail_us", "us", "lower", "served_small_open: tail from due time at 12 000 req/s";
    // cgm
    "cgm.runs", "count", "lower", "machine runs in the workload pass";
    "cgm.supersteps_per_run", "count", "lower", "-> ops_per_s, lat_p50_us on kernel_uniform (rounds); flat on served_* (p = 1)";
    "cgm.words_per_run", "words", "lower", "-> ops_per_s, lat_p50_us on kernel_hotspot (traffic); 0 on served_*";
    "cgm.max_h", "words", "lower", "largest h-relation routed -> kernel_hotspot";
    "cgm.speedup_p", "ratio", "higher", "kernel_*: ops_per_s at p_bench / at p = 1 on the same batches (the paper's curve)";
    // rangetree
    "rangetree.copy_words_per_run", "words", "lower", "words in balance_resources rounds -> kernel_hotspot ops_per_s";
    "rangetree.visit_words_per_run", "words", "lower", "words in balance_items rounds -> kernel_hotspot ops_per_s";
    "rangetree.fused_us_per_query", "us", "lower", "query_batch_fused at p = 1 (ladder) -> ops_per_s on every read workload";
    "rangetree.oracle_us_per_query", "us", "lower", "SeqRangeTree, the plain single-threaded baseline (ladder)";
    "rangetree.k_per_report", "count", "lower", "mean ids returned per report query: the output-sensitive part of the work";
    "rangetree.build_us_per_kpoint", "us", "lower", "DistRangeTree::build, 65 536 points, p = 1 -> served_writes ops_per_s, crash_recover recover_ms";
    "rangetree.levels", "count", "lower", "occupied levels of the store after the ladder slice -> read ops_per_s";
    "rangetree.delete_rebuild_points", "count", "lower", "live points rebuilt per delete request -> served_writes delete_ms";
    // client
    "client.plan_us", "us", "lower", "InlineStore rung - raw fused rung -> served_block_reads lat_p50_us";
    "client.submit_us_mean", "us", "lower", "harness span around RangeStore::submit (encode + socket write when remote)";
    "client.wait_us_mean", "us", "lower", "harness span around Ticket::wait";
    "client.lat_p99_us", "us", "lower", "99th percentile of the workload's latency samples, whatever their count";
    "client.lat_max_us", "us", "lower", "largest latency sample";
    "client.tail_pct", "pct", "higher", "the percentile lat_tail_us reports";
    "client.samples", "count", "higher", "latency samples behind lat_p50_us and lat_tail_us";
    "client.submit_err", "count", "lower", "submissions refused (SubmitError)";
    "client.outcome_err", "count", "lower", "accepted requests that resolved Err";
    // sched
    "sched.queue_us_mean", "us", "lower", "admission -> window fire -> served_small_open lat_p50_us, max_rate_ok; 0 on kernel_*";
    "sched.window_us_mean", "us", "lower", "window fire -> machine dispatch -> served_small_open lat_p50_us";
    "sched.mean_batch", "count", "higher", "queries per coalesced read dispatch";
    "sched.coalescing_factor", "ratio", "higher", "queries answered per machine run";
    "sched.overloaded", "count", "lower", "submissions refused by admission control";
    "sched.expired", "count", "lower", "requests expired in the queue";
    // shard
    "shard.machine_run_us_mean", "us", "lower", "-> served_block_reads ops_per_s";
    "shard.merge_us_mean", "us", "lower", "-> served_block_reads ops_per_s";
    "shard.resolve_us_mean", "us", "lower", "-> served_block_reads ops_per_s";
    "shard.read_fanout", "ratio", "lower", "shards touched per routed read: scales the effect of any per-shard slow case";
    "shard.dispatches", "count", "lower", "coalesced read dispatches";
    "shard.write_epochs", "count", "lower", "router barriers: epochs x epoch time is the read stall -> served_small_open max_rate_ok";
    "shard.write_shards_per_epoch", "ratio", "lower", "sub-epochs per write epoch";
    "shard.skew", "ratio", "lower", "largest shard / mean shard";
    "shard.self_us", "us", "lower", "ShardedService S = 1 rung - InlineStore rung -> served_block_reads ops_per_s";
    "shard.s2_self_us", "us", "lower", "S = 2 rung - S = 1 rung";
    // wal
    "wal.bytes_per_point", "B", "lower", "log bytes per logged point -> served_writes ops_per_s";
    "wal.records", "count", "lower", "records appended across shards";
    "wal.append_us_p50", "us", "lower", "EpochWal::append_record, 256-point record, FileSink -> served_writes lat_p50_us";
    "wal.encode_mb_per_s", "MB/s", "higher", "encode_record -> served_writes ops_per_s";
    "wal.decode_mb_per_s", "MB/s", "higher", "decode_log -> crash_recover recover_ms";
    "wal.replay_kpts_per_s", "kpts/s", "higher", "replay_into_store -> crash_recover recover_ms";
    "wal.self_us", "us", "lower", "FileSink rung - MemSink rung -> served_writes lat_p50_us; flat on read workloads";
    // net
    "net.encode_req_us", "us", "lower", "codec::encode_request on the workload's own requests -> served_small_open lat_p50_us";
    "net.decode_req_us", "us", "lower", "codec::decode_request";
    "net.encode_resp_us", "us", "lower", "codec::encode_response on the workload's own responses";
    "net.decode_resp_us", "us", "lower", "codec::decode_server_msg";
    "net.bytes_per_request", "B", "lower", "request frame size";
    "net.bytes_per_response", "B", "lower", "response frame size";
    "net.self_us", "us", "lower", "RemoteStore rung - in-process rung -> served_block_reads ops_per_s; flat on kernel_*, crash_recover";
    "net.requests", "count", "lower", "request frames admitted (NetStats)";
    "net.responses", "count", "lower", "frames flushed to sockets (NetStats)";
    "net.responses_dropped", "count", "lower", "responses that never reached the wire";
    "net.decode_errors", "count", "lower", "streams terminated for a framing violation";
    "net.submit_rejections", "count", "lower", "requests the store refused at the server";
    // trace: how far the other numbers can be trusted
    "trace.overhead_ratio", "ratio", "higher", "ops_per_s with harness spans on / off, same run length";
    "trace.hist_p50_rel_err", "ratio", "lower", "ddrs_trace::Histogram p50 vs the exact p50 of the same samples";
    "trace.hist_p99_rel_err", "ratio", "lower", "ddrs_trace::Histogram p99 vs the exact p99";
    "trace.spans", "count", "lower", "harness spans recorded in the traced pass";
    // gen: the harness itself
    "gen.late_p99_us", "us", "lower", "open-loop send lateness on the three lower rungs";
    "gen.oracle_s", "s", "lower", "input generation and oracle construction, excluded from setup_s";
    "gen.verified_ops", "count", "higher", "operations checked against the sequential oracle";
    // ladder rungs, so every self time can be traced back to its operands
    "ladder.oracle_us", "us", "lower", "median request through SeqRangeTree";
    "ladder.raw_us", "us", "lower", "median request through DynamicDistRangeTree at p = 1";
    "ladder.inproc_us", "us", "lower", "median request through ShardedService S = 2 with FileSink, in process";
    "ladder.remote_us", "us", "lower", "median request through RemoteStore over loopback";
];

/// `BENCHMARK.json`, found by walking up from the working directory (the
/// driver starts the benchmark at the root of a checkout; `cargo test`
/// starts it in the package directory).
pub fn load_benchmark_json() -> Result<Json, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let path = dir.join("BENCHMARK.json");
        if path.is_file() {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            return crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()));
        }
        if !dir.pop() {
            return Err("BENCHMARK.json not found in the working directory or above it".into());
        }
    }
}

/// Check that `BENCHMARK.json` lists exactly the workloads and metrics
/// this program emits, with the same units and directions.
pub fn check_against(bench: &Json) -> Result<(), String> {
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(bench
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .collect())
    };
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();

    let listed = names("workloads")?;
    if listed.len() != WORKLOADS.len() {
        return Err(format!("{} workloads listed, {} built", listed.len(), WORKLOADS.len()));
    }
    for (w, j) in WORKLOADS.iter().zip(&listed) {
        if field(j, "name") != w.name || field(j, "why") != w.why {
            return Err(format!("workload `{}` differs from BENCHMARK.json", w.name));
        }
    }
    for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed = names(key)?;
        if listed.len() != table.len() {
            return Err(format!("{key}: {} metrics listed, {} built", listed.len(), table.len()));
        }
        for (m, j) in table.iter().zip(&listed) {
            if !valid_name(m.name) {
                return Err(format!("`{}` is not a valid metric name", m.name));
            }
            if field(j, "name") != m.name
                || field(j, "unit") != m.unit
                || field(j, "better") != m.better
            {
                return Err(format!("{key} metric `{}` differs from BENCHMARK.json", m.name));
            }
        }
    }
    Ok(())
}

/// The bound of an end-to-end metric, from `BENCHMARK.json`.
pub fn bound_of(bench: &Json, metric: &str) -> Option<f64> {
    bench
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

/// `BENCHMARK.json` as this program would write it, bounds taken from
/// `bounds` (metric name -> bound).
pub fn render_benchmark_json(run_seconds: u32, bounds: &dyn Fn(&str) -> f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/bench/src/bin/stackbench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/stackbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let rows = |rows: Vec<Json>| {
        rows.iter().map(|r| format!("    {}", r.render())).collect::<Vec<_>>().join(",\n")
    };
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                    ("bound", Json::Num(bounds(m.name))),
                ])
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                ])
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_matches_the_built_tables() {
        let bench = load_benchmark_json().expect("BENCHMARK.json at the repo root");
        check_against(&bench).unwrap();
        for m in &END_TO_END {
            let b = bound_of(&bench, m.name).expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        // The file is exactly what `list --json` prints.
        let rendered = render_benchmark_json(
            bench.get("run_seconds").and_then(Json::as_f64).unwrap() as u32,
            &|name| bound_of(&bench, name).unwrap(),
        );
        assert_eq!(crate::json::parse(&rendered).unwrap(), bench);
    }
}
