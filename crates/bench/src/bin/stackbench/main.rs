//! `stackbench`: the repo's one benchmark. Six workloads over the served
//! range store, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one, every output checked against a sequential
//! oracle. See `README.md` beside this file.
//!
//! ```text
//! stackbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! stackbench list [--json]
//! stackbench calibrate [--runs K] [--seed N] [--seconds S] [--out DIR]
//! stackbench check A B
//! ```

mod gen;
mod json;
mod kernel;
mod layers;
mod recover;
mod report;
mod served;
mod spans;
mod spec;
mod stack;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::Report;
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stack::{Host, Run};

const USAGE: &str = "usage:
  stackbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  stackbench list [--json]
  stackbench calibrate [--runs K] [--seed N] [--seconds S] [--out DIR]
  stackbench check A B        (two directories of result files)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)),
        Some("list") => list(args.iter().any(|a| a == "--json")),
        Some("calibrate") => Flags::parse(&args[1..]).and_then(|f| calibrate(&f)),
        Some("check") if args.len() == 3 => check(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("stackbench: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: usize,
    out: PathBuf,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let mut f = Flags {
            workload: None,
            seed: spec::DEFAULT_SEED,
            seconds: None,
            traced: false,
            smoke: false,
            runs: 5,
            out: target.join("stackbench"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &String| format!("{flag}: cannot read `{v}`");
            match flag.as_str() {
                "--workload" => f.workload = Some(value()?.clone()),
                "--seed" => f.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                    f.seconds = Some(s);
                }
                "--trace" => {
                    f.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--runs" => f.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--out" => f.out = PathBuf::from(value()?),
                "--smoke" => f.smoke = true,
                other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
            }
        }
        Ok(f)
    }
}

/// Removes the per-process WAL directory however the run ends.
struct WalDir(PathBuf);

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let bench = spec::load_benchmark_json()?;
    spec::check_against(&bench)?;
    let Some(name) = flags.workload.as_deref() else { return run_each(flags) };
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("no workload `{name}`; there are: {}", known.join(", "))
        })?
        .name;
    let run_seconds =
        bench.get("run_seconds").and_then(Json::as_f64).ok_or("run_seconds missing")?;
    let seconds = if flags.smoke { 1.0 } else { flags.seconds.unwrap_or(run_seconds) };

    let wal_dir = WalDir(flags.out.join(format!("wal-{}", std::process::id())));
    std::fs::create_dir_all(&wal_dir.0)
        .map_err(|e| format!("cannot create {}: {e}", wal_dir.0.display()))?;
    let run = Run {
        workload,
        seed: flags.seed,
        seconds,
        traced: flags.traced,
        setups: if flags.smoke { 1 } else { 7 },
        host: Host::detect(),
        out_dir: flags.out.clone(),
        wal_dir: wal_dir.0.clone(),
    };

    let report = dispatch(&run);
    emit(&run, &report)
}

/// `run` without `--workload`: every workload, a process each (so that
/// `setup_s` and `rss_peak_mb` are per workload), one result line each.
fn run_each(flags: &Flags) -> Result<ExitCode, String> {
    let mut all_correct = true;
    for w in &WORKLOADS {
        all_correct &=
            child_run(flags, w.name, flags.seed)?.status().map_err(|e| e.to_string())?.success();
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// This program again, as `run` of one workload with these flags.
fn child_run(flags: &Flags, workload: &str, seed: u64) -> Result<std::process::Command, String> {
    let mut cmd = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if flags.traced { "1" } else { "0" }]).arg("--out").arg(&flags.out);
    if let Some(s) = flags.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if flags.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

fn dispatch(run: &Run) -> Report {
    use ddrs_workloads::QueryDistribution;
    let kernel = |dist: QueryDistribution| {
        let p = run.host.p_bench;
        let mut report = report::drive(
            run,
            |r| kernel::generate(r, dist),
            |_, i, secs, setups, spans| kernel::pass(i, p, secs, setups, spans),
            kernel::Inputs::ladder,
            |r, inputs, report| {
                // The paper's curve: the same batches at p = 1. With
                // more ranks than cores the ratio says nothing; leave 0.
                if p > 1 && p <= r.host.nproc {
                    let (at_p, at_1) = kernel::rates_at_p_and_1(inputs, p, r.seconds / 4.0);
                    report.set("cgm.speedup_p", at_p / at_1);
                    report.extra.push(("queries_per_s_at_p", Json::Num(at_p)));
                    report.extra.push(("queries_per_s_at_1", Json::Num(at_1)));
                }
            },
        );
        report.extra.push(("p", Json::Num(p as f64)));
        report
    };
    match run.workload {
        "kernel_uniform" => kernel(gen::UNIFORM),
        "kernel_hotspot" => kernel(gen::HOTSPOT),
        "served_block_reads" => report::drive(
            run,
            served::block_generate,
            served::block_pass,
            served::BlockInputs::ladder,
            |_, _, _| {},
        ),
        // The two write workloads size their inputs from the pass
        // length, so the traced quarter-length passes get their own.
        "served_small_open" => report::drive(
            run,
            |r| served::open_generate(r, pass_seconds(r)),
            |r, i, _, setups, spans| served::open_pass(r, i, setups, spans),
            served::OpenInputs::ladder,
            |_, _, _| {},
        ),
        "served_writes" => report::drive(
            run,
            |r| served::write_generate(r, pass_seconds(r)),
            |r, i, _, setups, spans| served::write_pass(r, i, setups, spans),
            served::WriteInputs::ladder,
            |_, _, _| {},
        ),
        "crash_recover" => report::drive(
            run,
            recover::generate,
            recover::pass,
            recover::Inputs::ladder,
            |_, _, _| {},
        ),
        other => unreachable!("`{other}` was checked against the workload table"),
    }
}

/// Length of one workload pass: the whole run untraced, a quarter of it
/// for each of the two passes of a traced run.
fn pass_seconds(run: &Run) -> f64 {
    if run.traced {
        run.seconds / 4.0
    } else {
        run.seconds
    }
}

/// Print the result: the contract's one-line JSON last on stdout, the
/// human table on stderr, the full result (host block, every metric
/// computed, sample counts) and the chrome trace under the out dir.
fn emit(run: &Run, report: &Report) -> Result<ExitCode, String> {
    let table: &[Metric] = if run.traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for m in table {
        // A per-layer metric reads 0 where its layer did no work; an
        // end-to-end metric the workload did not produce is a bug.
        let value = match report.metrics.get(m.name) {
            Some(v) => *v,
            None if run.traced => 0.0,
            None => return Err(format!("{} did not produce `{}`", run.workload, m.name)),
        };
        metrics.push((
            m.name.to_string(),
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ));
    }
    let correct = report.failed == 0;
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);

    eprintln!(
        "{} seed {} {} s trace {}: attempted {} failed {}",
        run.workload, run.seed, run.seconds, run.traced as u8, report.attempted, report.failed
    );
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = report.metrics.get(m.name) {
            eprintln!("  {:<32} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    if run.traced {
        eprintln!("  harness spans: name, count, mean us, mean self us");
        for (name, (n, dur, own)) in report.spans.summary() {
            eprintln!("    {name:<24} {n:>8} {dur:>12.2} {own:>12.2}");
        }
    }

    let stem = format!("{}.seed{}.trace{}", run.workload, run.seed, run.traced as u8);
    let full = Json::obj(vec![
        ("workload", Json::str(run.workload)),
        ("host", run.host.json(run)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::Obj(report.metrics.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
        ),
        (
            "samples",
            Json::Obj(
                report.samples.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect(),
            ),
        ),
        (
            "detail",
            Json::Obj(report.extra.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()),
        ),
    ]);
    let write = |name: String, body: String| {
        let path = run.out_dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), full.render() + "\n")?;
    if run.traced {
        write(format!("{stem}.chrome.json"), report.spans.chrome_trace().render())?;
    }

    println!("{}", line.render());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn list(as_json: bool) -> Result<ExitCode, String> {
    if as_json {
        // `BENCHMARK.json` as this program wants it: the file's own run
        // length and bounds where it exists, the starting ones where not.
        let bench = spec::load_benchmark_json().ok();
        let seconds = bench
            .as_ref()
            .and_then(|b| b.get("run_seconds")?.as_f64())
            .map_or(spec::START_RUN_SECONDS, |s| s as u32);
        let bound = |m: &str| {
            bench
                .as_ref()
                .and_then(|b| spec::bound_of(b, m))
                .unwrap_or_else(|| spec::start_bound(m))
        };
        print!("{}", spec::render_benchmark_json(seconds, &bound));
        return Ok(ExitCode::SUCCESS);
    }
    let bench = spec::load_benchmark_json()?;
    spec::check_against(&bench)?;
    println!("seeds: default {}, held out {}\n", spec::DEFAULT_SEED, spec::HELD_OUT_SEED);
    println!("workloads");
    for w in &WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("\nend-to-end (untraced run; bound = share of the parent's median it may worsen by)");
    for m in &END_TO_END {
        let bound = spec::bound_of(&bench, m.name).unwrap_or(0.0);
        println!("  {:<14} {:<6} {:<7} bound {:<5} {}", m.name, m.unit, m.better, bound, m.note);
    }
    println!("\nper-layer (traced run; 0 where the layer does no work)");
    for m in &PER_LAYER {
        println!("  {:<32} {:<7} {:<7} {}", m.name, m.unit, m.better, m.note);
    }
    Ok(ExitCode::SUCCESS)
}

/// End-to-end metric values of a result set: every `*.trace0.json` in
/// `dir`, grouped by workload.
fn load_set(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.to_string_lossy().ends_with(".trace0.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload =
            result.get("workload").and_then(Json::as_str).ok_or("result without workload")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{} reports failed operations", path.display()));
        }
        let metrics =
            result.get("metrics").and_then(Json::as_obj).ok_or("result without metrics")?;
        let per_metric = set.entry(workload.to_string()).or_default();
        for m in &END_TO_END {
            let v = metrics
                .iter()
                .find(|(k, _)| k == m.name)
                .and_then(|(_, v)| v.as_f64())
                .ok_or_else(|| format!("{}: no `{}`", path.display(), m.name))?;
            per_metric.entry(m.name.to_string()).or_default().push(v);
        }
    }
    if set.is_empty() {
        return Err(format!("no *.trace0.json results in {}", dir.display()));
    }
    Ok(set)
}

/// By how much of `base` `new` is worse, in the metric's own direction.
fn worsening(m: &Metric, base: f64, new: f64) -> f64 {
    let delta = if m.better == "lower" { new - base } else { base - new };
    delta / base.abs()
}

/// Do two result sets of the same commit agree within the bounds? The
/// medians of B may not be worse than those of A by more than the bound
/// on any end-to-end metric of any workload.
fn check(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let bench = spec::load_benchmark_json()?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut worst = 0usize;
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            return Err(format!("{} has no `{workload}` results", b.display()));
        };
        for m in &END_TO_END {
            let bound = spec::bound_of(&bench, m.name).ok_or("bound missing")?;
            let (ma, mb) = (stats::median(&metrics_a[m.name]), stats::median(&metrics_b[m.name]));
            let worse = worsening(m, ma, mb);
            let verdict = if worse > bound {
                worst += 1;
                "  <-- out of bound"
            } else {
                ""
            };
            println!(
                "{workload:<20} {:<12} {ma:>14.3} {mb:>14.3} {:>8.1}% {:>6.0}%{verdict}",
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if worst == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run every workload `--runs` times (a process each, a new seed each),
/// then print median, quartiles and spread per end-to-end metric, and
/// the bound that spread supports.
fn calibrate(flags: &Flags) -> Result<ExitCode, String> {
    let bench = spec::load_benchmark_json()?;
    let workloads: Vec<&str> = match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    std::fs::create_dir_all(&flags.out).map_err(|e| e.to_string())?;
    for workload in &workloads {
        for k in 0..flags.runs.max(1) as u64 {
            let mut cmd = child_run(flags, workload, flags.seed + k)?;
            let t0 = std::time::Instant::now();
            let out =
                cmd.stderr(std::process::Stdio::null()).output().map_err(|e| e.to_string())?;
            eprintln!(
                "{workload} seed {}: {:.1} s, exit {}",
                flags.seed + k,
                t0.elapsed().as_secs_f64(),
                out.status
            );
            if !out.status.success() {
                return Err(format!("{workload} seed {} failed", flags.seed + k));
            }
        }
    }
    if flags.traced {
        return Ok(ExitCode::SUCCESS);
    }
    let set = load_set(&flags.out)?;
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>14} {:>8} {:>7} {:>9}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "supports"
    );
    let mut loose = 0;
    for (workload, metrics) in &set {
        for m in &END_TO_END {
            let values = &metrics[m.name];
            let (q1, q3) = stats::quartiles(values);
            let spread = stats::relative_iqr(values);
            let bound = spec::bound_of(&bench, m.name).ok_or("bound missing")?;
            // The driver wants every spread but setup_s's under a third
            // of the bound.
            let flag = if m.name != "setup_s" && spread > bound / 3.0 {
                loose += 1;
                "  <-- over bound/3"
            } else {
                ""
            };
            println!(
                "{workload:<20} {:<12} {:>14.3} {q1:>14.3} {q3:>14.3} {:>7.1}% {:>6.0}% {:>8.1}%{flag}",
                m.name,
                stats::median(values),
                spread * 100.0,
                bound * 100.0,
                (2.0 * spread).clamp(spec::start_bound(m.name), 0.25) * 100.0,
            );
        }
    }
    Ok(if loose == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END.iter().find(|m| m.better == "higher").unwrap();
        assert_eq!(lower.better, "lower");
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 10.0, 9.0) < 0.0);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn flags_parse_the_driver_command_line() {
        let args: Vec<String> = "--workload served_writes --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.workload.as_deref(), Some("served_writes"));
        assert_eq!((f.seed, f.seconds, f.traced, f.smoke), (7, Some(10.0), true, false));
        assert!(Flags::parse(&["--trace".into(), "2".into()]).is_err());
        assert!(Flags::parse(&["--seconds".into(), "0".into()]).is_err());
        assert!(Flags::parse(&["--bogus".into()]).is_err());
    }
}
