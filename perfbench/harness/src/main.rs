//! Benchmark harness for the ccmatic workspace.
//!
//! ```text
//! ccmatic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) for about `--seconds`
//! seconds, checks every answer, and prints as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it is a JSON object of run details. Traced runs also write their spans
//! to `.bench_tmp/spans/<workload>-seed<n>.tsv` under the working
//! directory.

// The verifier returns `Result<(), Trace>`, as in the `ccmatic` crate; the
// large `Err` variant only exists on the refutation path.
#![allow(clippy::result_large_err)]

mod inputs;
mod layers;
mod speed;
mod stats;
mod traced;
mod workloads;

use ccmatic::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunArgs, RunReport, WORKLOADS};

/// End-to-end metrics and their units, reported by untraced runs; times
/// are at the reference speed (see `speed.rs`). Raw times and the
/// reference kernel's own figures go to the detail line.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_ref_s", "s"), ("job_ref_p50_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics and their units, reported by traced runs. A layer a
/// workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("cegis.iterations", "count"),
    ("cegis.verifier_calls", "count"),
    ("cegis.replay_hits", "count"),
    ("cegis.setup_s", "s"),
    ("cegis.cexs_checked", "count"),
    ("generator.propose_s", "s"),
    ("generator.propose_calls", "count"),
    ("generator.propose_share", "ratio"),
    ("generator.learn_s", "s"),
    ("generator.regions_pruned", "count"),
    ("generator.cex_subsumed", "count"),
    ("replay.refutes_s", "s"),
    ("replay.refutes_calls", "count"),
    ("verifier.verify_s", "s"),
    ("verifier.verify_calls", "count"),
    ("verifier.verify_share", "ratio"),
    ("verifier.solver_probes", "count"),
    ("smt.theory_props", "count"),
    ("smt.bounds_asserted", "count"),
    ("smt.bounds_reused", "count"),
    ("lra.pivots", "count"),
    ("num.small_ops", "count"),
    ("num.big_ops", "count"),
    ("num.promotions", "count"),
    ("num.fast_fraction", "ratio"),
    ("proof.certs_checked", "count"),
    ("proof.cert_bytes", "bytes"),
    ("proof.check_s", "s"),
    ("proof.hit_share", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.rejected", "count"),
    ("cache.lookup_s", "s"),
    ("enumerate.iterations", "count"),
    ("enumerate.solutions", "count"),
    ("sweep.populate_s", "s"),
    ("sweep.warm_traces_seeded", "count"),
    ("sweep.warm_solutions_confirmed", "count"),
];

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Cli { workload, seed, seconds, trace })
}

fn run(cli: &Cli, args: &RunArgs) -> RunReport {
    match (cli.workload.as_str(), cli.trace) {
        ("verify-batch", false) => workloads::verify_batch(args),
        ("verify-batch", true) => workloads::verify_batch_traced(args),
        ("sweep-cache", false) => workloads::sweep_cache(args),
        ("sweep-cache", true) => workloads::sweep_cache_traced(args),
        (w, false) => workloads::synth(w, args),
        (w, true) => workloads::synth_traced(w, args),
    }
}

/// `value` rendered on one line.
fn one_line(value: &Json) -> String {
    value.render().lines().map(str::trim).collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ccmatic-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp");
    let scratch = tmp.join(format!("run-{}", std::process::id()));
    let args = RunArgs { seed: cli.seed, seconds: cli.seconds, scratch: scratch.clone() };
    let mut report = run(&cli, &args);
    let _ = std::fs::remove_dir_all(&scratch);
    if !cli.trace {
        report.metrics.insert("peak_rss_mb", workloads::peak_rss_mb());
    }

    let mut spans_file = Json::Null;
    if cli.trace {
        let dir = tmp.join("spans");
        let path = dir.join(format!("{}-seed{}.tsv", cli.workload, cli.seed));
        let header = "unit\tspan\tname\tparent\tstart_s\tend_s\n";
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, format!("{header}{}", report.spans_tsv)))
        {
            Ok(()) => spans_file = Json::Str(path.display().to_string()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }

    let names: &[(&str, &str)] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let m =
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))]);
            (name.to_string(), m)
        })
        .collect();
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let detail = Json::obj(vec![
        ("workload", Json::Str(cli.workload.clone())),
        ("seed", Json::UInt(cli.seed)),
        ("trace", Json::Bool(cli.trace)),
        ("units", Json::UInt(report.units as u64)),
        ("fail_frac", Json::Num(fail_frac)),
        (
            "available_parallelism",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        (
            "other_summaries",
            Json::obj(
                report
                    .metrics
                    .iter()
                    .filter(|(k, _)| !names.iter().any(|(n, _)| n == *k))
                    .map(|(k, v)| (*k, Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("spans_file", spans_file),
        (
            "varying_across_units",
            Json::Arr(report.varying.iter().map(|n| Json::Str(n.to_string())).collect()),
        ),
    ]);
    let result = Json::obj(vec![
        ("correct", Json::Bool(report.failed == 0 && report.attempted > 0)),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", one_line(&detail));
    println!("{}", one_line(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic::json::Json;

    /// BENCHMARK.json lists exactly the metrics and workloads this harness
    /// reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for (name, _) in listed("workloads") {
            assert!(WORKLOADS.contains(&name.as_str()), "unknown workload {name}");
        }
    }
}
