//! The repo benchmark: two clocks, five workloads, layer-attributed.
//!
//! ```text
//! aceso-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! aceso-benchmark run [--smoke] [--seed <n>] [--seconds <s>] [--out <path>]
//! aceso-benchmark compare <a.json> <b.json>
//! aceso-benchmark describe
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! result on the last line of standard output. `run` does every workload,
//! untraced then traced, and writes a result file for `compare`. See
//! `README.md` for every metric.

mod compare;
mod json;
mod metrics;
mod oracle;
mod probes;
mod report;
mod run;
mod sandbox;
mod spec;
mod stats;
mod trace;
mod workload;

use metrics::Metric;
use report::{Provenance, WorkloadResult};
use std::process::ExitCode;
use workload::{Params, Requests};

const DEFAULT_SEED: u64 = 0xace50;
/// Traces are written here, relative to the directory the run starts in
/// (the root of a checkout).
const RESULTS_DIR: &str = "benchmark/results";

fn usage() -> ExitCode {
    eprintln!(
        "usage: aceso-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      aceso-benchmark run [--smoke] [--seed <n>] [--seconds <s>] [--out <path>]\n\
         \x20      aceso-benchmark compare <a.json> <b.json>\n\
         \x20      aceso-benchmark describe\n\
         workloads: {}\n\
         <n> is decimal or 0x-hex (default {DEFAULT_SEED:#x}); --seconds defaults to {}",
        spec::WORKLOADS.map(|w| w.name).join(", "),
        spec::RUN_SECONDS
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Option<Args> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(it.next()?.clone()),
            "--seed" => a.seed = Some(parse_seed(it.next()?)?),
            "--seconds" => {
                a.seconds = Some(it.next()?.parse().ok().filter(|s| (1..=60).contains(s))?)
            }
            "--trace" => {
                a.trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--out" => a.out = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    Some(a)
}

/// Runs one workload: the untraced pass for the end-to-end metrics and,
/// if `traced`, a second pass over the same requests for the per-layer
/// ones (their difference in `host_kops` is the tracing overhead).
fn run_workload(p: &Params, seed: u64, seconds: u64, traced: bool) -> WorkloadResult {
    let reqs = Requests::generate(p, seed, seconds);
    let untraced = run::run_pass(p, &reqs, false);
    let end_to_end = metrics::end_to_end(&untraced);
    let cycles: Vec<&run::Cycle> = untraced.fault.cycles().collect();
    let mut result = WorkloadResult {
        name: p.name,
        attempted: untraced.attempted,
        failed: untraced.failed,
        errors: untraced.errors.clone(),
        bounds_agree: None,
        series: vec![
            ("segment host rates, kops/s", untraced.segment_kops()),
            (
                "recover_mn wall per cycle, block after block, ms",
                cycles.iter().map(|c| c.recover_wall_ms).collect(),
            ),
            (
                "degraded reads per cycle, block after block, kops/s",
                cycles
                    .iter()
                    .map(|c| c.served as f64 / c.degraded_secs / 1e3)
                    .collect(),
            ),
        ],
        end_to_end,
        per_layer: Vec::new(),
    };
    let untraced_kops = untraced.host_kops();
    // The untraced pass holds millions of op profiles; let them go before
    // the next pass, or the process outgrows the sandbox's fast memory.
    drop(untraced);
    if traced {
        let pass = run::run_pass(p, &reqs, true);
        let probes = probes::Probes::run(p.ops_div as usize);
        result.per_layer = metrics::per_layer(&pass, untraced_kops, &probes);
        result.attempted += pass.attempted;
        result.failed += pass.failed;
        result.errors.extend(pass.errors.iter().cloned());

        let value =
            |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let tightest = ["client", "iops", "atomics", "bw"]
            .map(|b| value(&result.per_layer, &format!("cost.bound_{b}_mops")))
            .into_iter()
            .filter(|b| *b > 0.0) // 0: no demand on that resource
            .fold(f64::INFINITY, f64::min);
        let sim_mops = value(&result.end_to_end, "sim_mops");
        let agree = (tightest - sim_mops).abs() <= sim_mops * 1e-9;
        if !agree {
            result.errors.push(format!(
                "min(cost.bound_*) = {tightest} but sim_mops = {sim_mops}"
            ));
        }
        result.bounds_agree = Some(agree);

        let path = format!("{RESULTS_DIR}/trace-{}.json", p.name);
        let doc = pass.tracer.to_json(p.name, seed).render_pretty(2);
        if let Err(e) =
            std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, doc))
        {
            eprintln!("cannot write {path}: {e}");
        } else {
            println!("wrote {path} ({} spans)", pass.tracer.spans.len());
        }
    }
    result
}

fn print_result(r: &WorkloadResult) {
    println!(
        "== {}: {} ops attempted, {} failed, oracle {}",
        r.name,
        r.attempted,
        r.failed,
        if r.correct() { "clean" } else { "VIOLATED" }
    );
    for e in &r.errors {
        println!("  error: {e}");
    }
    for (label, xs) in &r.series {
        let xs: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
        println!("{label}: {}", xs.join(" "));
    }
    report::print_table("end-to-end (untraced pass):", &r.end_to_end);
    if !r.per_layer.is_empty() {
        report::print_table("per-layer (traced pass):", &r.per_layer);
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = sandbox::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("could not pin to one CPU; host times will scatter more");
    }
    match args.first().map(String::as_str) {
        Some("describe") if args.len() == 1 => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => match compare::compare(&args[1], &args[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("run") => {
            let Some(a) =
                parse_flags(&args[1..]).filter(|a| a.workload.is_none() && a.trace.is_none())
            else {
                return usage();
            };
            let provenance = Provenance {
                seed: a.seed.unwrap_or(DEFAULT_SEED),
                seconds: a.seconds.unwrap_or(spec::RUN_SECONDS),
                smoke: a.smoke,
                nproc,
                rustc: command_output("rustc", &["-V"]),
                commit: command_output("git", &["rev-parse", "HEAD"]),
            };
            println!(
                "seed {:#x}, {} s per workload{}, nproc {} (pinned to {}), {}, commit {}",
                provenance.seed,
                provenance.seconds,
                if a.smoke {
                    " (smoke: ops / 100, keys / 10)"
                } else {
                    ""
                },
                provenance.nproc,
                pinned.map_or("no cpu".into(), |c| format!("cpu {c}")),
                provenance.rustc,
                provenance.commit
            );
            let results: Vec<WorkloadResult> = spec::WORKLOADS
                .iter()
                .map(|w| {
                    let p = workload::params(w.name).expect("declared workload");
                    let p = if a.smoke { p.smoke() } else { p };
                    let r = run_workload(&p, provenance.seed, provenance.seconds, true);
                    print_result(&r);
                    r
                })
                .collect();
            if let Some(out) = &a.out {
                if let Err(e) = std::fs::write(out, report::results_json(&provenance, &results)) {
                    eprintln!("cannot write {out}: {e}");
                    return ExitCode::from(2);
                }
                println!("wrote {out}");
            }
            if results.iter().all(WorkloadResult::correct) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            let Some(a) = parse_flags(&args).filter(|a| a.out.is_none()) else {
                return usage();
            };
            let (Some(name), Some(traced)) = (&a.workload, a.trace) else {
                return usage();
            };
            let Some(p) = workload::params(name) else {
                return usage();
            };
            let p = if a.smoke { p.smoke() } else { p };
            let r = run_workload(
                &p,
                a.seed.unwrap_or(DEFAULT_SEED),
                a.seconds.unwrap_or(spec::RUN_SECONDS),
                traced,
            );
            print_result(&r);
            let reported = if traced { &r.per_layer } else { &r.end_to_end };
            println!("{}", report::contract_line(&r, reported));
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
