//! Command-line entry point of the AAPSM benchmark.
//!
//! ```text
//! aapsm-perfbench --workload <chip_flow|dense_flow|eco_session|hier_grid>
//!                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints a run-metadata line, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` times the workload and reports the end-to-end metrics;
//! `--trace 1` runs the traced tour, reports the per-layer metrics and
//! writes its spans to `<out-dir>/trace-<workload>-<seed>.jsonl`.

use aapsm_perfbench::inputs::Profile;
use aapsm_perfbench::metrics::{json_str, END_TO_END, PER_LAYER};
use aapsm_perfbench::workloads::Workload;
use aapsm_perfbench::{
    available_parallelism, service_workers, tiles_per_axis, tour, workloads, ECO_OUTSTANDING,
    PIPELINE_PARALLELISM,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// CPUs in this process's affinity mask (what `nproc` prints), from
/// `/proc/self/status`; 0 when unavailable.
fn nproc() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return 0;
    };
    list.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            None => range.trim().parse::<usize>().ok().map(|_| 1),
            Some((a, b)) => match (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => Some(b - a + 1),
                _ => None,
            },
        })
        .sum()
}

fn meta(args: &Args) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"build_profile\": {}, \"pipeline_parallelism\": {}, \
         \"tiles_per_axis\": {}, \"service_workers\": {}, \"eco_outstanding\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        available_parallelism(),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        PIPELINE_PARALLELISM,
        tiles_per_axis(),
        service_workers(),
        ECO_OUTSTANDING,
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aapsm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = meta(&args);
    println!("{{\"meta\": {meta}}}");
    let profile = Profile::full();
    let (result, catalog) = if args.trace {
        let (result, tracer) = tour::run(args.workload, args.seed, &profile);
        let path = args.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path, &meta) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        for (layer, ms) in tracer.self_times() {
            eprintln!("self time {layer:<24} {ms:>10.3} ms");
        }
        (result, PER_LAYER)
    } else {
        (
            workloads::run(args.workload, args.seed, args.seconds, &profile),
            END_TO_END,
        )
    };
    for f in &result.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", result.to_json(catalog));
    ExitCode::SUCCESS
}
