//! The MiddleWhere benchmark: one command that runs a named workload
//! against the system as deployed, checks every output against an
//! oracle, and prints its metrics.
//!
//! ```text
//! mwbench --workload <city_rush|floor_fusion|routed_fig9> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable report lines go to standard error; the last line of
//! standard output is the JSON result. See `README.md` beside this
//! package for the workloads and metrics.

mod city;
mod floor;
mod layers;
mod oracle;
mod pace;
mod report;
mod routed;
mod shadow;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{Outcome, E2E, E2E_REPORT_ONLY, LAYERS, LAYERS_REPORT_ONLY};

/// Spans written to the trace file at most.
const TRACE_CAP: usize = 50_000;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["city_rush", "floor_fusion", "routed_fig9"];

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's spans beside the package and notes where.
pub fn write_trace(rec: &trace::Recorder, workload: &str, seed: u64, out: &mut Outcome) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"));
    match rec.write_jsonl(&path, TRACE_CAP) {
        Ok(()) => out.note(format!(
            "spans: {} recorded, first {} written to {}",
            rec.spans().len(),
            rec.spans().len().min(TRACE_CAP),
            path.display()
        )),
        Err(e) => out.note(format!("spans: could not write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mwbench: {e}");
            eprintln!(
                "usage: mwbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match cfg.workload.as_str() {
        "city_rush" => city::run(&cfg),
        "floor_fusion" => floor::run(&cfg),
        _ => routed::run(&cfg),
    };
    eprintln!(
        "== {} seed {} ({}) ==",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for line in &out.notes {
        eprintln!("  {line}");
    }
    eprintln!(
        "  failed_frac: {} failed of {} attempted operations (readings ingested + queries issued) = {:.6}",
        out.failed(),
        out.attempted,
        report::ratio(out.failed() as f64, out.attempted as f64)
    );
    for (kind, n) in &out.failures {
        eprintln!("    {kind}: {n}");
    }
    let wanted = if cfg.trace { LAYERS } else { E2E };
    let report_only = if cfg.trace {
        LAYERS_REPORT_ONLY
    } else {
        E2E_REPORT_ONLY
    };
    for (name, unit) in wanted.iter().chain(report_only) {
        if let Some(v) = out.metrics.get(name) {
            eprintln!("  {name:<34} {v:>14.3} {unit}");
        }
    }
    match out.result_line(wanted) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(missing) => {
            eprintln!("mwbench: metrics not measured: {}", missing.join(", "));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg = parse(&args(
            "--workload city_rush --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cfg,
            Config {
                workload: "city_rush".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--workload city_rush")).is_err());
        assert!(parse(&args("--workload city_rush --seed x")).is_err());
        assert!(parse(&args("--workload city_rush --seed 1 --trace 2")).is_err());
        assert!(parse(&args("--workload city_rush --seed 1 --seconds -1")).is_err());
        assert!(parse(&args("--workload city_rush --seed")).is_err());
    }
}
