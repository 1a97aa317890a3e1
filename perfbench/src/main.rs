//! `morsel-perfbench`: SQL in, rows out through `Session` on a
//! one-worker `QueryService`, on two workloads.
//!
//! ```text
//! morsel-perfbench --workload olap|write-read --seed N --seconds S --trace 0|1
//! ```
//!
//! Every completed operation is checked against a reference computed
//! apart from the engine. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics; the
//! traced run also writes its spans to `.bench_run/`). See README.md.

mod check;
mod common;
mod olap;
mod queries;
mod stats;
mod table;
#[cfg(test)]
mod teeth;
mod write_read;

use std::process::ExitCode;

use common::{cpu_ticks, steal_share, Layers, Tally};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports.
pub struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn untraced(
        tally: Tally,
        metrics: Vec<(&'static str, f64, &'static str)>,
        reads: usize,
    ) -> Outcome {
        eprintln!("completed reads in the timed phase: {reads}");
        Outcome { tally, metrics }
    }

    pub fn traced(
        tally: Tally,
        metrics: Vec<(&'static str, f64, &'static str)>,
        layers: &Layers,
        args: &Args,
    ) -> Outcome {
        let path = std::path::Path::new(".bench_run")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match layers.write(&path) {
            Ok(n) => eprintln!("wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        Outcome { tally, metrics }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["olap", "write-read"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; use olap or write-read"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: morsel-perfbench --workload olap|write-read --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::create_dir_all(".bench_run");
    // Operator panics are contained by the service and show up as failed
    // reads; one line each keeps them readable among the run's notes.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let cpu_before = cpu_ticks();
    let out = match args.workload.as_str() {
        "olap" => olap::run(&args),
        _ => write_read::run(&args),
    };
    if cpu_before.is_some() {
        let share = steal_share(cpu_before, cpu_ticks()) * 100.0;
        eprintln!(
            "CPU time the hypervisor gave to other guests (steal) during the run: {share:.1}%"
        );
    }
    let t = &out.tally;
    eprintln!(
        "attempted {} failed {} | unpredicted failures: {} | mismatches: {}",
        t.attempted,
        t.failed,
        t.unpredicted.len(),
        t.mismatches.len()
    );
    if t.attempted == 0 {
        eprintln!("error: the run attempted no operation");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            eprintln!("  {name:<30} {v:>14.4} {unit}");
            format!("{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.correct(),
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
