//! The benchmark command.
//!
//! ```text
//! netbench --workload <tcp-sso-w32|inproc-paper4|tcp-durable-evict>
//!          --seed <n> --seconds <s> --trace <0|1> [--decides-per-tenant <n>]
//! ```
//!
//! Prints the host facts, one line per metric, and as the last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. A traced
//! run also writes its spans to `out/spans-<workload>.csv` in this package.
//! Exits 1 when a correctness check fails, 2 on bad arguments.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use netbench::{run, RunOptions, RunReport, Workload};

const USAGE: &str = "usage: netbench --workload <tcp-sso-w32|inproc-paper4|tcp-durable-evict> \
                     --seed <n> --seconds <s> --trace <0|1> [--decides-per-tenant <n>]";

fn parse_args() -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut decides_per_tenant = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--decides-per-tenant" => {
                let n = value.parse::<u64>().map_err(|e| bad(&e))?;
                if n == 0 || n % u64::from(netbench::workload::WINDOW) != 0 {
                    return Err(bad(&"must be a positive multiple of 32"));
                }
                decides_per_tenant = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    let seconds = seconds
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or_else(|| missing("--seconds (a non-negative number)"))?;
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut options = RunOptions::new(
        workload,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace.ok_or_else(|| missing("--trace"))?,
        out.join(format!("run-{}", std::process::id())),
    );
    if let Some(n) = decides_per_tenant {
        options.decides_per_tenant = n;
    }
    Ok(options)
}

/// Full digits of a finite number; 0 for a non-finite one (the run is then
/// already marked incorrect).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".into()
    }
}

fn print_report(options: &RunOptions, report: &RunReport) {
    let host = &report.host;
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"available_parallelism\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"profile\": \"{}\", \"commit\": \"{}\", \"shards\": {}, \"connections\": {}, \
         \"tenants\": {}, \"decides_per_tenant\": {}, \"episodes\": {}, \"traced_episodes\": {}}}",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        options.seconds,
        host.available_parallelism,
        host.nproc,
        host.cpu_model.replace('"', "'"),
        host.profile,
        host.commit,
        netbench::workload::SHARDS,
        options.workload.connections(),
        options.workload.tenants(),
        options.decides_per_tenant,
        report.episode_rates.len(),
        report.traced.len(),
    );
    for m in &report.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let rates: Vec<String> = report
        .episode_rates
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("# decides_per_s by episode: {}", rates.join(" "));
    let calls = &report.decide_calls;
    println!(
        "# decide calls: {} measured in {} blocks of {}",
        calls.seen(),
        calls.blocks(),
        netbench::stats::BLOCK
    );
    for failure in &report.failures {
        println!("# check failed: {failure}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("run aborted: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::from(1);
        }
    };
    if options.trace {
        let path = options
            .work_dir
            .with_file_name(format!("spans-{}.csv", options.workload.name()));
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            report.write_spans(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    print_report(&options, &report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
