//! Wall-clock benchmark of the hetmem allocation broker.
//!
//! ```text
//! cargo run --release --offline --manifest-path brokerbench/Cargo.toml -- \
//!     --workload <served_churn|inproc_contended|guided_epochs> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; the last line of standard
//! output is one JSON object with the verdict and the metrics. See
//! `brokerbench/README.md` for what each metric means.

mod guided;
mod harness;
mod inproc;
mod ops;
mod probe;
mod rss;
mod served;
mod spans;
mod stats;

use harness::{parse_args, Args, Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

/// Where runs put their sockets and span files, relative to the
/// repository root (kept short: Unix socket paths are length-limited).
const OUT_DIR: &str = "brokerbench/out";

const WORKLOADS: [&str; 3] = ["served_churn", "inproc_contended", "guided_epochs"];

fn main() {
    // Read before any workload pins a thread, which narrows the answer.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("brokerbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("brokerbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "served_churn" => served::run(&args, &run_dir),
        "inproc_contended" => inproc::run(&args, &run_dir),
        "guided_epochs" => guided::run(&args, &run_dir),
        other => Err(format!("unknown workload {other:?} (one of {})", WORKLOADS.join(", "))),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(mut report) => {
            report.e2e.insert("peak_rss_mib", rss::peak_rss_mib().unwrap_or(0.0));
            print(&args, &report, cpus);
        }
        Err(e) => {
            eprintln!("brokerbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Writes the traced run's spans next to the run directory.
pub fn write_spans(run_dir: &Path, workload: &str, log: &spans::SpanLog, report: &mut Report) {
    let path = run_dir.parent().unwrap_or(run_dir).join(format!("{workload}.spans.jsonl"));
    match spans::write_jsonl(&path, log.spans()) {
        Ok(()) => report.notes.push(format!(
            "spans: {} written to {} ({} dropped at capacity)",
            log.spans().len(),
            path.display(),
            log.dropped()
        )),
        Err(e) => report.check(format!("write {}: {e}", path.display()), false),
    }
}

fn print(args: &Args, r: &Report, cpus: usize) {
    println!(
        "brokerbench {} seed={} seconds={} trace={} available_parallelism={cpus}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &r.notes {
        println!("  # {note}");
    }
    let c = &r.counts;
    let (list, values) = if args.trace { (PER_LAYER, &r.layer) } else { (END_TO_END, &r.e2e) };
    let value = |name: &str| values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
    for &(name, unit) in list {
        println!("  {name:<34} {:>16.4} {unit}", value(name));
    }
    if !args.trace {
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        println!(
            "  {:<34} {:>16.4} frac ({} of {} ops)",
            "error_frac",
            frac(c.failed, c.attempted),
            c.failed,
            c.attempted
        );
        println!(
            "  {:<34} {:>16.4} frac ({} of {} allocs)",
            "denied_frac",
            frac(c.denied, c.allocs),
            c.denied,
            c.allocs
        );
    }
    let failed_checks = r.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    for (name, ok) in &r.checks {
        println!("  check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    let failed = c.failed + failed_checks;
    let correct = failed == 0;
    println!("  verdict: {}", if correct { "PASS" } else { "FAIL" });
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", value(name))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        c.attempted.max(1),
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program runs and prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(entries, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(json.contains(&entry), "metric {name} ({unit})");
        }
    }
}
