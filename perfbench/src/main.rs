//! End-to-end and per-layer benchmark of the Mozart reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pandas|serve_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints human-readable lines (the run context, a
//! per-pipeline table) and ends with one JSON result line carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The process exits 0 only when every checked output
//! matched its reference. See `perfbench/README.md` for the metric
//! definitions.

mod eval;
mod report;
mod serve;
mod stats;
mod sys;

use report::Report;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["pandas", "serve_tcp"];

/// Parsed command line.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-loop budget in seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <pandas|serve_tcp> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A derived seed for input `k` of a run seeded with `seed`
/// (SplitMix64 finalizer, so nearby seeds give unrelated inputs).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "serve_tcp" => serve::run(args, report),
        _ => eval::run(args, report),
    }
}

/// Share of `--seconds` given to the other workload's pass in a traced
/// run.
const OTHER_SHARE: u64 = 4;

/// The traced line carries every layer's metrics, but each workload
/// exercises only some layers: `pandas` never reaches the serving stack
/// and `serve_tcp` never runs the Figure 4 pipelines. A traced run
/// therefore splits its budget: three quarters for a traced pass of its
/// own workload, then a quarter for a traced pass of the other workload
/// (same seed), from which it takes only the metrics its own pass did
/// not measure; the engine, pool, setup and run-context figures stay the
/// workload's own.
fn traced_run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let other_seconds = (args.seconds / OTHER_SHARE).max(1);
    let own = RunArgs {
        workload: args.workload.clone(),
        seconds: (args.seconds - other_seconds).max(1),
        ..*args
    };
    run(&own, report)?;
    let other = RunArgs {
        workload: WORKLOADS
            .iter()
            .find(|w| **w != args.workload)
            .expect("two workloads")
            .to_string(),
        seconds: other_seconds,
        ..*args
    };
    println!(
        "layers outside {}: a traced {} pass of {} s",
        args.workload, other.workload, other.seconds
    );
    let mut extra = Report::default();
    run(&other, &mut extra)?;
    report.fill_missing(extra);
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Mozart parallelizes across pieces; the libraries' own threading
    // stays at 1 except inside base-library calls.
    vectormath::set_num_threads(1);
    imagelib::set_num_threads(1);
    let mut report = Report::default();
    let outcome = if args.trace {
        traced_run(&args, &mut report)
    } else {
        run(&args, &mut report)
    };
    if let Err(e) = outcome {
        eprintln!("benchmark error: {e}");
        std::process::exit(2);
    }
    let f = report.failures;
    println!(
        "error_rate: {} ratio ({} of {} operations failed)",
        f.rate(),
        f.failed,
        f.attempted
    );
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(2);
        }
    }
    // Exit without unwinding the service threads (the accept loops have
    // no shutdown); the process end stops them.
    std::process::exit(i32::from(f.failed > 0 || f.attempted == 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<RunArgs, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload pandas --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pandas", 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload dense --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload pandas --seconds 1").is_err());
        assert!(args("--workload pandas --seed x --seconds 1").is_err());
        assert!(args("--workload pandas --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(1, 2), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 2), sub_seed(2, 2));
        assert_ne!(sub_seed(1, 2), sub_seed(1, 3));
    }
}
