//! `gmsbench` — the repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! gmsbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! gmsbench                      every workload, every metric by name
//! gmsbench --selftest           tiny sizes, every check, a few seconds
//! gmsbench spread [--workload W] [--seconds S] [--out DIR]   ten seeds
//! gmsbench compare A B          results files or directories of them
//! ```

mod bench;
mod clock;
mod compare;
mod json;
mod metrics;
mod probes;
mod runner;
mod slots;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Config, Outcome};
use workloads::{Scale, NAMES};

/// `run_seconds` of `BENCHMARK.json` (`metrics::tests` holds the two equal).
pub const DEFAULT_SECONDS: u32 = 8;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_OUT: &str = "benchmark/results";

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    out: PathBuf,
    selftest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
        selftest: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        fn number<T: std::str::FromStr>(name: &str, s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("{name}: {s:?} is not a number"))
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selftest" => args.selftest = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word if args.command.is_none() => args.command = Some(word.to_string()),
            word => args.positional.push(word.to_string()),
        }
    }
    if !(1..=3600).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=3600", args.seconds));
    }
    Ok(args)
}

fn print_metrics(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
}

/// The driver's form: one workload, the result line last.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: args.out.clone(),
        scale: Scale::Full,
    };
    let outcome = bench::run(&cfg)?;
    for problem in &outcome.problems {
        eprintln!("gmsbench: {problem}");
    }
    eprintln!("gmsbench: details in {}", outcome.results_file.display());
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// No arguments (or `--selftest`): every workload, untraced then traced, and
/// every metric by name with its unit.
fn run_all(args: &Args, scale: Scale) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in NAMES {
        for trace in [false, true] {
            let cfg = Config {
                workload: workload.to_string(),
                seed: args.seed,
                seconds: args.seconds,
                trace,
                out: args.out.clone(),
                scale,
            };
            let outcome = bench::run(&cfg)?;
            println!(
                "{workload} (trace {}): {} — attempted {}, failed {}",
                u8::from(trace),
                if outcome.correct { "correct" } else { "INCORRECT" },
                outcome.attempted,
                outcome.failed
            );
            print_metrics(&outcome);
            all_correct &= outcome.correct;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.command.as_deref() {
        Some("compare") => match args.positional.as_slice() {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: gmsbench compare A B".to_string()),
        },
        Some("spread") => compare::spread(args.seconds, args.workload.as_deref(), &args.out),
        Some(other) => Err(format!("unknown command {other:?}")),
        None if args.selftest => {
            let out = args.out.join("selftest");
            run_all(&Args { out, ..args }, Scale::Tiny)
        }
        None => match args.workload.clone() {
            Some(workload) => run_one(&args, &workload),
            None => run_all(&args, Scale::Full),
        },
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gmsbench: {message}");
            ExitCode::from(2)
        }
    }
}
