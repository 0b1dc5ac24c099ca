//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_queries|durable_churn|outofcore_scan>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one single-threaded client in a closed loop over a
//! seeded op sequence against one database. Untraced runs (`--trace 0`)
//! print the end-to-end metrics; traced runs (`--trace 1`) split every op
//! into timed calls of the layers underneath and print the per-layer
//! metrics. The last stdout line is one JSON object; see `README.md`.

mod durable_churn;
mod edits;
mod layers;
mod outofcore_scan;
mod paper_queries;
mod probe;
mod procfs;
mod reads;
mod run;
mod session;
mod stats;

use ongoing_core::date::{civil_from_days, date};
use ongoing_core::TimePoint;
use rand::Rng;

/// An op or check that either succeeds or says what went wrong.
pub type Fallible = Result<(), String>;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the data and of the op sequence.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_queries|durable_churn|outofcore_scan> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// A day `0..span` days after `from`, drawn from `rng`.
pub fn day(rng: &mut impl Rng, from: (i32, u8, u8), span: i64) -> TimePoint {
    let start = date(from.0, from.1, from.2);
    TimePoint::new(start.ticks() + rng.gen_range(0..span))
}

/// `DATE 'YYYY-MM-DD'` literal of a day.
pub fn sql_date(t: TimePoint) -> String {
    let c = civil_from_days(t.ticks());
    format!("DATE '{:04}-{:02}-{:02}'", c.year, c.month, c.day)
}

fn main() {
    // One executor thread, and no budgets or sinks from the environment:
    // the benchmark sets every knob it depends on itself.
    std::env::set_var(ongoing_engine::THREADS_ENV, "1");
    for var in [
        ongoing_engine::RESULT_CACHE_BUDGET_ENV,
        ongoing_engine::storage::durable::MEMORY_BUDGET_ENV,
        ongoing_engine::EVENT_LOG_ENV,
        ongoing_engine::SLOW_QUERY_ENV,
    ] {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "paper_queries" => run::main::<paper_queries::PaperQueries>(&args),
        "durable_churn" => run::main::<durable_churn::DurableChurn>(&args),
        "outofcore_scan" => run::main::<outofcore_scan::OutOfCoreScan>(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line() {
        let a = parse("--workload durable_churn --seed 42 --seconds 7.5 --trace 1").unwrap();
        assert_eq!(a.workload, "durable_churn");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 7.5, true));
        assert!(parse("--seed x").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus 1").is_err());
        assert!(parse("--seed").is_err());
    }

    #[test]
    fn date_literals() {
        assert_eq!(sql_date(date(2009, 3, 1)), "DATE '2009-03-01'");
    }

    /// Every metric the code emits is declared in `BENCHMARK.json`, so the
    /// two cannot drift apart.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for name in run::metric_names() {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }
}
