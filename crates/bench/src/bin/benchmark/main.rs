//! The layered EDMS benchmark: four hierarchy workloads measured end to
//! end through the program's own drivers, plus a traced pump for
//! per-layer numbers. See `README.md` beside this file.
//!
//! ```sh
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--seed S] [--seconds T] [--workload NAME] [--trace 0|1] \
//!     [--quick] [--repeat N] [--trace-out FILE]
//! ```
//!
//! With `--workload` the process measures that workload itself and ends
//! its output with one JSON result line. Without it, every workload runs
//! in a child process of its own (so peak memory and allocator state are
//! per workload), first untraced for the end-to-end metrics, then traced
//! for the per-layer table.

#![forbid(unsafe_code)]

mod e2e;
mod inputs;
mod layers;
mod probe;
mod pump;
mod stats;
mod trace;
mod workloads;

use mirabel_core::exec::Pool;
use stats::relative_spread;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use trace::json_field;
use workloads::{Workload, WORKLOADS};

/// What one run of one workload measured, end to end or per layer.
pub struct Measured {
    /// One line of sample counts behind the numbers.
    pub samples: String,
    /// `(name, value)` in printing order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Offers submitted.
    pub attempted: usize,
    /// Of those, offers that did not terminate exactly once.
    pub failed: usize,
    /// Failed output checks.
    pub failures: Vec<String>,
}

/// The end-to-end metrics as `BENCHMARK.json` declares them: `(name,
/// unit, higher is better, bound)`, every one reported on every
/// workload. The bound is the share of the median a metric may worsen
/// by, or sets may differ by under `--repeat`, before it counts as a
/// regression; the timing bounds are the widest the driver admits,
/// because the reference box drifts by 10-40 % over minutes and the
/// host-speed probe takes out most of that drift, not all (README,
/// "Host speed" and "Bounds and repeatability").
const END_TO_END: [(&str, &str, bool, f64); 10] = [
    ("setup_s", "s", false, 0.25),
    ("round_ms_p50", "ms", false, 0.25),
    ("round_ms_p90", "ms", false, 0.25),
    ("offers_per_s", "1/s", true, 0.25),
    ("report_s", "s", false, 0.25),
    ("wire_bytes_per_offer", "B", false, 0.1),
    ("assigned_frac", "ratio", true, 0.1),
    ("imbalance_reduction", "ratio", true, 0.1),
    ("peak_rss_mb", "MiB", false, 0.2),
    ("recover_ms_p50", "ms", false, 0.25),
];

/// Set-up differences below this many seconds never fail `--repeat`:
/// at a few milliseconds, jitter alone exceeds any relative bound.
const SETUP_FLOOR_S: f64 = 0.005;

/// Seconds of timed reps per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<Workload>,
    trace: bool,
    quick: bool,
    repeat: usize,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        workload: None,
        trace: false,
        quick: false,
        repeat: 1,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result of one run of one workload, as the JSON line carries it.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` in printing order.
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`RunResult::to_json_line`].
    fn from_json_line(line: &str) -> Option<RunResult> {
        let (head, metrics) = line.split_once("\"metrics\": {")?;
        let mut parsed = Vec::new();
        for entry in metrics.split("}, ") {
            let (name, body) = entry.split_once(": {")?;
            parsed.push((
                name.trim_matches('"').to_string(),
                json_field(body, "value")?.parse().ok()?,
                json_field(body, "unit")?.trim_matches('"').to_string(),
            ));
        }
        Some(RunResult {
            correct: json_field(head, "correct")? == "true",
            attempted: json_field(head, "attempted")?.parse().ok()?,
            failed: json_field(head, "failed")?.parse().ok()?,
            metrics: parsed,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// `(host cores, pool width)`. The caller is one of the pool's lanes, so
/// at most `width` threads run. One core is left to the OS and whatever
/// else the host runs: on the 2-core reference box a pool as wide as the
/// host made every round wait for whichever lane was preempted, and the
/// run-to-run spread of round times was 2-5x that of a pool one lane
/// narrower (measured interleaved; see the README). The traced run
/// compares against the full `min(cores, 4)` pool (`exec.width_speedup`).
fn pool_width() -> (usize, usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores, cores.saturating_sub(1).clamp(1, 4))
}

/// Measure one workload in this process and print its result line.
fn run_workload(args: &Args, w: Workload) -> ExitCode {
    let (host_cores, width) = pool_width();
    println!(
        "workload={} seed={} seconds={} trace={} host_cores={host_cores} pool_width={width} \
         \"quick\": {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!("why: {}", w.why());
    let (measured, units): (Measured, BTreeMap<&str, &str>) = if args.trace {
        let wide = Pool::new(host_cores.min(4));
        let (measured, spans) = layers::measure(w, args.seed, args.seconds, &wide, args.quick);
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, trace::to_json_lines(&spans)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} spans to {path}", spans.len());
        }
        let units = layers::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        (measured, units)
    } else {
        let pool = Pool::new(width);
        let measured = e2e::measure(w, args.seed, args.seconds, &pool, args.quick);
        let units = END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect();
        (measured, units)
    };
    println!("{}", measured.samples);

    let mut failures = measured.failures;
    let mut result = RunResult {
        correct: true,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: Vec::new(),
    };
    for (name, mut value) in measured.metrics {
        if !value.is_finite() {
            failures.push(format!("{}: {name} is not finite", w.name()));
            value = 0.0;
        }
        let unit = units[name];
        println!("  {name:<34} {value:>16.4} {unit}");
        result
            .metrics
            .push((name.to_string(), value, unit.to_string()));
    }
    for failure in &failures {
        println!("CHECK FAILED {failure}");
    }
    result.correct = failures.is_empty() && result.failed == 0;
    println!("{}", result.to_json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process; echo its report and parse the
/// result line. `None` if the child failed a check or printed no result.
fn spawn_workload(args: &Args, w: Workload, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(path)) = (trace, &args.trace_out) {
        cmd.args(["--trace-out", &format!("{path}.{}", w.name())]);
    }
    // `output()` waits for the child, so none outlives this process.
    let output = cmd.output().expect("spawn own executable");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop()?;
    for line in lines {
        println!("  {line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    RunResult::from_json_line(last).filter(|r| r.correct && output.status.success())
}

/// Every workload in child processes: `--repeat` end-to-end sets, then
/// one traced set; finally the spread of each metric across the sets.
fn run_all(args: &Args) -> ExitCode {
    let (host_cores, width) = pool_width();
    println!(
        "MIRABEL EDMS benchmark: seed={} seconds={} sets={} host_cores={host_cores} \
         pool_width={width} \"quick\": {}",
        args.seed, args.seconds, args.repeat, args.quick
    );
    let mut ok = true;
    let mut sets: Vec<BTreeMap<&str, RunResult>> = Vec::new();
    for set in 0..args.repeat {
        println!(
            "\n== end-to-end set {} of {} (tracing and metering off)",
            set + 1,
            args.repeat
        );
        let mut results = BTreeMap::new();
        for w in WORKLOADS {
            match spawn_workload(args, w, false) {
                Some(result) => {
                    results.insert(w.name(), result);
                }
                None => ok = false,
            }
        }
        sets.push(results);
    }
    println!("\n== per-layer (traced pump, width 1, metering on)");
    for w in WORKLOADS {
        ok &= spawn_workload(args, w, true).is_some();
    }

    if args.repeat > 1 {
        println!(
            "\n== repeatability: (max - min) / median over {} sets",
            args.repeat
        );
        println!(
            "  {:<14} {:<22} {:>14} {:>9} {:>7}",
            "workload", "metric", "median", "spread", "bound"
        );
        for w in WORKLOADS {
            for (name, _, higher_is_better, bound) in END_TO_END {
                let values: Vec<f64> = sets
                    .iter()
                    .filter_map(|set| set.get(w.name())?.value(name))
                    .collect();
                if values.len() < args.repeat {
                    continue; // the failed run was reported above
                }
                let (spread, median) = (relative_spread(&values), stats::median(&values));
                let within =
                    spread <= bound || (name == "setup_s" && spread * median <= SETUP_FLOOR_S);
                ok &= within;
                println!(
                    "  {:<14} {:<22} {:>14.4} {:>8.2}% {:>6.0}% {} {}",
                    w.name(),
                    name,
                    median,
                    spread * 100.0,
                    bound * 100.0,
                    if higher_is_better {
                        "higher is better"
                    } else {
                        "lower is better"
                    },
                    if within { "" } else { "EXCEEDS BOUND" }
                );
            }
        }
    }
    if args.quick {
        println!("\n\"quick\": true -- reduced sizes, one rep: not a baseline");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: a check failed or a spread exceeded its bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_workload(&args, w),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 120_000,
            failed: 0,
            metrics: vec![
                (
                    "round_ms_p50".to_string(),
                    43.911984000000004,
                    "ms".to_string(),
                ),
                (
                    "offers_per_s".to_string(),
                    225191.77088133598,
                    "1/s".to_string(),
                ),
            ],
        };
        let line = result.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 120000, \"failed\": 0,"));
        assert_eq!(RunResult::from_json_line(&line), Some(result));
        assert_eq!(RunResult::from_json_line("not a result"), None);
    }

    /// `BENCHMARK.json` is written by hand; it must declare exactly the
    /// metrics, units, bounds and workloads this bin reports.
    #[test]
    fn benchmark_json_matches_the_bin() {
        let json = include_str!("../../../../../BENCHMARK.json");
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher) in layers::PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(w.why().len() <= 200);
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
