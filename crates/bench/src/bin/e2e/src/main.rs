//! `e2e`: the seeded end-to-end benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]
//! e2e [--seed <u64>] [--runs <k>] [--sets <s>] [--seconds <n>] [--out <file>]
//! e2e compare <a.json> <b.json> [--bench <BENCHMARK.json>]
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name with its unit, then one JSON object as the last
//! line: the end-to-end metrics untraced, the per-layer ledger traced.
//! The second runs all three workloads, each run a child process of
//! this executable (so peak memory and the thread budget are per
//! workload): `s` sets of `k` untraced runs on seeds `seed..seed+k` and
//! one traced run, written as one results file. The third holds two
//! results files against each other and against the bounds in
//! `BENCHMARK.json`. See `README.md` in this package.

mod api;
mod compare;
mod loadgen;
mod stats;
mod trace;
mod workloads;

use stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunArgs, WORKLOADS};

/// How long one run measures unless told otherwise; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
const RUN_SECONDS: f64 = 30.0;

/// The flags after the program name (and `compare`), as `--key value`
/// pairs plus positional arguments.
struct Flags {
    named: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags {
            named: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = args.next().ok_or(format!("--{key} needs a value"))?;
                    flags.named.push((key.to_string(), value));
                }
                None => flags.positional.push(arg),
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key} {text:?} is not a number")),
            None => Ok(default),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .named
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = if args.peek().map(String::as_str) == Some("compare") {
        Flags::parse(args.skip(1)).and_then(|flags| compare::run(&flags_for_compare(&flags)?))
    } else {
        Flags::parse(args).and_then(|flags| match flags.get("workload") {
            Some(_) => run_one(&flags),
            None => run_all(&flags),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}

fn flags_for_compare(flags: &Flags) -> Result<compare::Args, String> {
    flags.only(&["bench"])?;
    match flags.positional.as_slice() {
        [a, b] => Ok(compare::Args {
            a: a.into(),
            b: b.into(),
            bench: flags.get("bench").unwrap_or("BENCHMARK.json").into(),
        }),
        _ => Err("usage: e2e compare <a.json> <b.json> [--bench <BENCHMARK.json>]".into()),
    }
}

/// Beside the executable, and so inside the build directory.
fn beside_exe(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.with_file_name(name))
}

/// One workload in this process. `Ok(false)` when it ran but an answer
/// was wrong, an operation failed or an exact count did not repeat.
fn run_one(flags: &Flags) -> Result<bool, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "trace-out"])?;
    let args = RunArgs {
        workload: flags.get("workload").unwrap_or_default().to_string(),
        seed: flags.number("seed", 1)?,
        seconds: flags.number("seconds", RUN_SECONDS)?,
        trace: match flags.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
        },
    };
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    // The library reads its thread budget once, from the environment;
    // nothing of it has run yet.
    let threads = workloads::THREADS;
    std::env::set_var("SMARTPAF_THREADS", threads.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} seed={} seconds={} trace={} nproc={nproc} threads={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let report = workloads::run(&args)?;
    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    if let Some(tracer) = &report.tracer {
        let path = match flags.get("trace-out") {
            Some(path) => PathBuf::from(path),
            None => beside_exe(&format!("e2e-trace-{}.json", args.workload))?,
        };
        std::fs::write(&path, format!("{}\n", tracer.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", tracer.len(), path.display());
    }
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| (*name, Json::metric(*value, unit)));
    let line = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    Ok(report.correct)
}

/// Runs one workload as a child of this executable and parses the JSON
/// object it prints last.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if trace {
        command
            .arg("--trace-out")
            .arg(dir.join(format!("trace-{workload}.json")));
    }
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!("{workload} (seed {seed}, trace {trace}) printed no result ({e}):\n{text}")
    })?;
    for line in text.lines().filter(|l| l.starts_with("note: ")) {
        println!("  {workload} seed {seed}: {line}");
    }
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) was not correct: {last}"
        ));
    }
    Ok(result)
}

/// The values one end-to-end metric took on one workload: one list per
/// set, in the order the sets ran.
struct Series {
    name: &'static str,
    unit: &'static str,
    sets: Vec<Vec<f64>>,
}

impl Series {
    fn record(&self) -> Json {
        let medians: Vec<f64> = self.sets.iter().map(|set| stats::median(set)).collect();
        let spreads = self.sets.iter().map(|set| stats::spread(set));
        let sets = self
            .sets
            .iter()
            .map(|set| Json::Arr(set.iter().copied().map(Json::Num).collect()));
        Json::obj([
            ("unit", Json::Str(self.unit.into())),
            ("median", Json::Num(stats::median(&medians))),
            ("spread", Json::Num(spreads.fold(0.0, f64::max))),
            ("drift", Json::Num(stats::drift(&medians))),
            ("sets", Json::Arr(sets.collect())),
        ])
    }
}

/// All three workloads, `sets` times over: in each set `runs` untraced
/// children per workload on seeds `seed..seed + runs`, and in the last
/// set one traced child as well; gathered into one results file. A
/// workload's sets are the other workloads' runs apart in time, so the
/// file records how far the medians of identical runs drift on this
/// host (`drift`) beside how far single runs scatter (`spread`). Fails
/// when any child does, or leaves out a metric.
fn run_all(flags: &Flags) -> Result<bool, String> {
    flags.only(&["seed", "runs", "sets", "seconds", "out"])?;
    let seed: u64 = flags.number("seed", 1)?;
    let runs: u64 = flags.number("runs", 1)?.max(1);
    let sets: usize = flags.number("sets", 1)?.max(1);
    let seconds: f64 = flags.number("seconds", RUN_SECONDS)?;
    let out = match flags.get("out") {
        Some(path) => PathBuf::from(path),
        None => beside_exe("e2e-results.json")?,
    };
    let dir = out.parent().map(PathBuf::from).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    struct PerWorkload {
        attempted: f64,
        failed: f64,
        series: Vec<Series>,
        ledger: Json,
    }
    let mut per_workload: Vec<PerWorkload> = WORKLOADS
        .iter()
        .map(|_| PerWorkload {
            attempted: 0.0,
            failed: 0.0,
            series: workloads::END_TO_END
                .iter()
                .map(|&(name, unit)| Series {
                    name,
                    unit,
                    sets: Vec::new(),
                })
                .collect(),
            ledger: Json::Null,
        })
        .collect();
    for set in 0..sets {
        for ((workload, _), record) in WORKLOADS.iter().zip(&mut per_workload) {
            for series in &mut record.series {
                series.sets.push(Vec::new());
            }
            for run in 0..runs {
                let result = child(workload, seed + run, seconds, false, &dir)?;
                let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                record.attempted += count("attempted");
                record.failed += count("failed");
                for series in &mut record.series {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(series.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or(format!("{workload} left out {}", series.name))?;
                    series.sets[set].push(value);
                }
            }
            println!("{workload}, set {} of {sets}: {runs} run(s)", set + 1);
            if set + 1 < sets {
                continue;
            }
            let traced = child(workload, seed, seconds, true, &dir)?;
            record.ledger = traced.get("metrics").cloned().unwrap_or(Json::Null);
            for (name, _) in workloads::PER_LAYER {
                if record.ledger.get(name).is_none() {
                    return Err(format!("{workload} left out {name}"));
                }
            }
        }
    }

    let mut records = Vec::new();
    for ((workload, _), record) in WORKLOADS.iter().zip(per_workload) {
        println!("{workload}");
        let mut end_to_end = Vec::new();
        for series in &record.series {
            let json = series.record();
            let field = |key| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  {:<38} {:>14.4} {:<6} spread {:.4} drift {:.4}",
                series.name,
                field("median"),
                series.unit,
                field("spread"),
                field("drift")
            );
            end_to_end.push((series.name, json));
        }
        for (name, metric) in record.ledger.as_obj() {
            let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<38} {value:>14.4} {unit}");
        }
        records.push((
            *workload,
            Json::obj([
                ("attempted", Json::Num(record.attempted)),
                ("failed", Json::Num(record.failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", record.ledger),
            ]),
        ));
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("sets", Json::Num(sets as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::obj(records)),
    ]);
    std::fs::write(&out, format!("{results}\n"))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables the program prints from must
    /// name the same workloads and metrics.
    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let bench = Json::parse(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            bench
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let of = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(name, _)| name.to_string()).collect()
        };
        assert_eq!(names("workloads"), of(&WORKLOADS));
        assert_eq!(names("end_to_end"), of(&workloads::END_TO_END));
        assert_eq!(names("per_layer"), of(&workloads::PER_LAYER));
        for (key, table) in [
            ("end_to_end", &workloads::END_TO_END[..]),
            ("per_layer", &workloads::PER_LAYER[..]),
        ] {
            for (metric, (_, unit)) in bench.get(key).unwrap().as_arr().iter().zip(table) {
                assert_eq!(metric.get("unit").unwrap().as_str(), Some(*unit));
            }
        }
        for (workload, (_, why)) in bench
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(workload.get("why").unwrap().as_str(), Some(why));
        }
        assert_eq!(
            bench.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            bench.get("paths").unwrap().as_arr(),
            [Json::Str("crates/bench/src/bin/e2e".into())]
        );
    }

    #[test]
    fn flags_parse_pairs_and_reject_strangers() {
        let flags = Flags::parse(
            ["a.json", "--seed", "7", "b.json", "--trace", "1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(flags.positional, ["a.json", "b.json"]);
        assert_eq!(flags.number("seed", 1u64), Ok(7));
        assert_eq!(flags.number("runs", 3u64), Ok(3));
        assert!(flags.only(&["seed"]).is_err());
        assert!(flags.only(&["seed", "trace"]).is_ok());
        assert!(Flags::parse(["--seed"].iter().map(|s| s.to_string())).is_err());
        assert!(flags.number::<u64>("trace", 0).is_ok());
        let bad = Flags::parse(["--seed", "x"].iter().map(|s| s.to_string())).unwrap();
        assert!(bad.number("seed", 1u64).is_err());
    }
}
