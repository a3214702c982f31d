//! `e2e compare`: two results files held against each other, one row
//! per pairing of workload and end-to-end metric, judged by the bound
//! `BENCHMARK.json` fixes for the metric, and one `fail_share` row per
//! workload, which may not rise at all.

use crate::stats::Json;
use std::path::PathBuf;

pub struct Args {
    pub a: PathBuf,
    pub b: PathBuf,
    pub bench: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Identical runs end up further apart than the bound, so neither
    /// "unchanged" nor "worse" can be read off the medians.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a`. `worse_by` is the share of `a` by
/// which `b` is worse in the metric's direction. `noise` is how far
/// identical runs are known to differ: the wider of the run-to-run
/// spread inside a set and the drift between the medians of sets taken
/// at different times.
pub fn judge(a: f64, b: f64, lower_is_better: bool, noise: f64, bound: f64) -> (f64, Verdict) {
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs();
    let verdict = if noise > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Failed operations as a share of those attempted on `workload`.
fn fail_share(doc: &Json, workload: &str) -> Result<f64, String> {
    let count = |key: &str| doc.get("workloads")?.get(workload)?.get(key)?.as_f64();
    match (count("failed"), count("attempted")) {
        (Some(failed), Some(attempted)) if attempted > 0.0 => Ok(failed / attempted),
        _ => Err(format!("{workload} has no failed/attempted counts")),
    }
}

/// Prints the table; `Ok(false)` when any row regressed.
pub fn run(args: &Args) -> Result<bool, String> {
    let (a, b, bench) = (load(&args.a)?, load(&args.b)?, load(&args.bench)?);
    let field = |doc: &Json, workload: &str, metric: &str, key: &str| -> Option<f64> {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get(key)?
            .as_f64()
    };
    println!(
        "{:<24} {:<16} {:>12} {:>12} {:>8} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "worse by", "noise", "bound"
    );
    let mut regressed = false;
    for workload in bench.get("workloads").ok_or("no workloads")?.as_arr() {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for metric in bench.get("end_to_end").ok_or("no end_to_end")?.as_arr() {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let read = |doc, key| {
                field(doc, workload, name, key).ok_or(format!("{workload}/{name} has no {key}"))
            };
            let (base, new) = (read(&a, "median")?, read(&b, "median")?);
            // A file of one set knows no drift.
            let noise = [(&a, "spread"), (&b, "spread"), (&a, "drift"), (&b, "drift")]
                .iter()
                .filter_map(|(doc, key)| field(doc, workload, name, key))
                .fold(0.0, f64::max);
            let (worse_by, verdict) = judge(base, new, lower, noise, bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{workload:<24} {name:<16} {base:>12.4} {new:>12.4} {:>8.4} {:>+9.4} {noise:>7.4} {bound:>6.2}  {}",
                new / base,
                worse_by,
                verdict.name()
            );
        }
        // Not a share of the base, which is 0: any rise is a regression.
        let (base, new) = (fail_share(&a, workload)?, fail_share(&b, workload)?);
        let verdict = if new > base {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{workload:<24} {:<16} {base:>12.4} {new:>12.4} {:>8} {:>+9.4} {:>7} {:>6}  {}",
            "fail_share",
            "-",
            new - base,
            "-",
            "0 abs",
            verdict.name()
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        // Latency up 20 % against a 10 % bound, quiet runs.
        let (worse, verdict) = judge(100.0, 120.0, true, 0.02, 0.10);
        assert!((worse - 0.20).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        // The same move in a higher-is-better metric is a gain.
        assert_eq!(judge(100.0, 120.0, false, 0.02, 0.10).1, Verdict::Ok);
        assert_eq!(judge(100.0, 85.0, false, 0.02, 0.10).1, Verdict::Regressed);
        // Inside the bound.
        assert_eq!(judge(100.0, 105.0, true, 0.02, 0.10).1, Verdict::Ok);
        // Identical runs further apart than the bound resolve nothing.
        assert_eq!(judge(100.0, 101.0, true, 0.15, 0.10).1, Verdict::Unresolved);
        assert_eq!(judge(100.0, 150.0, true, 0.15, 0.10).1, Verdict::Unresolved);
    }

    #[test]
    fn any_failure_raises_the_fail_share() {
        let doc = Json::parse(r#"{"workloads": {"w": {"attempted": 200, "failed": 1}}}"#).unwrap();
        assert_eq!(fail_share(&doc, "w"), Ok(0.005));
        assert!(fail_share(&doc, "v").is_err());
    }
}
