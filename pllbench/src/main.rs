//! The pllbist benchmark: one workload per invocation, or all in turn.
//!
//! ```text
//! cargo run --release --manifest-path pllbench/Cargo.toml -- \
//!     --workload <serve-recover|bist-family|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--break-check]
//! ```
//!
//! `all` runs every workload in turn. Each workload's last line of
//! standard output is its result: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). The lines before it
//! give context: the resolved engine backend, sample counts, what was
//! checked. Any failed check exits with code 1; bad arguments with 2.
//!
//! `--smoke` shrinks every size to a few jobs or devices, and
//! `--break-check` corrupts one output before the checks run, to show
//! that they catch it. Work files go under `.bench_work/` in the current
//! directory and are removed at the end, except the traces of traced
//! runs in `.bench_work/traces/`.

mod bist;
mod gen;
mod host;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::Path;

use metrics::Outcome;

/// One invocation's arguments.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub break_check: bool,
}

/// FNV-1a 64 of `bytes`: how the checks compare outputs without keeping
/// them, so memory does not grow with the amount of work a run does.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Where a traced run leaves its trace: beside its work directory, which
/// is removed at the end of the run.
pub fn trace_path(work: &Path, spec: &RunSpec) -> std::path::PathBuf {
    work.parent()
        .unwrap_or(work)
        .join("traces")
        .join(format!("{}-seed{}.jsonl", spec.workload, spec.seed))
}

pub const WORKLOADS: [&str; 2] = ["serve-recover", "bist-family"];

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec {
        workload: String::new(),
        seed: 0,
        seconds: 40.0,
        traced: false,
        smoke: false,
        break_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => spec.workload = value()?.clone(),
            "--seed" => spec.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                spec.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(spec.seconds >= 0.0 && spec.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                spec.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => spec.smoke = true,
            "--break-check" => spec.break_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if spec.workload != "all" && !WORKLOADS.contains(&spec.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(spec)
}

/// Runs one workload with its work files under `work`, which is removed
/// afterwards.
pub fn run(spec: &RunSpec, work: &Path) -> Outcome {
    let out = match std::fs::create_dir_all(work).and_then(|()| host::fsync_ms(work)) {
        Err(e) => {
            let mut out = Outcome::default();
            out.fail(format!("work dir {}: {e}", work.display()));
            out
        }
        Ok(fsync_ms) => {
            let cpu_ms = host::cpu_calib_ms();
            let ticks = host::CpuTicks::now();
            let mut out = match spec.workload.as_str() {
                "serve-recover" => {
                    let params = if spec.smoke {
                        serve::Params::smoke()
                    } else {
                        serve::Params::full()
                    };
                    serve::run(spec, &params, work)
                }
                _ => {
                    let params = if spec.smoke {
                        bist::Params::smoke()
                    } else {
                        bist::Params::full()
                    };
                    bist::run(spec, &params, work)
                }
            };
            out.set("host.fsync_ms", fsync_ms);
            out.set("host.cpu_calib_ms", cpu_ms);
            out.set(
                "host.steal_pct",
                ticks.map_or(0.0, host::CpuTicks::steal_pct_since),
            );
            out
        }
    };
    let _ = std::fs::remove_dir_all(work);
    out
}

/// Runs and reports one workload; `true` when every check passed.
fn report(spec: &RunSpec) -> bool {
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        spec.workload,
        spec.seed,
        std::process::id()
    ));
    println!(
        "pllbench {} seed {} ({} s{}{})",
        spec.workload,
        spec.seed,
        spec.seconds,
        if spec.traced { ", traced" } else { "" },
        if spec.smoke { ", smoke sizes" } else { "" },
    );
    let out = run(spec, &work);
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        println!("  CHECK FAILED: {problem}");
    }
    for name in ["host.fsync_ms", "host.cpu_calib_ms", "host.steal_pct"] {
        println!("  {name} = {:.4}", out.get(name).unwrap_or(0.0));
    }
    println!("{}", out.result_line(spec.traced));
    out.correct()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("pllbench: {e}");
            std::process::exit(2);
        }
    };
    // Injected kills unwind as panics inside the service by design;
    // keep their messages out of the output.
    std::panic::set_hook(Box::new(|_| {}));
    let workloads: Vec<&str> = match spec.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut correct = true;
    for workload in workloads {
        correct &= report(&RunSpec {
            workload: workload.to_string(),
            ..spec.clone()
        });
    }
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, traced: bool, break_check: bool) -> Outcome {
        let spec = RunSpec {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            traced,
            smoke: true,
            break_check,
        };
        let work = std::env::temp_dir().join(format!(
            "pllbench-test-{}-{workload}-{traced}-{break_check}",
            std::process::id()
        ));
        let out = run(&spec, &work.join("run"));
        let _ = std::fs::remove_dir_all(&work);
        out
    }

    fn assert_healthy(out: &Outcome, traced: bool) {
        assert!(out.correct(), "{:?}", out.problems);
        assert!(out.attempted > 0);
        let line = out.result_line(traced);
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
    }

    #[test]
    fn argument_parsing() {
        let args: Vec<String> = "--workload bist-family --seed 42 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let spec = parse(&args).expect("valid");
        assert_eq!(
            (spec.workload.as_str(), spec.seed, spec.seconds, spec.traced),
            ("bist-family", 42, 3.0, true)
        );
        assert!(parse(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn smoke_serve_recover() {
        let out = smoke("serve-recover", false, false);
        assert_healthy(&out, false);
        assert!(out.get("jobs_per_s").unwrap() > 0.0);
        let traced = smoke("serve-recover", true, false);
        assert_healthy(&traced, true);
        assert!(traced.get("server.polls_per_job").unwrap() >= 1.0);
        assert!(traced.get("scenario.direct_ms_p50").unwrap() > 0.0);
        // Every job was killed once and torn once before it finished.
        assert!(traced.get("service.attempts_per_job").unwrap() >= 3.0);
        assert!(traced.get("sidecar.hit_ratio").unwrap() > 0.0);
    }

    #[test]
    fn smoke_bist_family() {
        let out = smoke("bist-family", false, false);
        assert_healthy(&out, false);
        let traced = smoke("bist-family", true, false);
        assert_healthy(&traced, true);
        assert_eq!(traced.get("monitor.counter_gates_per_tone"), Some(1.0));
        assert!(traced.get("engine.steps_per_tone").unwrap() > 0.0);
    }

    #[test]
    fn a_broken_output_fails_the_checks() {
        for workload in WORKLOADS {
            let out = smoke(workload, false, true);
            assert!(!out.correct(), "{workload}: corrupted output passed");
            assert!(out.failed >= 1);
            assert!(out.result_line(false).contains("\"correct\":false"));
        }
    }
}
