//! The command-line contract: a result line last, exit code 0 only when
//! every check passed, and no result at all for bad arguments.

use std::process::{Command, Output};

fn pllbench(args: &str, dir: &std::path::Path) -> Output {
    std::fs::create_dir_all(dir).expect("test dir");
    Command::new(env!("CARGO_BIN_EXE_pllbench"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("run pllbench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn checks_pass_exit_zero_and_a_forced_failure_exits_one() {
    let dir = std::env::temp_dir().join(format!("pllbench-cli-{}", std::process::id()));
    let base = "--workload bist-family --seed 3 --seconds 0 --trace 0 --smoke";

    let ok = pllbench(base, &dir);
    assert_eq!(ok.status.code(), Some(0), "{}", last_line(&ok));
    let line = last_line(&ok);
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    for name in [
        "setup_s",
        "jobs_per_s",
        "job_p50_ms",
        "job_tail_ms",
        "peak_rss_mb",
    ] {
        assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{line}");
    }

    let broken = pllbench(&format!("{base} --break-check"), &dir);
    assert_eq!(broken.status.code(), Some(1));
    assert!(last_line(&broken).starts_with("{\"correct\":false,"));

    let bad = pllbench("--workload nope --seed 1", &dir);
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());

    // Work files are cleaned up; only the trace directory may remain.
    let left: Vec<_> = std::fs::read_dir(dir.join(".bench_work"))
        .map(|d| d.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(left.iter().all(|n| n == "traces"), "{left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
