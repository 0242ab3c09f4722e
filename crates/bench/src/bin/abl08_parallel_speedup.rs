//! **Ablation abl08** — wall-clock scaling of the parallel sweep engine.
//!
//! Runs the same 12-tone bench-style transfer-function sweep with a
//! serial plan and with a work-stealing plan (one worker per available
//! core), checks the two result vectors are bitwise identical (each
//! modulation point is measured on its own freshly built loop — see
//! `pllbist_sim::parallel`), and reports the measured speedup.
//!
//! On a single-core host the two runs are the same code path and the
//! ratio prints near 1.0×; the >1.5× figure in the PR notes requires a
//! multi-core machine. `--progress` renders an in-place status line
//! over the two timed runs.

use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::bench_measure::{log_spaced, measure_sweep_points, run_sweep, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::parallel::available_parallelism;
use pllbist_sim::{CampaignPlan, Scheduler};
use pllbist_telemetry::{fields, ProgressBoard, RunReport};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut report = RunReport::from_args("abl08_parallel_speedup");
    let cfg = PllConfig::paper_table3();
    let tones = log_spaced(1.0, 40.0, 12);
    let settings = BenchSettings::default();
    let plan = |threads| {
        CampaignPlan::new(cfg.clone())
            .engine::<CpPll>()
            .scheduler(match threads {
                1 => Scheduler::Serial,
                threads => Scheduler::WorkStealing { threads },
            })
            .telemetry(report.telemetry_config())
    };
    let cores = available_parallelism();
    println!(
        "abl08 — parallel sweep speedup ({} tones, {} core(s) available)\n",
        tones.len(),
        cores
    );

    // Coarse `--progress` feed: one board tick per timed run (the timed
    // regions themselves stay unobserved).
    let board = Arc::new(ProgressBoard::new(2, 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl08 parallel speedup",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    // Warm-up pass so neither timed run pays first-touch costs.
    let _ = measure_sweep_points::<CpPll>(&plan(1), &tones[..2], &settings);

    let t0 = Instant::now();
    let serial = run_sweep::<CpPll>(&plan(1), &tones, &settings).expect("serial sweep");
    let dt_serial = t0.elapsed();
    board.point_done(0, true, dt_serial.as_secs_f64());

    let t1 = Instant::now();
    let parallel = run_sweep::<CpPll>(&plan(0), &tones, &settings).expect("parallel sweep");
    let dt_parallel = t1.elapsed();
    board.point_done(0, true, dt_parallel.as_secs_f64());
    drop(progress);

    assert_eq!(serial.quarantined_count(), 0, "healthy grid");
    assert_eq!(parallel.quarantined_count(), 0, "healthy grid");
    assert_eq!(
        serial.ok_points(),
        parallel.ok_points(),
        "parallel sweep must be bitwise identical to serial"
    );
    report.extend(serial.telemetry);
    report.extend(parallel.telemetry);
    println!(" threads = 1      : {:>8.2?}", dt_serial);
    println!(" threads = 0 (auto): {:>8.2?}", dt_parallel);
    let speedup = dt_serial.as_secs_f64() / dt_parallel.as_secs_f64();
    println!("\nspeedup: {speedup:.2}× on {cores} core(s); results bitwise identical");
    if cores == 1 {
        println!("(single-core host: both runs take the serial path, ~1.0× expected)");
    } else if speedup < 1.5 {
        println!("warning: expected >1.5× on a {cores}-core host");
    }
    report.result(
        "speedup",
        fields![
            cores = cores,
            tones = tones.len(),
            serial_secs = dt_serial.as_secs_f64(),
            parallel_secs = dt_parallel.as_secs_f64(),
            speedup = speedup
        ],
    );
    report.finish().expect("write --jsonl output");
}
