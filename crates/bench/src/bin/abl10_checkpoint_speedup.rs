//! **Ablation abl10** — wall-clock payoff of lock-state checkpointing.
//!
//! Every sweep point needs the loop settled at lock before its tone is
//! programmed. Without checkpointing each point simulates the whole lock
//! transient from scratch; with it the transient is simulated **once**
//! and every point restores the bit-exact snapshot
//! (`pllbist_sim::scenario`). This ablation runs the same bench-style
//! sweep both ways on one thread (so the ratio isolates checkpointing
//! from core-count scaling), checks the results are bitwise identical,
//! and reports the median speedup over several repetitions.
//!
//! The sweep uses high modulation tones on purpose: their per-tone
//! settle/measure windows are short, so the fixed lock transient
//! (≈ `8/(ζ·ωn)` ≈ 0.37 s of simulated time on the paper's loop)
//! dominates the from-scratch cost — the regime checkpointing exists
//! for. The `PLLBIST_ABL10_MIN_SPEEDUP` environment variable overrides
//! the pass threshold (default 1.5) for constrained hosts. `--progress`
//! renders an in-place status line over the timed runs.

use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::bench_measure::{log_spaced, run_sweep, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::{CampaignPlan, Scheduler};
use pllbist_telemetry::{fields, ProgressBoard, RunReport};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut report = RunReport::from_args("abl10_checkpoint_speedup");
    let cfg = PllConfig::paper_table3();
    let tones = log_spaced(25.0, 50.0, 8);
    let reps: usize = std::env::var("PLLBIST_ABL10_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let min_speedup: f64 = std::env::var("PLLBIST_ABL10_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let telemetry = report.telemetry_config();
    let settings = BenchSettings::default();
    // Serial either way: the ratio isolates checkpointing from
    // core-count scaling.
    let plan = move |checkpoint| {
        CampaignPlan::new(cfg.clone())
            .engine::<CpPll>()
            .scheduler(Scheduler::Serial)
            .checkpoint(checkpoint)
            .telemetry(telemetry.clone())
    };
    println!(
        "abl10 — lock-checkpoint speedup ({} tones at 25–50 Hz, {} rep(s), serial)\n",
        tones.len(),
        reps
    );

    // Coarse `--progress` feed: one board tick per timed sweep (the
    // timed regions themselves stay unobserved).
    let board = Arc::new(ProgressBoard::new(2 * reps, 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl10 checkpoint speedup",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    // Warm-up pass so neither timed run pays first-touch costs.
    let _ = run_sweep::<CpPll>(&plan(true), &tones[..2], &settings);

    let mut ratios = Vec::with_capacity(reps);
    let mut scratch_secs = 0.0;
    let mut ckpt_secs = 0.0;
    for rep in 0..reps {
        let t0 = Instant::now();
        let scratch = run_sweep::<CpPll>(&plan(false), &tones, &settings).expect("scratch sweep");
        let dt_scratch = t0.elapsed();
        board.point_done(0, true, dt_scratch.as_secs_f64());

        let t1 = Instant::now();
        let ckpt = run_sweep::<CpPll>(&plan(true), &tones, &settings).expect("checkpoint sweep");
        let dt_ckpt = t1.elapsed();
        board.point_done(0, true, dt_ckpt.as_secs_f64());

        assert_eq!(scratch.quarantined_count(), 0, "healthy grid");
        assert_eq!(ckpt.quarantined_count(), 0, "healthy grid");
        assert_eq!(
            scratch.ok_points(),
            ckpt.ok_points(),
            "checkpointed sweep must be bitwise identical to from-scratch"
        );
        report.extend(scratch.telemetry);
        report.extend(ckpt.telemetry);
        let ratio = dt_scratch.as_secs_f64() / dt_ckpt.as_secs_f64();
        println!(
            " rep {rep}: from-scratch {dt_scratch:>8.2?}  checkpointed {dt_ckpt:>8.2?}  ({ratio:.2}×)"
        );
        ratios.push(ratio);
        scratch_secs += dt_scratch.as_secs_f64();
        ckpt_secs += dt_ckpt.as_secs_f64();
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = ratios[ratios.len() / 2];
    println!(
        "\nmedian speedup: {median:.2}× (threshold {min_speedup:.2}×); results bitwise identical"
    );
    drop(progress);
    report.result(
        "checkpoint_speedup",
        fields![
            tones = tones.len(),
            reps = reps,
            scratch_secs = scratch_secs,
            checkpoint_secs = ckpt_secs,
            median_speedup = median,
            min_speedup = min_speedup
        ],
    );
    report.finish().expect("write --jsonl output");
    assert!(
        median >= min_speedup,
        "checkpointing should pay ≥{min_speedup:.2}× on this sweep, measured {median:.2}×"
    );
}
