//! **Ablation abl06** — the digital-only BIST against the conventional
//! bench measurement (paper fig. 3) that requires analogue access.
//!
//! Both are run on the same device at the same tones. The bench method
//! (sine-fit on the probed VCO frequency) reads the *full* closed-loop
//! response; the hold-and-count BIST reads the *hold-referred* one. Each
//! is compared against its own theory — the residuals quantify how little
//! accuracy the analogue probe actually buys.
//!
//! `--jsonl <path>` writes the run report; `--progress` renders an
//! in-place status line over the two sweeps.

use std::sync::Arc;
use std::time::Instant;

use pllbist::monitor::{MonitorSettings, StimulusKind, TransferFunctionMonitor};
use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::bench_measure::{measure_sweep, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::CampaignPlan;
use pllbist_telemetry::{fields, ProgressBoard, RunReport};
use std::f64::consts::TAU;

fn main() {
    let mut report = RunReport::from_args("abl06_bench_vs_bist");
    let cfg = PllConfig::paper_table3();
    let freqs = vec![1.0, 3.0, 6.0, 8.0, 12.0, 20.0, 35.0];
    println!("abl06 — bench (analogue access) vs BIST (digital only)\n");

    // Coarse `--progress` feed: one tick per sweep (bench, then BIST).
    let board = Arc::new(ProgressBoard::new(2, 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl06",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    let plan = CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .telemetry(report.telemetry_config());
    let t0 = Instant::now();
    let bench = measure_sweep::<CpPll>(
        &plan,
        &freqs,
        &BenchSettings {
            settle_periods: 3.0,
            measure_periods: 4.0,
            ..BenchSettings::default()
        },
    );
    board.point_done(0, true, t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let bist = TransferFunctionMonitor::new(MonitorSettings {
        stimulus: StimulusKind::PureSine,
        mod_frequencies_hz: freqs.clone(),
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        ..MonitorSettings::fast()
    })
    .measure(&plan)
    .expect_healthy();
    board.point_done(0, true, t0.elapsed().as_secs_f64());
    drop(progress);
    report.extend(bist.telemetry.clone());

    let a = cfg.analysis();
    let h_full = a.feedback_transfer();
    let h_hold = a.hold_referred_transfer();
    let bist_ref = bist.points[0].delta_f_hz.abs();
    let hr_ref = h_hold.magnitude(TAU * freqs[0]);

    println!(" f_mod | bench |H| | full theory | BIST A_F | hold theory | bench err | BIST err");
    println!(" ------+-----------+-------------+----------+-------------+-----------+---------");
    let mut bench_rms = 0.0;
    let mut bist_rms = 0.0;
    for (i, &f) in freqs.iter().enumerate() {
        let b = bench.points()[i].magnitude;
        let tf = h_full.magnitude(TAU * f);
        let m = bist.points[i].delta_f_hz.abs() / bist_ref;
        let th = h_hold.magnitude(TAU * f) / hr_ref;
        let be = (b - tf) / tf * 100.0;
        let me = (m - th) / th * 100.0;
        bench_rms += be * be;
        bist_rms += me * me;
        println!(
            " {:>5.1} | {:>9.3} | {:>11.3} | {:>8.3} | {:>11.3} | {:>8.1} % | {:>6.1} %",
            f, b, tf, m, th, be, me
        );
        report.result(
            "bench_vs_bist_point",
            fields![
                f_mod_hz = f,
                bench_magnitude = b,
                bench_err_pct = be,
                bist_magnitude = m,
                bist_err_pct = me
            ],
        );
    }
    bench_rms = (bench_rms / freqs.len() as f64).sqrt();
    bist_rms = (bist_rms / freqs.len() as f64).sqrt();
    println!("\nRMS error vs own theory: bench {bench_rms:.1} %, BIST {bist_rms:.1} %");
    report.result("rms_error_pct", fields![bench = bench_rms, bist = bist_rms]);
    println!(
        "shape check: the digital-only monitor matches its model about as well as\n\
         the analogue-probe bench matches its own — the paper's case that embedded\n\
         PLLs do not need the probe."
    );
    report.finish().expect("write --jsonl output");
}
