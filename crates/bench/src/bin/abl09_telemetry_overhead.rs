//! **Ablation abl09** — the observability tax: wall-clock cost of the
//! telemetry layer on a fast() monitor sweep, four ways.
//!
//! * `baseline`  — default settings (telemetry field left at its
//!   disabled default), i.e. the pre-telemetry hot path;
//! * `disabled`  — an explicitly constructed disabled collector; must be
//!   statistically indistinguishable from baseline (the disabled path is
//!   one `Option` check, no clock reads, no locks);
//! * `enabled`   — full span/counter/histogram collection;
//! * `enabled+recorder` — full collection plus the campaign
//!   observatory's per-point bookkeeping (progress-board ticks and
//!   flight-recorder events for every tone), i.e. what a fully observed
//!   campaign pays per point.
//!
//! Statistics are the testkit's robust median/MAD over interleaved
//! samples (round-robin, so slow drift hits all variants alike). The
//! process exits non-zero if either enabled-path median overhead
//! exceeds 5 % — the acceptance bar for the telemetry layer, recorder
//! included.
//!
//! Environment: `PLLBIST_ABL09_SAMPLES` (samples per variant, default
//! 15, minimum 5). `--progress` renders an in-place status line over
//! the interleaved sample rounds.

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::config::PllConfig;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::supervisor::PointOutcome;
use pllbist_sim::{CampaignPlan, Scheduler};
use pllbist_telemetry::{fields, ProgressBoard, RunReport, TelemetryConfig};
use pllbist_testkit::bench::{format_secs, median_mad};
use std::sync::Arc;
use std::time::Instant;

const TONES: [f64; 3] = [2.0, 8.0, 25.0];

fn workload() -> TransferFunctionMonitor {
    TransferFunctionMonitor::new(MonitorSettings {
        mod_frequencies_hz: TONES.to_vec(),
        settle_periods: 1.5,
        loop_settle_secs: 0.2,
        ..MonitorSettings::fast()
    })
}

/// A serial plan carrying the variant's telemetry config — the only
/// knob that differs between variants, and it lives on the plan.
fn plan(cfg: &PllConfig, telemetry: TelemetryConfig) -> CampaignPlan<CpPll> {
    CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .scheduler(Scheduler::Serial)
        .telemetry(telemetry)
}

/// The observatory bookkeeping a fully observed campaign performs for
/// one swept tone: a claim, an outcome tally and the matching flight
/// events (all the observer hooks on the healthy path).
fn observe_tone(observer: &CampaignObserver, index: usize, wall_secs: f64) {
    observer.on_claim(0, index);
    observer.on_outcome(
        0,
        index,
        &PointOutcome::<f64> {
            result: Ok(0.0),
            incidents: vec![],
        },
        wall_secs,
    );
    observer.on_flush(0, index);
}

fn main() {
    let mut report = RunReport::from_args("abl09_telemetry_overhead");
    let samples: usize = std::env::var("PLLBIST_ABL09_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
        .max(5);
    let cfg = PllConfig::paper_table3();
    let monitor = workload();
    let variants = [
        ("baseline", plan(&cfg, TelemetryConfig::default()), false),
        ("disabled", plan(&cfg, TelemetryConfig::disabled()), false),
        ("enabled", plan(&cfg, TelemetryConfig::enabled()), false),
        (
            "enabled+recorder",
            plan(&cfg, TelemetryConfig::enabled()),
            true,
        ),
    ];
    let observer = CampaignObserver::new(TONES.len(), 1, ObservatoryConfig::default());
    println!(
        "abl09 — telemetry overhead on a 3-tone fast() monitor sweep \
         ({samples} samples/variant)\n"
    );

    // Coarse `--progress` feed: one board tick per timed sample (the
    // timed regions themselves stay unobserved).
    let board = Arc::new(ProgressBoard::new(samples * variants.len(), 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl09 telemetry overhead",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    // Warm-up: one run per variant so no variant pays first-touch costs.
    for (_, variant_plan, _) in &variants {
        std::hint::black_box(monitor.measure(variant_plan));
    }

    // Interleaved sampling: each round times every variant once.
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); variants.len()];
    for _ in 0..samples {
        for (i, (_, variant_plan, with_recorder)) in variants.iter().enumerate() {
            let started = Instant::now();
            std::hint::black_box(monitor.measure(variant_plan));
            if *with_recorder {
                let wall = started.elapsed().as_secs_f64() / TONES.len() as f64;
                for index in 0..TONES.len() {
                    observe_tone(&observer, index, wall);
                }
            }
            times[i].push(started.elapsed().as_secs_f64());
            board.point_done(0, true, times[i][times[i].len() - 1]);
        }
    }
    drop(progress);

    println!(" variant          | median      | MAD         | vs baseline");
    println!(" -----------------+-------------+-------------+------------");
    let stats: Vec<(f64, f64)> = times.iter().map(|t| median_mad(t)).collect();
    let (base_median, base_mad) = stats[0];
    for ((name, _, _), &(median, mad)) in variants.iter().zip(&stats) {
        let rel = (median - base_median) / base_median * 100.0;
        println!(
            " {:<16} | {:>11} | {:>11} | {:>+9.2} %",
            name,
            format_secs(median),
            format_secs(mad),
            rel
        );
        report.result(
            "variant",
            fields![
                name = *name,
                median_secs = median,
                mad_secs = mad,
                overhead_pct = rel,
                samples = samples
            ],
        );
    }

    let (dis_median, dis_mad) = stats[1];
    let (en_median, _) = stats[2];
    let (rec_median, _) = stats[3];
    let disabled_gap = (dis_median - base_median).abs();
    let noise_floor = 3.0 * (base_mad + dis_mad) + 1e-4 * base_median;
    let enabled_overhead_pct = (en_median - base_median) / base_median * 100.0;
    let recorder_overhead_pct = (rec_median - base_median) / base_median * 100.0;
    println!(
        "\ndisabled vs baseline: gap {} (noise floor {}) — {}",
        format_secs(disabled_gap),
        format_secs(noise_floor),
        if disabled_gap <= noise_floor {
            "indistinguishable"
        } else {
            "DISTINGUISHABLE (check the disabled fast path)"
        }
    );
    println!("enabled overhead: {enabled_overhead_pct:+.2} % (budget 5 %)");
    println!("enabled+recorder overhead: {recorder_overhead_pct:+.2} % (budget 5 %)");
    report.result(
        "verdict",
        fields![
            enabled_overhead_pct = enabled_overhead_pct,
            recorder_overhead_pct = recorder_overhead_pct,
            disabled_gap_secs = disabled_gap,
            noise_floor_secs = noise_floor,
            pass = enabled_overhead_pct <= 5.0 && recorder_overhead_pct <= 5.0
        ],
    );
    report.finish().expect("write --jsonl output");
    if enabled_overhead_pct > 5.0 {
        eprintln!("abl09: enabled telemetry overhead exceeds the 5 % budget");
        std::process::exit(1);
    }
    if recorder_overhead_pct > 5.0 {
        eprintln!("abl09: enabled+recorder overhead exceeds the 5 % budget");
        std::process::exit(1);
    }
}
