//! The parallel sweep executor must be a pure refactor of the serial
//! sweep: every modulation point is measured on its own freshly built
//! loop, so for ANY thread count the result vector is identical — same
//! order, bitwise-equal floats.

use pllbist_sim::bench_measure::{log_spaced, measure_sweep_points, run_sweep, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::{CampaignPlan, CpPll, Scheduler};
use pllbist_telemetry::TelemetryConfig;

fn quick_settings() -> BenchSettings {
    BenchSettings {
        settle_periods: 1.0,
        measure_periods: 2.0,
        samples_per_period: 32,
        ..BenchSettings::default()
    }
}

/// A `CpPll` plan: the event-driven default is covered by
/// `event_driven_campaign.rs`; this file keeps the stepped engine's
/// thread-count guarantees under test.
fn plan_at(cfg: &PllConfig, threads: usize) -> CampaignPlan<CpPll> {
    let scheduler = if threads == 1 {
        Scheduler::Serial
    } else {
        Scheduler::WorkStealing { threads }
    };
    CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .scheduler(scheduler)
}

#[test]
fn sweep_is_bitwise_identical_across_thread_counts() {
    let cfg = PllConfig::paper_table3();
    let tones = log_spaced(2.0, 30.0, 6);

    let serial = measure_sweep_points(&plan_at(&cfg, 1), &tones, &quick_settings());
    let parallel = measure_sweep_points(&plan_at(&cfg, 4), &tones, &quick_settings());

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.f_mod_hz.to_bits(),
            p.f_mod_hz.to_bits(),
            "tone order differs at {i}"
        );
        assert_eq!(
            s.gain.to_bits(),
            p.gain.to_bits(),
            "gain differs at {i}: {} vs {}",
            s.gain,
            p.gain
        );
        assert_eq!(
            s.phase.to_bits(),
            p.phase.to_bits(),
            "phase differs at {i}: {} vs {}",
            s.phase,
            p.phase
        );
    }
}

#[test]
fn auto_thread_count_matches_serial_too() {
    let cfg = PllConfig::paper_table3();
    let tones = [3.0, 8.0, 21.0];
    let serial = measure_sweep_points(&plan_at(&cfg, 1), &tones, &quick_settings());
    let auto = measure_sweep_points(&plan_at(&cfg, 0), &tones, &quick_settings());
    for (s, a) in serial.iter().zip(&auto) {
        assert_eq!(s.gain.to_bits(), a.gain.to_bits());
        assert_eq!(s.phase.to_bits(), a.phase.to_bits());
    }
}

#[test]
fn telemetry_enabled_sweep_is_bitwise_identical_for_any_thread_count() {
    // The acceptance bar for the observability layer: turning the
    // collector on must not perturb a single bit of the physics, at any
    // parallelism.
    let cfg = PllConfig::paper_table3();
    let tones = log_spaced(2.0, 30.0, 5);
    let baseline = measure_sweep_points(&plan_at(&cfg, 1), &tones, &quick_settings());
    for threads in [1, 2, 3, 8] {
        let plan = plan_at(&cfg, threads).telemetry(TelemetryConfig::enabled());
        let run = run_sweep(&plan, &tones, &quick_settings()).expect("healthy sweep");
        assert!(!run.telemetry.is_empty(), "threads = {threads}");
        for (i, (b, p)) in baseline.iter().zip(&run.ok_points()).enumerate() {
            assert_eq!(
                b.gain.to_bits(),
                p.gain.to_bits(),
                "gain differs at {i} with telemetry, threads = {threads}"
            );
            assert_eq!(
                b.phase.to_bits(),
                p.phase.to_bits(),
                "phase differs at {i} with telemetry, threads = {threads}"
            );
        }
    }
}

#[test]
fn more_threads_than_points_is_fine() {
    let cfg = PllConfig::paper_table3();
    let tones = [5.0, 12.0];
    let serial = measure_sweep_points(&plan_at(&cfg, 1), &tones, &quick_settings());
    let wide = measure_sweep_points(&plan_at(&cfg, 16), &tones, &quick_settings());
    assert_eq!(serial, wide);
}
