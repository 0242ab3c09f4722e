//! Robustness of the BIST under edge jitter — a measurement that only
//! works on a noiseless device is not a production test.

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::config::PllConfig;
use pllbist_sim::lock::{wait_for_lock, LockDetector};
use pllbist_sim::noise::NoiseConfig;
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::{CampaignPlan, Scheduler};
use pllbist_telemetry::TelemetryConfig;

#[test]
fn loop_stays_locked_under_moderate_jitter() {
    let cfg = PllConfig::paper_table3();
    let mut pll = CpPll::new_locked(&cfg);
    // 20 µs RMS on a 1 ms reference period: a noisy but usable source.
    pll.set_noise(Some(NoiseConfig::symmetric(20e-6, 1234)));
    pll.advance_to(1.0);
    let f = pll.average_frequency_hz(0.5);
    assert!((f - 5_000.0).abs() < 5.0, "f = {f}");
}

#[test]
fn lock_detector_needs_a_window_wider_than_the_jitter() {
    let cfg = PllConfig::paper_table3();
    for (rms, window, expect_lock) in [
        (5e-6, 100e-6, true),    // jitter well inside the window
        (200e-6, 100e-6, false), // jitter dominates the window
    ] {
        let mut pll = CpPll::new_locked(&cfg);
        pll.set_noise(Some(NoiseConfig::symmetric(rms, 7)));
        pll.advance_to(0.3);
        let mut det = LockDetector::new(window, 32);
        let locked = wait_for_lock(&mut pll, &mut det, 1.0).is_ok();
        assert_eq!(
            locked, expect_lock,
            "rms {rms}, window {window}: locked = {locked}"
        );
    }
}

#[test]
fn monitor_survives_reference_jitter() {
    // A realistic crystal-reference jitter (1 µs RMS on 1 ms period =
    // 0.1 %) must not move the measured magnitudes materially.
    let cfg = PllConfig::paper_table3();
    let settings = MonitorSettings {
        mod_frequencies_hz: vec![1.0, 8.0, 25.0],
        settle_periods: 2.5,
        loop_settle_secs: 0.25,
        ..MonitorSettings::fast()
    };
    let monitor = TransferFunctionMonitor::new(settings);

    // Clean and noisy runs share the engine, so only the jitter differs.
    let plan = CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .scheduler(Scheduler::Serial);
    let clean = monitor.measure(&plan).expect_healthy();
    let mut noisy_pll = CpPll::new_locked(&cfg);
    noisy_pll.set_noise(Some(NoiseConfig::symmetric(1e-6, 42)));
    let noisy = monitor.measure_device(&mut noisy_pll, &TelemetryConfig::disabled());

    for (c, n) in clean.points.iter().zip(&noisy.points) {
        let rc = c.delta_f_hz.abs() / clean.points[0].delta_f_hz.abs();
        let rn = n.delta_f_hz.abs() / noisy.points[0].delta_f_hz.abs();
        assert!(
            (rc - rn).abs() / rc.max(0.05) < 0.2,
            "f = {}: clean {rc} vs noisy {rn}",
            c.f_mod_hz
        );
    }
}

#[test]
fn heavy_jitter_degrades_the_phase_reading_gracefully() {
    // 100 µs RMS (10 % of the reference period): the peak detector's flip
    // time wanders, but the measurement still completes and the in-band
    // magnitude survives (the hold+counter averages the noise).
    let cfg = PllConfig::paper_table3();
    let settings = MonitorSettings {
        mod_frequencies_hz: vec![1.0, 8.0],
        settle_periods: 2.5,
        loop_settle_secs: 0.25,
        ..MonitorSettings::fast()
    };
    let monitor = TransferFunctionMonitor::new(settings);
    let mut pll = CpPll::new_locked(&cfg);
    pll.set_noise(Some(NoiseConfig::symmetric(100e-6, 9)));
    let result = monitor.measure_device(&mut pll, &TelemetryConfig::disabled());
    assert_eq!(result.points.len(), 2);
    let in_band = &result.points[0];
    assert!(
        (in_band.delta_f_hz - 50.0).abs() < 12.0,
        "in-band ΔF = {}",
        in_band.delta_f_hz
    );
}

#[test]
fn jittered_runs_are_reproducible_by_seed() {
    let cfg = PllConfig::paper_table3();
    let run = |seed: u64| {
        let mut pll = CpPll::new_locked(&cfg);
        pll.set_noise(Some(NoiseConfig::symmetric(10e-6, seed)));
        pll.set_stimulus(FmStimulus::multi_tone(1_000.0, 10.0, 8.0, 10));
        pll.advance_to(1.0);
        pll.vco_phase_cycles()
    };
    assert_eq!(run(5).to_bits(), run(5).to_bits());
    assert_ne!(run(5).to_bits(), run(6).to_bits());
}
