//! Fault-detection integration: transfer-function monitoring flags
//! parametric circuit defects (the paper's §1 motivation and our abl05
//! ablation in test form).

use pllbist::estimate::LimitComparator;
use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_analog::fault::Fault;
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::config::PllConfig;
use pllbist_sim::{CampaignPlan, PllEngine, Scheduler};

fn serial_plan(cfg: &PllConfig) -> CampaignPlan {
    CampaignPlan::new(cfg.clone()).scheduler(Scheduler::Serial)
}

/// A serial plan on the clamped micro-stepped engine, for faults that
/// rail the loop: a leaky control node droops in hold until the linear
/// VCO frequency would cross zero, which the event engine's closed form
/// excludes.
fn railed_plan(cfg: &PllConfig) -> CampaignPlan<CpPll> {
    serial_plan(cfg).engine::<CpPll>()
}

fn monitor() -> TransferFunctionMonitor {
    TransferFunctionMonitor::new(MonitorSettings {
        mod_frequencies_hz: vec![1.0, 5.0, 8.0, 12.0, 25.0],
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        ..MonitorSettings::fast()
    })
}

fn golden_limits<E: PllEngine>(plan: impl Fn(&PllConfig) -> CampaignPlan<E>) -> LimitComparator {
    // Calibrated on the golden device's measured values so the method's
    // own bias does not consume the guard band.
    let est = monitor()
        .measure(&plan(&PllConfig::paper_table3()))
        .expect_healthy()
        .estimate();
    LimitComparator::around(
        est.natural_frequency_hz.expect("golden fn"),
        est.damping.expect("golden ζ"),
        0.2,
    )
}

#[test]
fn golden_device_passes() {
    let limits = golden_limits(serial_plan);
    let est = monitor()
        .measure(&serial_plan(&PllConfig::paper_table3()))
        .expect_healthy()
        .estimate();
    let verdict = limits.judge(&est);
    assert!(verdict.pass, "{verdict}");
}

#[test]
fn gross_vco_gain_fault_fails() {
    // −50 % VCO gain moves ωn by 1/√2 — far outside ±20 %.
    let cfg = PllConfig::paper_table3()
        .with_fault(Fault::VcoGainScale(0.5))
        .unwrap();
    let est = monitor()
        .measure(&serial_plan(&cfg))
        .expect_healthy()
        .estimate();
    let verdict = golden_limits(serial_plan).judge(&est);
    assert!(!verdict.pass, "fault escaped: {est:?}");
}

#[test]
fn filter_capacitor_fault_fails() {
    let cfg = PllConfig::paper_table3()
        .with_fault(Fault::FilterCapScale(3.0))
        .unwrap();
    let est = monitor()
        .measure(&serial_plan(&cfg))
        .expect_healthy()
        .estimate();
    let verdict = golden_limits(serial_plan).judge(&est);
    assert!(!verdict.pass, "fault escaped: {est:?}");
}

#[test]
fn weakened_zero_fault_shifts_damping() {
    // R2 × 0.1 starves the stabilising zero: ζ collapses, peaking grows.
    let cfg = PllConfig::paper_table3()
        .with_fault(Fault::FilterR2Scale(0.1))
        .unwrap();
    let golden = monitor()
        .measure(&serial_plan(&PllConfig::paper_table3()))
        .expect_healthy()
        .estimate();
    let faulty = monitor()
        .measure(&serial_plan(&cfg))
        .expect_healthy()
        .estimate();
    let (zg, zf) = (golden.damping.unwrap(), faulty.damping.unwrap());
    assert!(zf < 0.6 * zg, "golden ζ {zg}, faulty ζ {zf}");
}

#[test]
fn leakage_fault_detected_through_hold_droop() {
    // A leaky control node makes the held frequency sag during the count
    // window — the measured deviations become inconsistent and the
    // parameters move out of band.
    let cfg = PllConfig::paper_table3()
        .with_fault(Fault::FilterLeakage(1e6))
        .unwrap();
    let golden = monitor()
        .measure(&railed_plan(&PllConfig::paper_table3()))
        .expect_healthy()
        .estimate();
    let faulty = monitor()
        .measure(&railed_plan(&cfg))
        .expect_healthy()
        .estimate();
    let fg = golden.natural_frequency_hz.unwrap();
    // Either the estimate moves or vanishes — both flag the part.
    match faulty.natural_frequency_hz {
        None => {}
        Some(ff) => assert!(
            (ff - fg).abs() / fg > 0.1 || faulty.damping.is_none(),
            "leakage escaped: golden {fg}, faulty {ff} ({faulty:?})"
        ),
    }
}

#[test]
fn campaign_detection_rate_is_high() {
    let limits = golden_limits(railed_plan);
    let mon = monitor();
    let mut detected = 0usize;
    let mut total = 0usize;
    for fault in Fault::standard_campaign() {
        // Skip faults that don't wire into the voltage-driven paper loop
        // (e.g. current-pump mismatch).
        let Ok(cfg) = PllConfig::paper_table3().with_fault(fault) else {
            continue;
        };
        let est = mon.measure(&railed_plan(&cfg)).expect_healthy().estimate();
        total += 1;
        if !limits.judge(&est).pass {
            detected += 1;
        }
    }
    // The marginal severities may escape a ±20 % band; the campaign as a
    // whole must still be caught at a high rate.
    assert!(
        detected * 10 >= total * 6,
        "only {detected}/{total} faults detected"
    );
}
