//! Production fault screening — the paper's end goal: the measured
//! transfer-function features "will indicate errors in the PLL circuitry"
//! (§1). A golden device sets the limits; every faulty variant from the
//! standard campaign is measured by the same BIST sweep and judged.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_screening
//! ```

use pllbist::estimate::LimitComparator;
use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_analog::fault::Fault;
use pllbist_sim::config::PllConfig;
use pllbist_sim::{CampaignPlan, CpPll, SupervisorPolicy};

fn main() {
    let golden = PllConfig::paper_table3();
    let mut settings = MonitorSettings::fast();
    settings.mod_frequencies_hz = pllbist_sim::bench_measure::log_spaced(1.0, 30.0, 7);
    let monitor = TransferFunctionMonitor::new(settings);
    // The campaign includes control-node leakage, which can droop the
    // loop onto its rails in hold: outside the event engine's closed
    // form, so every device, golden included, runs the stepped engine.
    let device_plan = |cfg: PllConfig| CampaignPlan::new(cfg).engine::<CpPll>();

    // Calibrate limits on the golden device's *measured* parameters
    // (production practice: limits absorb the method's own bias).
    let golden_est = monitor
        .measure(&device_plan(golden.clone()))
        .expect_healthy()
        .estimate();
    let fn_golden = golden_est.natural_frequency_hz.expect("golden fn");
    let zeta_golden = golden_est.damping.expect("golden ζ");
    let limits = LimitComparator::around(fn_golden, zeta_golden, 0.20);
    println!("golden measurement: fn = {fn_golden:.2} Hz, ζ = {zeta_golden:.3}; limits ±20 %\n");

    println!(" fault                                | fn (Hz) |  ζ     | verdict");
    println!(" -------------------------------------+---------+--------+--------");
    let verdict = limits.judge(&golden_est);
    println!(
        " {:<37} | {:>7.2} | {:>6.3} | {}",
        "(golden)", fn_golden, zeta_golden, verdict
    );

    let mut detected = 0usize;
    let mut total = 0usize;
    for fault in Fault::standard_campaign() {
        let cfg = match golden.with_fault(fault) {
            Ok(cfg) => cfg,
            // e.g. pump faults on the voltage-driven paper loop
            Err(_) => continue,
        };
        // Faulty devices run supervised: a numerically sick part is
        // quarantined (and screened out), never a crashed campaign.
        let plan = device_plan(cfg).supervised(SupervisorPolicy::default());
        total += 1;
        let est = match monitor.measure(&plan).estimate() {
            Ok(est) => est,
            Err(e) => {
                detected += 1;
                println!(" {:<37} | quarantined ({e}) -> FAIL", fault.to_string());
                continue;
            }
        };
        let verdict = limits.judge(&est);
        if !verdict.pass {
            detected += 1;
        }
        println!(
            " {:<37} | {:>7.2} | {:>6.3} | {}",
            fault.to_string(),
            est.natural_frequency_hz.unwrap_or(f64::NAN),
            est.damping.unwrap_or(f64::NAN),
            if verdict.pass {
                "PASS (escape)".to_string()
            } else {
                "FAIL".to_string()
            }
        );
    }
    println!("\ncampaign: {detected}/{total} faulty devices flagged by the transfer-function BIST");
}
