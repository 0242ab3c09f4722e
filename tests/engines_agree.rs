//! Cross-engine validation: the behavioural fast path, the gate-level
//! co-simulation and the analogue-access bench baseline must tell the
//! same story (ablations abl02 / abl06 in test form).

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::bench_measure::{measure_point, BenchSettings};
use pllbist_sim::config::{DriveConfig, FilterConfig, PllConfig};
use pllbist_sim::cosim::MixedSignalPll;
use pllbist_sim::engine::ClosedFormPll;
use pllbist_sim::{CampaignPlan, Scheduler};
use pllbist_testkit::prop::Gen;
use pllbist_testkit::{prop_assert, prop_assume, prop_check};
use std::f64::consts::TAU;

#[test]
fn behavioral_and_gate_level_track_each_other() {
    let cfg = PllConfig::paper_table3();
    let mut beh = CpPll::new_locked(&cfg);
    let mut gate = MixedSignalPll::with_clock_reference(&cfg);
    for k in 1..=4 {
        let t = k as f64 * 0.1;
        beh.advance_to(t);
        gate.advance_to(t);
        let pb = beh.vco_phase_cycles();
        let pg = gate.vco_phase_cycles();
        assert!(
            (pb - pg).abs() < 5.0,
            "t = {t}: behavioral {pb} vs gate {pg} cycles"
        );
    }
}

#[test]
fn bist_monitor_agrees_across_backends() {
    // The tentpole check: the *same* Table 2 BIST sequence — stimulus,
    // peak detector, hold, counters — runs unchanged against the
    // behavioural engine and the gate-level co-simulation via
    // `PllEngine`, and both backends report the same transfer function.
    let cfg = PllConfig::paper_table3();
    let settings = MonitorSettings {
        mod_frequencies_hz: vec![2.0, 8.0, 20.0],
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        capture_transcript: false,
        ..MonitorSettings::fast()
    };
    let monitor = TransferFunctionMonitor::new(settings);
    let serial = CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .scheduler(Scheduler::Serial);
    let beh = monitor.measure(&serial).expect_healthy();
    let gate = monitor
        .measure(&serial.clone().engine::<MixedSignalPll>())
        .expect_healthy();

    assert!(
        (beh.nominal.frequency_hz - gate.nominal.frequency_hz).abs() < 5.0,
        "nominal: behavioral {} vs gate {}",
        beh.nominal.frequency_hz,
        gate.nominal.frequency_hz
    );
    let bb = beh.to_bode();
    let gb = gate.to_bode();
    for (pb, pg) in bb.points().iter().zip(gb.points()) {
        assert!(
            (pb.magnitude - pg.magnitude).abs() / pb.magnitude.max(1e-9) < 0.25,
            "ω = {}: |H| behavioral {} vs gate {}",
            pb.omega,
            pb.magnitude,
            pg.magnitude
        );
        assert!(
            (pb.phase - pg.phase).abs() < 20f64.to_radians(),
            "ω = {}: phase behavioral {}° vs gate {}°",
            pb.omega,
            pb.phase.to_degrees(),
            pg.phase.to_degrees()
        );
    }
}

#[test]
fn bist_monitor_agrees_on_the_event_driven_backend() {
    // The same Table 2 sequence on the per-event closed-form engine must
    // land on the same Bode curve as the micro-stepped engine — the
    // event engine is a faster path through identical physics, not a
    // different model. The two simulation backends share every quantised
    // readout (counters, peak detector, hold), so the monitor curves
    // agree far tighter than either agrees with the gate-level backend
    // in `bist_monitor_agrees_across_backends`.
    let cfg = PllConfig::paper_table3();
    let settings = MonitorSettings {
        mod_frequencies_hz: vec![2.0, 8.0, 20.0],
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        capture_transcript: false,
        ..MonitorSettings::fast()
    };
    let monitor = TransferFunctionMonitor::new(settings);
    let serial = CampaignPlan::new(cfg.clone()).scheduler(Scheduler::Serial);
    let ev = monitor.measure(&serial).expect_healthy();
    let beh = monitor
        .measure(&serial.clone().engine::<CpPll>())
        .expect_healthy();
    let closed = monitor
        .measure(&serial.clone().engine::<ClosedFormPll>())
        .expect_healthy();

    assert!(
        (ev.nominal.frequency_hz - beh.nominal.frequency_hz).abs() < 5.0,
        "nominal: event {} vs behavioral {}",
        ev.nominal.frequency_hz,
        beh.nominal.frequency_hz
    );
    // The closed-form adapter synthesises its edges from the analytic
    // steady state, so nominal-frequency readouts still line up.
    assert!(
        (ev.nominal.frequency_hz - closed.nominal.frequency_hz).abs() < 5.0,
        "nominal: event {} vs closed form {}",
        ev.nominal.frequency_hz,
        closed.nominal.frequency_hz
    );
    let eb = ev.to_bode();
    let bb = beh.to_bode();
    for (pe, pb) in eb.points().iter().zip(bb.points()) {
        assert!(
            (pe.magnitude - pb.magnitude).abs() / pe.magnitude.max(1e-9) < 0.05,
            "ω = {}: |H| event {} vs behavioral {}",
            pe.omega,
            pe.magnitude,
            pb.magnitude
        );
        assert!(
            (pe.phase - pb.phase).abs() < 5f64.to_radians(),
            "ω = {}: phase event {}° vs behavioral {}°",
            pe.omega,
            pe.phase.to_degrees(),
            pb.phase.to_degrees()
        );
    }
}

/// Draws a loop from the benchmark's device family: a Table 3 passive
/// lag with r1 and c within ±15 %, r2 within ±20 % and K0 within ±10 %,
/// or a charge-pump series-RC loop (no ripple capacitor) with c1 and Icp
/// within ±15 % and r within ±10 % — every factor log-uniform.
fn family_loop(g: &mut Gen) -> PllConfig {
    let passive_lag = g.bool();
    let mut factor = |spread: f64| spread.powf(g.f64_range(-1.0, 1.0));
    if passive_lag {
        let mut cfg = PllConfig::paper_table3();
        cfg.filter = FilterConfig::PassiveLag {
            r1: 1.5730e6 * factor(1.15),
            r2: 35.288e3 * factor(1.2),
            c: 470e-9 * factor(1.15),
            r_leak: None,
        };
        cfg.vco_k0 = 24_000.0 * factor(1.1);
        cfg
    } else {
        let mut cfg = PllConfig::integer_n_charge_pump();
        cfg.drive = DriveConfig::Charge {
            i_pump: 100e-6 * factor(1.15),
            mismatch: 1.0,
        };
        cfg.filter = FilterConfig::SeriesRc {
            r: 22e3 * factor(1.1),
            c1: 33e-9 * factor(1.15),
            c2: None,
            r_leak: None,
        };
        cfg
    }
}

#[test]
fn default_engine_agrees_with_cp_pll_across_the_device_family() {
    // The event engine is the default plan engine, so it must read every
    // loop of its class the way the micro-stepped engine does — not just
    // the stock r2 that happens to round the passive lag's high-Z
    // coefficient to exactly zero.
    prop_check!(cases: 48, |g| {
        let cfg = family_loop(g);
        let params = cfg.analysis().dominant_params();
        // The benchmark redraws loops without a resonance peak to fit.
        prop_assume!((0.3..=0.6).contains(&params.damping));
        let fn_hz = params.natural_frequency_hz();
        let monitor = TransferFunctionMonitor::new(MonitorSettings {
            deviation_hz: 0.01 * cfg.f_ref_hz,
            mod_frequencies_hz: vec![fn_hz / 8.0, fn_hz, 3.0 * fn_hz],
            loop_settle_secs: 0.0,
            test_clock_hz: 20e6,
            ..MonitorSettings::fast()
        });
        let serial = CampaignPlan::new(cfg.clone()).scheduler(Scheduler::Serial);
        let ev = monitor.measure(&serial);
        let beh = monitor.measure(&serial.clone().engine::<CpPll>());
        prop_assert!(
            ev.nominal.is_ok() && ev.quarantined_count() == 0,
            "event engine failed on {cfg:?}: {:?} / {:?}",
            ev.nominal,
            ev.points
        );
        let (ev, beh) = (ev.expect_healthy(), beh.expect_healthy());
        prop_assert!(
            (ev.nominal.frequency_hz - beh.nominal.frequency_hz).abs() < 5.0,
            "nominal: event {} vs behavioral {} on {cfg:?}",
            ev.nominal.frequency_hz,
            beh.nominal.frequency_hz
        );
        for (pe, pb) in ev.to_bode().points().iter().zip(beh.to_bode().points()) {
            prop_assert!(
                (pe.magnitude - pb.magnitude).abs() / pe.magnitude.max(1e-9) < 0.05,
                "ω = {}: |H| event {} vs behavioral {} on {cfg:?}",
                pe.omega,
                pe.magnitude,
                pb.magnitude
            );
            prop_assert!(
                (pe.phase - pb.phase).abs() < 5f64.to_radians(),
                "ω = {}: phase event {}° vs behavioral {}° on {cfg:?}",
                pe.omega,
                pe.phase.to_degrees(),
                pb.phase.to_degrees()
            );
        }
        Ok(())
    });
}

#[test]
fn event_driven_bench_matches_the_closed_form_model() {
    // Agreement with the closed form where it is actually comparable:
    // the fig. 3 bench measurement (sine fit on the analogue node) reads
    // the *full* feedback response, exactly the curve the `ClosedFormPll`
    // adapter plays back analytically. The event-driven backend must fit
    // that model as tightly as the behavioural engine does in
    // `bench_baseline_matches_full_linear_model`.
    use pllbist_sim::bench_measure::measure_point_with_stats;
    use pllbist_sim::event_driven::EventDrivenCpPll;
    let cfg = PllConfig::paper_table3();
    let h = cfg.analysis().feedback_transfer();
    let settings = BenchSettings {
        settle_periods: 3.0,
        measure_periods: 3.0,
        ..BenchSettings::default()
    };
    for fm in [2.0, 8.0, 20.0] {
        let (p, _stats) =
            measure_point_with_stats::<EventDrivenCpPll>(&cfg, fm, &settings).expect("bench point");
        let want = h.eval_jw(TAU * fm);
        assert!(
            (p.gain - want.abs()).abs() / want.abs() < 0.1,
            "f = {fm}: event bench {}, closed form {}",
            p.gain,
            want.abs()
        );
        assert!(
            (p.phase - want.arg()).abs() < 0.2,
            "f = {fm}: event bench phase {}, closed form {}",
            p.phase,
            want.arg()
        );
    }
}

#[test]
fn bench_baseline_matches_full_linear_model() {
    // The fig. 3 bench method has analogue access, so it sees the *full*
    // response (zero included) — unlike the hold-based BIST.
    let cfg = PllConfig::paper_table3();
    let h = cfg.analysis().feedback_transfer();
    let settings = BenchSettings {
        settle_periods: 3.0,
        measure_periods: 3.0,
        ..BenchSettings::default()
    };
    for fm in [2.0, 8.0, 20.0] {
        let p = measure_point::<CpPll>(&cfg, fm, &settings).expect("bench point");
        let want = h.eval_jw(TAU * fm);
        assert!(
            (p.gain - want.abs()).abs() / want.abs() < 0.1,
            "f = {fm}: bench {}, model {}",
            p.gain,
            want.abs()
        );
        assert!(
            (p.phase - want.arg()).abs() < 0.2,
            "f = {fm}: bench phase {}, model {}",
            p.phase,
            want.arg()
        );
    }
}

#[test]
fn bench_and_bist_differ_exactly_by_the_hold_readout() {
    // abl06 in miniature: at a frequency past the zero, the bench (full
    // response) and the BIST (hold-referred) disagree by the |1 + jωτ2|
    // factor — both are right about what they measure.
    let cfg = PllConfig::paper_table3();
    let a = cfg.analysis();
    let fm = 25.0;
    let w = TAU * fm;
    let full = a.feedback_transfer().magnitude(w);
    let hold = a.hold_referred_transfer().magnitude(w);
    assert!(full / hold > 2.0, "zero factor visible: {full} vs {hold}");

    let bench = measure_point::<CpPll>(
        &cfg,
        fm,
        &BenchSettings {
            settle_periods: 3.0,
            measure_periods: 3.0,
            ..BenchSettings::default()
        },
    )
    .expect("bench point");
    assert!(
        (bench.gain - full).abs() / full < 0.12,
        "bench follows the full response: {} vs {full}",
        bench.gain
    );
}

#[test]
fn gate_level_pfd_matches_behavioral_pfd_statistics() {
    use pllbist_analog::pfd::{BehavioralPfd, PfdOutput};
    use pllbist_digital::kernel::Circuit;
    use pllbist_digital::logic::Logic;
    use pllbist_digital::time::SimTime;
    use pllbist_sim::cosim::build_gate_pfd;

    // Drive both PFDs with the same deterministic edge pattern and
    // compare UP-time accounting.
    let skews_us: Vec<i64> = (0..40).map(|k| ((k * 37) % 21) as i64 - 10).collect();

    // Gate level.
    let mut c = Circuit::new();
    let r = c.input("r", Logic::Low);
    let f = c.input("f", Logic::Low);
    let (up, dn) = build_gate_pfd(&mut c, r, f, SimTime::from_nanos(2));
    c.trace_net(up);
    c.trace_net(dn);
    let mut t = SimTime::from_micros(50);
    for &sk in &skews_us {
        let (tr, tf) = if sk >= 0 {
            (t, t + SimTime::from_micros(sk as u64))
        } else {
            (t + SimTime::from_micros((-sk) as u64), t)
        };
        c.poke(r, Logic::High, tr);
        c.poke(r, Logic::Low, tr + SimTime::from_micros(20));
        c.poke(f, Logic::High, tf);
        c.poke(f, Logic::Low, tf + SimTime::from_micros(20));
        t += SimTime::from_micros(100);
    }
    c.run_until(t);
    let up_gate = c.trace().total_high_time(up).as_secs_f64();

    // Behavioural.
    let mut pfd = BehavioralPfd::new();
    let mut up_beh = 0.0;
    for (k, &sk) in skews_us.iter().enumerate() {
        let t0 = 50e-6 + k as f64 * 100e-6;
        if sk >= 0 {
            pfd.on_reference_edge(t0);
            pfd.on_feedback_edge(t0 + sk as f64 * 1e-6);
        } else {
            pfd.on_feedback_edge(t0);
            pfd.on_reference_edge(t0 + (-sk) as f64 * 1e-6);
        }
        if let Some(p) = pfd.last_pulse() {
            if p.direction == PfdOutput::Up {
                up_beh += p.end - p.start;
            }
        }
    }
    // Gate-level adds ~2 gate delays per pulse; tolerance covers that.
    assert!(
        (up_gate - up_beh).abs() < 0.05 * up_beh.max(1e-6) + 40.0 * 6e-9,
        "gate {up_gate} vs behavioral {up_beh}"
    );
}
