//! `bist-family`: the Table 2 monitor sweep
//! (`TransferFunctionMonitor::measure`) over seeded device families, with
//! no disk or HTTP in the way.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use pllbist::monitor::{SupervisedMonitorResult, TransferFunctionMonitor};
use pllbist_sim::CampaignPlan;
use pllbist_telemetry::{Record, TelemetryConfig};

use crate::gen;
use crate::metrics::Outcome;
use crate::stats::{mean, median, CHUNK};
use crate::trace::{self, Tracer};
use crate::{fingerprint, host, trace_path, RunSpec};

/// Sizes of one BIST workload run.
#[derive(Clone, Debug)]
pub struct Params {
    /// Devices in the family; every run sweeps each at least twice.
    pub devices: usize,
    /// Device sweeps an untraced run completes at least.
    pub min_sweeps: usize,
}

/// A set-up is timed after every this many sweeps, so that the set-up
/// samples span the whole run: one set-up takes a fraction of a
/// millisecond, far shorter than the host's speed swings.
const SETUP_EVERY: usize = 5;

type Family = Vec<(TransferFunctionMonitor, CampaignPlan, gen::Device)>;

/// The set-up: generates the device family and builds its monitors and
/// plans.
fn build_family(seed: u64, devices: usize) -> Family {
    gen::devices(seed, devices)
        .into_iter()
        .map(|d| {
            (
                TransferFunctionMonitor::new(d.settings.clone()),
                d.plan(),
                d,
            )
        })
        .collect()
}

fn timed_setup(seed: u64, devices: usize) -> (Family, f64) {
    let began = Instant::now();
    let family = build_family(seed, devices);
    (family, began.elapsed().as_secs_f64())
}

impl Params {
    pub fn full() -> Self {
        Self {
            devices: 100,
            min_sweeps: 2 * CHUNK,
        }
    }

    pub fn smoke() -> Self {
        Self {
            devices: 4,
            min_sweeps: CHUNK,
        }
    }
}

/// One device sweep.
struct Sweep {
    device: usize,
    secs: f64,
    /// Fingerprint of every measured value printed losslessly: equal
    /// fingerprints mean bitwise-equal results.
    fingerprint: u64,
    problem: Option<String>,
    fn_err_pct: f64,
    zeta_err_pct: f64,
    /// Summed `Collector` counters of a traced sweep.
    counters: BTreeMap<String, u64>,
    utilization: Option<f64>,
    sim_s: f64,
}

fn sweep(
    monitor: &TransferFunctionMonitor,
    plan: &CampaignPlan,
    device: &gen::Device,
    index: usize,
    tracer: Option<&Tracer>,
) -> Sweep {
    let root = tracer.map(|t| (t.open("bist.device", None), t.now_ns()));
    let began = Instant::now();
    let result: SupervisedMonitorResult = monitor.measure(plan);
    let secs = began.elapsed().as_secs_f64();
    let key = format!("device-{index}");
    if let (Some(t), Some((open, base_ns))) = (tracer, root) {
        let id = open.id();
        t.close(open, &key);
        t.fold_collector(&result.telemetry, id, &key, base_ns);
    }
    let mut counters = BTreeMap::new();
    let mut utilization = None;
    for record in &result.telemetry {
        match record {
            Record::Counter { name, value } => *counters.entry(name.clone()).or_default() += value,
            Record::Gauge { name, value } if name == "parallel.utilization" => {
                utilization = Some(*value)
            }
            _ => {}
        }
    }
    let sim_s = counters.get("sim.ref_edges").copied().unwrap_or(0) as f64 / device.config.f_ref_hz;
    let estimate = result.estimate();
    let mut problem = None;
    if let Err(e) = &result.nominal {
        problem = Some(format!("nominal reading failed: {e}"));
    } else if result.quarantined_count() > 0 {
        problem = Some(format!("{} tones quarantined", result.quarantined_count()));
    }
    let (mut fn_err_pct, mut zeta_err_pct) = (f64::NAN, f64::NAN);
    match &estimate {
        Ok(e) => match (e.natural_frequency_hz, e.damping) {
            (Some(f), Some(z)) => {
                fn_err_pct = (f / device.fn_hz - 1.0).abs() * 100.0;
                zeta_err_pct = (z / device.zeta - 1.0).abs() * 100.0;
            }
            _ => problem = problem.or(Some("no fn/ζ estimate".to_string())),
        },
        Err(e) => problem = problem.or(Some(format!("no estimate: {e}"))),
    }
    Sweep {
        device: index,
        secs,
        fingerprint: fingerprint(format!("{:?} {:?}", result.nominal, result.points).as_bytes()),
        problem,
        fn_err_pct,
        zeta_err_pct,
        counters,
        utilization,
        sim_s,
    }
}

/// Sweeps the family round-robin until `seconds` have passed and at
/// least `min_sweeps` sweeps (and two passes) are done, timing a set-up
/// of the same family into `setups` every [`SETUP_EVERY`] sweeps.
/// Returns the sweeps, the seconds they took (set-ups excluded) and the
/// phase's peak resident set in MiB.
fn phase(
    family: &Family,
    seed: u64,
    seconds: f64,
    min_sweeps: usize,
    tracer: Option<&Tracer>,
    setups: &mut Vec<f64>,
) -> (Vec<Sweep>, f64, f64) {
    let min_sweeps = min_sweeps.max(2 * family.len());
    host::reset_peak_rss();
    let began = Instant::now();
    let mut setup_secs = 0.0;
    let mut sweeps = Vec::new();
    while began.elapsed().as_secs_f64() - setup_secs < seconds || sweeps.len() < min_sweeps {
        let index = sweeps.len() % family.len();
        let (monitor, plan, device) = &family[index];
        let plan = match tracer {
            Some(_) => plan.clone().telemetry(TelemetryConfig::enabled()),
            None => plan.clone(),
        };
        sweeps.push(sweep(monitor, &plan, device, index, tracer));
        if sweeps.len() % SETUP_EVERY == 0 {
            let (_, secs) = timed_setup(seed, family.len());
            setups.push(secs);
            setup_secs += secs;
        }
    }
    let elapsed = began.elapsed().as_secs_f64() - setup_secs;
    (sweeps, elapsed, host::peak_rss_mb())
}

pub fn run(spec: &RunSpec, params: &Params, work: &Path) -> Outcome {
    let mut out = Outcome::default();

    let (family, secs) = timed_setup(spec.seed, params.devices);
    let mut setups = vec![secs];
    out.note(format!(
        "devices: {}, {} tones each, engine backend {}, {} sweep threads",
        family.len(),
        gen::DEVICE_TONES,
        family[0].1.backend(),
        gen::SWEEP_THREADS,
    ));

    let tracer = Tracer::new();
    let mut phases = vec![phase(
        &family,
        spec.seed,
        if spec.traced {
            spec.seconds / 2.0
        } else {
            spec.seconds
        },
        if spec.traced { 0 } else { params.min_sweeps },
        None,
        &mut setups,
    )];
    if spec.traced {
        let traced = phase(
            &family,
            spec.seed,
            spec.seconds / 2.0,
            0,
            Some(&tracer),
            &mut setups,
        );
        phases.push(traced);
    }
    out.set("setup_s", median(&setups));
    out.set(
        "peak_rss_mb",
        phases.iter().map(|p| p.2).fold(0.0, f64::max),
    );
    out.note(format!(
        "setup: median of {} family generations spread over the run",
        setups.len()
    ));

    // Checks: every tone ok, an estimate for every device, and every
    // sweep of a device bitwise identical to its first.
    if spec.break_check {
        if let Some(last) = phases[0].0.last_mut() {
            last.fingerprint ^= 1;
        }
    }
    let mut first: BTreeMap<usize, u64> = BTreeMap::new();
    let mut sweeps_checked = 0;
    for (sweeps, ..) in &phases {
        out.attempted += sweeps.len() as u64;
        for s in sweeps {
            sweeps_checked += 1;
            let reference = *first.entry(s.device).or_insert(s.fingerprint);
            if let Some(p) = &s.problem {
                out.fail(format!("device {}: {p}", s.device));
            } else if reference != s.fingerprint {
                out.fail(format!(
                    "device {}: results differ between sweeps",
                    s.device
                ));
            }
        }
    }
    out.note(format!(
        "checked: {sweeps_checked} sweeps for healthy tones, an estimate each, and bitwise repeats"
    ));

    let (sweeps, elapsed, _) = &phases[0];
    let per_device: Vec<&Sweep> = sweeps.iter().take(family.len()).collect();
    let fn_err = median(&per_device.iter().map(|s| s.fn_err_pct).collect::<Vec<_>>());
    let zeta_err = median(
        &per_device
            .iter()
            .map(|s| s.zeta_err_pct)
            .collect::<Vec<_>>(),
    );
    out.note(format!(
        "estimate error (median over devices): fn {fn_err:.3} %, zeta {zeta_err:.3} %"
    ));
    let times: Vec<f64> = sweeps.iter().map(|s| s.secs * 1e3).collect();
    if !spec.traced {
        out.set("jobs_per_s", sweeps.len() as f64 / elapsed);
        out.set_job_times(&times, "device sweep time");
        return out;
    }

    out.set("estimate.fn_err_pct", fn_err);
    out.set("estimate.zeta_err_pct", zeta_err);
    let (traced, ..) = &phases[1];
    let common = sweeps.len().min(traced.len());
    let sum = |v: &[Sweep]| v[..common].iter().map(|s| s.secs).sum::<f64>();
    out.set(
        "trace.overhead_pct",
        (sum(traced) / sum(sweeps) - 1.0) * 100.0,
    );

    let spans = tracer.spans();
    let self_secs = trace::self_secs_by_name(&spans);
    let all_self: f64 = self_secs.values().sum();
    for (metric, span) in [
        ("monitor.nominal_share", "monitor.nominal"),
        ("monitor.settle_share", "monitor.settle"),
        ("monitor.capture_share", "monitor.capture"),
        ("monitor.count_share", "monitor.count"),
    ] {
        out.set(
            metric,
            self_secs.get(span).copied().unwrap_or(0.0) / all_self,
        );
    }
    out.set(
        "scenario.settle_ms_p50",
        median(&trace::durations(&spans, "scenario.checkpoint")) * 1e3,
    );
    let counter = |name: &str| {
        traced
            .iter()
            .map(|s| s.counters.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let tones = counter("monitor.counter_gates");
    let steps = counter("sim.steps");
    out.set("engine.steps_per_tone", steps / tones);
    out.set("engine.fb_edges_per_tone", counter("sim.fb_edges") / tones);
    out.set(
        "engine.step_rejections_per_tone",
        counter("sim.step_rejections") / tones,
    );
    let tone_s: f64 = trace::durations(&spans, "monitor.tone").iter().sum();
    out.set("engine.ns_per_step", tone_s * 1e9 / steps.max(1.0));
    out.set(
        "engine.sim_s_per_host_s",
        traced.iter().map(|s| s.sim_s).sum::<f64>() / tone_s,
    );
    out.set(
        "monitor.mfreq_strobes_per_tone",
        counter("monitor.mfreq_strobes") / tones,
    );
    out.set(
        "monitor.counter_gates_per_tone",
        tones / traced.len() as f64 / gen::DEVICE_TONES as f64,
    );
    out.set(
        "parallel.utilization",
        mean(
            &traced
                .iter()
                .filter_map(|s| s.utilization)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("supervisor.retries", counter("supervisor.retries"));
    out.set("supervisor.quarantined", counter("supervisor.quarantined"));

    let path = trace_path(work, spec);
    let details: Vec<String> = traced
        .iter()
        .map(|s| {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(name, value)| format!("\"{name}\":{value}"))
                .collect();
            format!(
                "{{\"key\":\"device-{}\",\"counters\":{{{}}}}}",
                s.device,
                counters.join(",")
            )
        })
        .collect();
    match trace::write_jsonl(&spans, &details, &path) {
        Ok(()) => out.note(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail(format!("trace write: {e}")),
    }
    out
}
