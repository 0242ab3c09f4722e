//! Seeded input generator: device families, monitor test plans and
//! service job bodies.
//!
//! Everything the program under test receives is derived here from the
//! workload seed with the benchmark's own PRNG, so a change to the
//! repository's random-number helpers can never change the inputs.

use pllbist::monitor::{CaptureMode, MonitorSettings, StimulusKind};
use pllbist_sim::config::{DriveConfig, FilterConfig, PllConfig};
use pllbist_sim::service::{submission_body, CrashFault, FaultPlan};
use pllbist_sim::{CampaignPlan, EventDrivenCpPll, Scheduler, SupervisorPolicy};

/// Sweep threads every workload's plans use (the benchmark host has 2
/// cores).
pub const SWEEP_THREADS: usize = 2;
/// Grid points per served job: enough engine work that a job's eight
/// fsyncs stay a small share of its latency on the reference host, whose
/// fsync latency drifts several-fold from minute to minute.
pub const JOB_POINTS: usize = 256;
/// Tones per device in the BIST monitor sweeps.
pub const DEVICE_TONES: usize = 11;

/// SplitMix64: tiny, seedable, and fully specified here.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        // Mix the stream name in so workloads drawing from one seed get
        // independent sequences.
        let mut state = seed ^ 0x5EED_BE9C_4A11_0C0D;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        Self(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform factor in `[1/spread, spread]`.
    pub fn factor(&mut self, spread: f64) -> f64 {
        spread.powf(2.0 * self.unit() - 1.0)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One generated device: its configuration, the monitor test plan
/// scaled to it, and the dominant loop parameters the estimate is
/// judged against.
#[derive(Clone, Debug)]
pub struct Device {
    pub config: PllConfig,
    pub settings: MonitorSettings,
    pub fn_hz: f64,
    pub zeta: f64,
}

impl Device {
    /// The plan the workload measures this device with: the plan's
    /// default engine, supervised, work-stealing over the sweep threads.
    pub fn plan(&self) -> CampaignPlan {
        CampaignPlan::new(self.config.clone())
            .supervised(SupervisorPolicy::default())
            .scheduler(Scheduler::WorkStealing {
                threads: SWEEP_THREADS,
            })
    }
}

fn passive_lag(rng: &mut Rng) -> PllConfig {
    let mut config = PllConfig::paper_table3();
    config.filter = FilterConfig::PassiveLag {
        r1: 1.5730e6 * rng.factor(1.15),
        r2: 35.288e3 * rng.factor(1.2),
        c: 470e-9 * rng.factor(1.15),
        r_leak: None,
    };
    config.vco_k0 = 24_000.0 * rng.factor(1.1);
    config
}

fn series_rc(rng: &mut Rng) -> PllConfig {
    let mut config = PllConfig::integer_n_charge_pump();
    let c1 = 33e-9 * rng.factor(1.15);
    config.drive = DriveConfig::Charge {
        i_pump: 100e-6 * rng.factor(1.15),
        mismatch: 1.0,
    };
    config.filter = FilterConfig::SeriesRc {
        r: 22e3 * rng.factor(1.1),
        c1,
        c2: None,
        r_leak: None,
    };
    config
}

/// The monitor test plan for a loop with natural frequency `fn_hz`:
/// the Table 2 sequence over a log grid from `fn/8` to `5·fn`, with the
/// FM deviation and the counters scaled to the reference.
fn settings_for(config: &PllConfig, fn_hz: f64) -> MonitorSettings {
    let lo = fn_hz / 8.0;
    // From fn/8 to 5·fn.
    let ratio = 40f64.ln();
    let grid = (0..DEVICE_TONES)
        .map(|i| lo * (ratio * i as f64 / (DEVICE_TONES - 1) as f64).exp())
        .collect();
    MonitorSettings {
        stimulus: StimulusKind::MultiTone { steps: 10 },
        capture: CaptureMode::HoldAndCount,
        deviation_hz: 0.01 * config.f_ref_hz,
        mod_frequencies_hz: grid,
        settle_periods: 3.0,
        loop_settle_secs: 0.0,
        test_clock_hz: 20e6,
        gate_cycles: 100,
        count_divided_output: false,
        peak_guard_fraction: 0.05,
        capture_transcript: false,
    }
}

/// `count` devices drawn from `seed`: three in five Table 3-style
/// passive-lag loops, the rest charge-pump series-RC loops without a
/// ripple capacitor. Devices whose damping leaves no resonance peak to
/// fit are redrawn, so every generated device has an estimate to check.
pub fn devices(seed: u64, count: usize) -> Vec<Device> {
    let mut rng = Rng::new(seed, "devices");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let config = if out.len() % 5 < 3 {
            passive_lag(&mut rng)
        } else {
            series_rc(&mut rng)
        };
        let params = config.analysis().dominant_params();
        if !(0.3..=0.6).contains(&params.damping) {
            continue;
        }
        let fn_hz = params.natural_frequency_hz();
        out.push(Device {
            settings: settings_for(&config, fn_hz),
            config,
            fn_hz,
            zeta: params.damping,
        });
    }
    out
}

/// One generated service submission: an `event_driven` sweep of
/// [`JOB_POINTS`] tones on a Table 3-style loop. Every job sweeps the
/// same grid, set from the nominal Table 3 loop as a tester sets one grid
/// for a device family: the engine's work follows the simulated time, so
/// jobs cost about the same and the latency tail shows the service's
/// stalls rather than the spread of job sizes.
#[derive(Clone, Debug)]
pub struct Job {
    /// Plan digest: the job id the service files it under.
    pub digest: String,
    /// `POST /jobs` body, carrying the job's crash schedule.
    pub body: String,
    /// The same submission without its crash schedule: what an
    /// uninterrupted run executes.
    pub reference_body: String,
    pub config: PllConfig,
    pub grid: Vec<f64>,
}

/// Points either side of mid-sweep a job's kill may fall.
const KILL_JITTER: usize = 8;

/// The crash schedule every job carries: a kill mid-sweep, then a torn
/// results write, then a clean attempt. A torn write is latched and only
/// surfaces when the attempt finishes, so the resumed attempt sweeps the
/// rest of the grid twice; the kill stays near mid-sweep so every job
/// redoes about the same work, as the torn-write and kill faults would
/// otherwise make job cost range over two-fold.
fn crash_schedule(rng: &mut Rng) -> FaultPlan {
    let mut faults = FaultPlan::none();
    faults.crash = vec![
        CrashFault::Kill {
            after_points: rng.range(JOB_POINTS / 2 - KILL_JITTER, JOB_POINTS / 2 + KILL_JITTER),
        },
        CrashFault::TornResultWrite {
            at_flush: rng.range(0, 3),
            keep_bytes: rng.range(1, 40),
        },
    ];
    faults
}

/// Job `index` of the stream drawn from `seed`. Jobs are distinct: the
/// index is part of the workload salt, and the loop components vary too.
pub fn job(seed: u64, index: usize) -> Job {
    let mut rng = Rng::new(
        seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        "job",
    );
    let config = passive_lag(&mut rng);
    let fn_hz = PllConfig::paper_table3()
        .analysis()
        .dominant_params()
        .natural_frequency_hz();
    let lo = fn_hz / 8.0;
    // From fn/8 to 5·fn.
    let ratio = 40f64.ln();
    let grid: Vec<f64> = (0..JOB_POINTS)
        .map(|i| lo * (ratio * i as f64 / (JOB_POINTS - 1) as f64).exp())
        .collect();
    let salt = format!("pllbench-{seed}-{index}");
    let faults = crash_schedule(&mut rng);
    let plan = CampaignPlan::new(config.clone())
        .engine::<EventDrivenCpPll>()
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::Serial);
    Job {
        digest: plan.digest(&grid, &salt),
        body: submission_body(&plan, &grid, &salt, &faults),
        reference_body: submission_body(&plan, &grid, &salt, &faults.reference()),
        config,
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_bodies_and_digests() {
        for index in [0, 1, 977] {
            let a = job(11, index);
            let b = job(11, index);
            assert_eq!(a.body, b.body);
            assert_eq!(a.reference_body, b.reference_body);
            assert_eq!(a.digest, b.digest);
            assert_ne!(a.digest, job(12, index).digest);
        }
        let digests: std::collections::BTreeSet<String> =
            (0..200).map(|i| job(3, i).digest).collect();
        assert_eq!(digests.len(), 200, "job digests must be distinct");
    }

    #[test]
    fn same_seed_gives_same_devices() {
        let a = devices(5, 10);
        let b = devices(5, 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.settings, y.settings);
        }
        assert_ne!(a[0].config, devices(6, 1)[0].config);
    }
}
