//! `serve-recover`: closed-loop clients driving an in-process
//! `CampaignService` over HTTP, through crashes.
//!
//! Each of two clients POSTs a job, polls `GET /jobs/<id>` every
//! [`POLL_INTERVAL`] until the journal reads `done`, then fetches
//! `/results` and submits its next job. Job latency runs from the POST
//! being sent to the first poll that sees `done`. Every job is killed
//! mid-sweep and then torn mid-write before a clean attempt finishes it,
//! and the service starts over a root seeded with interrupted jobs.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pllbist_sim::campaign::decode_point_line;
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::{
    http_get, http_post, run_plan, CampaignLog, CampaignPlan, CampaignService, EventDrivenCpPll,
    IncidentAction, JobSpec, LockSidecar, PllEngine, Scenario, ServiceConfig, SidecarOutcome,
    VoltsCodec,
};
use pllbist_telemetry::json::{json_str_field, json_u64_field};
use pllbist_telemetry::{Collector, Record, Value, SCHEMA_VERSION};

use crate::gen::{self, Job};
use crate::metrics::Outcome;
use crate::stats::{mean, median, CHUNK};
use crate::trace::{self, Tracer};
use crate::{fingerprint, host, trace_path, RunSpec};

/// Fixed client poll interval.
pub const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// A job not done after this long counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(30);

/// Sizes of one served workload run.
#[derive(Clone, Debug)]
pub struct Params {
    /// Interrupted job directories the service finds when it starts.
    pub preseed: usize,
    /// Service restarts per measured phase. Every restart is over the
    /// interrupted jobs again and is timed as one `setup_s` sample, so
    /// the samples span the run rather than bunching at its start.
    pub segments: usize,
    /// Jobs probed layer by layer in the traced run.
    pub probe_jobs: usize,
}

impl Params {
    pub fn full() -> Self {
        Self {
            preseed: 8,
            segments: 10,
            probe_jobs: 20,
        }
    }

    pub fn smoke() -> Self {
        Self {
            preseed: 2,
            segments: 2,
            probe_jobs: 3,
        }
    }
}

/// One job a client carried through. Its results file is checked as it
/// arrives and only its fingerprint kept, so the benchmark's memory does
/// not grow with the job count.
struct Served {
    index: usize,
    digest: String,
    latency_s: f64,
    polls: usize,
    verdict: Result<(), String>,
    results: u64,
}

/// What the clients of one phase, or of one segment of it, did.
#[derive(Default)]
struct Phase {
    served: Vec<Served>,
    failures: Vec<String>,
    attempted: usize,
    elapsed_s: f64,
}

/// Maps an I/O error to a message naming what failed.
fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn fresh_dir(path: &Path) -> std::io::Result<PathBuf> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Starts a service on `root`, returning it with the start's wall time.
fn start(root: &Path, queue_capacity: usize) -> std::io::Result<(CampaignService, f64)> {
    let mut config = ServiceConfig::rooted(root);
    config.queue_capacity = queue_capacity;
    let began = Instant::now();
    let service = CampaignService::start(config)?;
    Ok((service, began.elapsed().as_secs_f64()))
}

/// Carries one job from POST to fetched results.
fn serve_one(
    addr: SocketAddr,
    index: usize,
    job: &Job,
    tracer: Option<&Tracer>,
    corrupt: bool,
) -> Result<Served, String> {
    let root = tracer.map(|t| t.open("client.job", None));
    let parent = root.as_ref().map(|o| o.id());
    let traced = |name: &'static str, call: &mut dyn FnMut() -> Result<String, String>| {
        let open = tracer.map(|t| t.open(name, parent));
        let out = call();
        if let (Some(t), Some(open)) = (tracer, open) {
            t.close(open, &job.digest);
        }
        out
    };
    let began = Instant::now();
    traced("server.post", &mut || {
        http_post(addr, "/jobs", &job.body).map_err(|e| format!("POST: {e}"))
    })?;
    let mut polls = 0;
    let latency_s = loop {
        std::thread::sleep(POLL_INTERVAL);
        polls += 1;
        let body = traced("server.poll", &mut || {
            http_get(addr, &format!("/jobs/{}", job.digest)).map_err(|e| format!("poll: {e}"))
        })?;
        match json_str_field(&body, "state").as_deref() {
            Some("done") => break began.elapsed().as_secs_f64(),
            Some("failed") => return Err(format!("job failed: {body}")),
            _ if began.elapsed() > JOB_DEADLINE => return Err("job timed out".to_string()),
            _ => {}
        }
    };
    let mut results = traced("server.results", &mut || {
        http_get(addr, &format!("/jobs/{}/results", job.digest))
            .map_err(|e| format!("results: {e}"))
    })?;
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root, &job.digest);
    }
    if corrupt {
        results.push_str("{\"type\":\"result\"}\n");
    }
    Ok(Served {
        index,
        digest: job.digest.clone(),
        latency_s,
        polls,
        verdict: check_results(&results, job),
        results: fingerprint(results.as_bytes()),
    })
}

/// Polls like a client until the service has recovered every seeded job;
/// returns how long that took.
fn await_recovery(addr: SocketAddr, seeded: &[Job]) -> Result<f64, String> {
    let began = Instant::now();
    for job in seeded {
        loop {
            let body = http_get(addr, &format!("/jobs/{}", job.digest))
                .map_err(|e| format!("recovery poll: {e}"))?;
            match json_str_field(&body, "state").as_deref() {
                Some("done") => break,
                Some("failed") => return Err(format!("seeded job {} failed: {body}", job.digest)),
                _ if began.elapsed() > JOB_DEADLINE => {
                    return Err(format!("seeded job {} not recovered", job.digest))
                }
                _ => std::thread::sleep(POLL_INTERVAL),
            }
        }
    }
    Ok(began.elapsed().as_secs_f64())
}

/// Runs the clients against `addr`, submitting jobs from `first_index`
/// on, until `seconds` have passed and at least `min_jobs` jobs are done.
fn drive(
    addr: SocketAddr,
    spec: &RunSpec,
    first_index: usize,
    seconds: f64,
    min_jobs: usize,
    tracer: Option<&Tracer>,
) -> Phase {
    let next = AtomicUsize::new(first_index);
    let done = AtomicUsize::new(0);
    let served = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let began = Instant::now();
    let last_done = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                if began.elapsed().as_secs_f64() >= seconds
                    && done.load(Ordering::SeqCst) >= min_jobs
                {
                    break;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                let job = gen::job(spec.seed, index);
                let corrupt = spec.break_check && index == 0;
                let outcome = serve_one(addr, index, &job, tracer, corrupt);
                done.fetch_add(1, Ordering::SeqCst);
                last_done.fetch_max(began.elapsed().as_nanos() as u64, Ordering::SeqCst);
                match outcome {
                    Ok(s) => served.lock().expect("client lock").push(s),
                    Err(e) => failures
                        .lock()
                        .expect("client lock")
                        .push(format!("job {index} ({}): {e}", job.digest)),
                }
            });
        }
    });
    let mut served = served.into_inner().expect("client lock");
    served.sort_by_key(|s| s.index);
    Phase {
        served,
        failures: failures.into_inner().expect("client lock"),
        attempted: next.into_inner() - first_index,
        elapsed_s: last_done.into_inner() as f64 * 1e-9,
    }
}

/// Results files of an uninterrupted run of each job, by digest, passed
/// through `keep` as they are read: every job resubmitted without its
/// crash schedule to reference services on fresh roots (two at once,
/// each running its jobs serially).
fn reference_results<T: Send>(
    work: &Path,
    jobs: &[&Job],
    keep: impl Fn(String) -> T + Sync,
) -> Result<BTreeMap<String, T>, String> {
    let halves: Vec<Vec<&Job>> = (0..2)
        .map(|h| jobs.iter().skip(h).step_by(2).copied().collect())
        .collect();
    let keep = &keep;
    let parts: Vec<Result<BTreeMap<String, T>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .enumerate()
            .map(|(h, half)| {
                scope.spawn(move || -> Result<BTreeMap<String, T>, String> {
                    let root = fresh_dir(&work.join(format!("reference-{h}")))
                        .map_err(|e| format!("reference root: {e}"))?;
                    let (service, _) = start(&root, half.len() + 1)
                        .map_err(|e| format!("reference start: {e}"))?;
                    for job in half {
                        http_post(service.addr(), "/jobs", &job.reference_body)
                            .map_err(|e| format!("reference POST: {e}"))?;
                    }
                    service.shutdown();
                    let mut out = BTreeMap::new();
                    for job in half {
                        let text = std::fs::read_to_string(
                            root.join(format!("job-{}", job.digest))
                                .join("campaign.jsonl"),
                        )
                        .map_err(|e| format!("reference results {}: {e}", job.digest))?;
                        out.insert(job.digest.clone(), keep(text));
                    }
                    let _ = std::fs::remove_dir_all(&root);
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut all = BTreeMap::new();
    for part in parts {
        all.extend(part?);
    }
    Ok(all)
}

fn event_line(state: &str, detail: &str) -> String {
    Record::Result {
        name: "job.event".to_string(),
        fields: vec![
            ("state".to_string(), Value::Str(state.to_string())),
            ("attempt".to_string(), Value::U64(0)),
            ("detail".to_string(), Value::Str(detail.to_string())),
        ],
    }
    .to_json()
}

fn run_header() -> String {
    Record::Run {
        bin: "serve".to_string(),
        schema: SCHEMA_VERSION,
    }
    .to_json()
}

/// Writes into `template` the job directories a killed service leaves
/// behind: the durable submission, a journal whose last append was torn,
/// and a results file cut off partway through a record.
fn preseed(
    template: &Path,
    jobs: &[Job],
    references: &BTreeMap<String, String>,
    seed: u64,
) -> std::io::Result<()> {
    let run_header = run_header();
    let mut rng = gen::Rng::new(seed, "preseed");
    for job in jobs {
        let dir = template.join(format!("job-{}", job.digest));
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join("submit.jsonl"),
            format!("{run_header}\n{}", job.reference_body),
        )?;
        std::fs::write(
            dir.join("job.jsonl"),
            format!(
                "{run_header}\n{}\n{}\n{{\"type\":\"result\",\"na",
                event_line("queued", "before the kill"),
                event_line("running", "before the kill")
            ),
        )?;
        let lines: Vec<&str> = references[&job.digest].lines().collect();
        let keep = rng.range(1, gen::JOB_POINTS - 2);
        let mut torn = lines[..2 + keep].join("\n");
        torn.push('\n');
        let cut = &lines[2 + keep];
        torn.push_str(&cut[..cut.len() / 2]);
        std::fs::write(dir.join("campaign.jsonl"), torn)?;
    }
    Ok(())
}

/// Checks one results file: header digest, point count, and exactly one
/// decodable healthy record per grid point, in order.
fn check_results(text: &str, job: &Job) -> Result<(), String> {
    let mut lines = text.lines();
    lines.next().ok_or("empty results file")?;
    let header = lines
        .next()
        .ok_or("results file lacks its campaign header")?;
    if json_str_field(header, "digest").as_deref() != Some(job.digest.as_str()) {
        return Err(format!("header digest mismatch: {header}"));
    }
    if json_u64_field(header, "points") != Some(job.grid.len() as u64) {
        return Err(format!("header point count mismatch: {header}"));
    }
    let mut count = 0;
    for (expected, line) in lines.enumerate() {
        match decode_point_line(&VoltsCodec, line) {
            Some((index, Ok(_))) if index == expected => count += 1,
            Some((index, Ok(_))) => return Err(format!("record {index} out of order")),
            Some((index, Err(e))) => return Err(format!("point {index} quarantined: {e}")),
            None => return Err(format!("undecodable record: {line}")),
        }
    }
    if count != job.grid.len() {
        return Err(format!("{count} records for {} points", job.grid.len()));
    }
    Ok(())
}

/// What a job's directory says once the job is done.
#[derive(Debug, Default)]
struct JobDir {
    appends: usize,
    attempts: usize,
    bytes: u64,
    skipped: u64,
    quarantined: u64,
    sidecar_hits: u64,
    sidecar_rejects: u64,
    wall_ms: u64,
    /// The `done` line's detail, verbatim.
    detail: String,
}

fn detail_field(detail: &str, key: &str) -> Option<u64> {
    detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

fn read_job_dir(dir: &Path) -> Result<JobDir, String> {
    let journal =
        std::fs::read_to_string(dir.join("job.jsonl")).map_err(|e| format!("journal: {e}"))?;
    let events: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"job.event\"") && json_str_field(l, "state").is_some())
        .collect();
    let done = events
        .iter()
        .rfind(|l| json_str_field(l, "state").as_deref() == Some("done"))
        .ok_or("journal has no done line")?;
    let detail = json_str_field(done, "detail").unwrap_or_default();
    let field = |key| detail_field(&detail, key).ok_or(format!("done line lacks {key}"));
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("job dir: {e}"))? {
        bytes += entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("job dir: {e}"))?
            .len();
    }
    Ok(JobDir {
        appends: events.len(),
        attempts: events
            .iter()
            .filter(|l| json_str_field(l, "state").as_deref() == Some("running"))
            .count(),
        bytes,
        skipped: field("skipped")?,
        quarantined: field("quarantined")?,
        sidecar_hits: field("sidecar_hits")?,
        sidecar_rejects: field("sidecar_rejects")?,
        wall_ms: field("wall_ms")?,
        detail,
    })
}

/// Layer probes on one job, timed from outside through public calls.
#[derive(Debug, Default)]
struct Probe {
    parse_s: f64,
    direct_s: f64,
    settle_s: f64,
    store_s: f64,
    load_s: f64,
    load_hit: bool,
    record_s: Vec<f64>,
    open_torn_s: f64,
    tones: u64,
    steps: u64,
    fb_edges: u64,
    rejections: u64,
    sim_s: f64,
    capture_s: f64,
    retries: u64,
    utilization: Option<f64>,
}

/// Probes `job`'s layers. `reference` is the fingerprint of the job's
/// uninterrupted results file: the direct run must write the same bytes,
/// or it no longer does the work the service does.
fn probe(job: &Job, reference: Option<&u64>, work: &Path) -> Result<Probe, String> {
    type E = EventDrivenCpPll;
    let mut p = Probe::default();
    let began = Instant::now();
    let spec = JobSpec::parse(&job.body)?;
    p.parse_s = began.elapsed().as_secs_f64();
    let plan = CampaignPlan::<E>::from_header(&spec.header, spec.config, &spec.grid, &spec.salt)
        .map_err(|e| format!("header: {e}"))?
        .scheduler(pllbist_sim::Scheduler::WorkStealing {
            threads: spec.threads,
        })
        .telemetry(pllbist_telemetry::TelemetryConfig::enabled());

    // The job's sweep run directly, without the service: the service
    // overhead's denominator and the engine's work per tone.
    let f_ref = job.config.f_ref_hz;
    let counters: [AtomicU64; 4] = Default::default();
    let capture_ns = AtomicU64::new(0);
    let began = Instant::now();
    let outcome = run_plan(&plan, &spec.grid, VoltsCodec, &spec.salt, |pll, fm, _| {
        let before = pll.work_stats();
        let t = Instant::now();
        Scenario::stimulate(
            pll,
            FmStimulus::pure_sine(f_ref, 0.02 * f_ref, fm),
            2.0 / fm,
        );
        capture_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let d = pll.work_stats().since(&before);
        for (c, v) in counters
            .iter()
            .zip([d.steps, d.fb_edges, d.step_rejections, d.ref_edges])
        {
            c.fetch_add(v, Ordering::Relaxed);
        }
        Ok(pll.control_voltage())
    })
    .map_err(|e| format!("direct run: {e}"))?;
    p.direct_s = began.elapsed().as_secs_f64();
    let [steps, fb_edges, rejections, ref_edges] = counters.map(AtomicU64::into_inner);
    p.tones = outcome.points.len() as u64;
    (p.steps, p.fb_edges, p.rejections) = (steps, fb_edges, rejections);
    p.sim_s = ref_edges as f64 / f_ref;
    p.capture_s = capture_ns.into_inner() as f64 * 1e-9;
    p.retries = outcome
        .incidents
        .iter()
        .filter(|i| i.action == IncidentAction::Retried)
        .count() as u64;
    p.utilization = outcome.telemetry.iter().find_map(|r| match r {
        Record::Gauge { name, value } if name == "parallel.utilization" => Some(*value),
        _ => None,
    });

    // Lock settle, and the sidecar that stands in for it on a restart.
    let scenario = plan.scenario();
    let began = Instant::now();
    let snapshot = scenario.lock_checkpoint::<E>(&Collector::disabled());
    p.settle_s = began.elapsed().as_secs_f64();
    let sidecar = LockSidecar::at(work.join("probe.ckpt"), job.digest.clone());
    let began = Instant::now();
    sidecar
        .store::<E>(&snapshot)
        .map_err(|e| format!("sidecar store: {e}"))?;
    p.store_s = began.elapsed().as_secs_f64();
    let began = Instant::now();
    p.load_hit = matches!(sidecar.load::<E>(), SidecarOutcome::Hit(_));
    p.load_s = began.elapsed().as_secs_f64();
    sidecar.remove();

    // The results file: streaming records, and reopening a torn one.
    let path = work.join("probe.jsonl");
    let _ = std::fs::remove_file(&path);
    let log = CampaignLog::open(&path, VoltsCodec, job.digest.clone(), spec.grid.len())
        .map_err(|e| format!("results open: {e}"))?;
    for (i, point) in outcome.points.iter().enumerate() {
        let began = Instant::now();
        log.record(i, point);
        p.record_s.push(began.elapsed().as_secs_f64());
    }
    log.finish(true)
        .map_err(|e| format!("results finish: {e}"))?;
    drop(log);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("results read: {e}"))?;
    if reference != Some(&fingerprint(text.as_bytes())) {
        return Err("the direct run's results differ from the service's".to_string());
    }
    let lines: Vec<&str> = text.lines().collect();
    let half = 2 + spec.grid.len() / 2;
    let mut torn = lines[..half].join("\n");
    torn.push('\n');
    torn.push_str(&lines[half][..lines[half].len() / 2]);
    std::fs::write(&path, torn).map_err(|e| format!("torn write: {e}"))?;
    let began = Instant::now();
    let reopened = CampaignLog::open(&path, VoltsCodec, job.digest.clone(), spec.grid.len())
        .map_err(|e| format!("torn reopen: {e}"))?;
    p.open_torn_s = began.elapsed().as_secs_f64();
    if reopened.completed_count() != half - 2 {
        return Err(format!(
            "torn reopen kept {} of {} records",
            reopened.completed_count(),
            half - 2
        ));
    }
    drop(reopened);
    let _ = std::fs::remove_file(&path);
    Ok(p)
}

pub fn run(spec: &RunSpec, params: &Params, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(spec, params, work, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(
    spec: &RunSpec,
    params: &Params,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    out.note(format!(
        "jobs: {} points on event_driven, each killed mid-sweep then torn mid-write; \
         {CLIENTS} clients polling every {} ms",
        gen::JOB_POINTS,
        POLL_INTERVAL.as_millis(),
    ));

    // Interrupted job directories for the recovering service to find,
    // built from reference runs (untimed: not part of set-up). One root
    // serves the whole run: the interrupted directories are restored
    // before every start, and the served jobs' directories are removed
    // once checked, so every start finds the same root.
    let template = fresh_dir(&work.join("template")).map_err(io("template"))?;
    let seeded: Vec<Job> = (0..params.preseed)
        .map(|k| gen::job(spec.seed, usize::MAX - k))
        .collect();
    let seeded_texts = reference_results(work, &seeded.iter().collect::<Vec<_>>(), |t| t)?;
    preseed(&template, &seeded, &seeded_texts, spec.seed).map_err(io("preseed"))?;
    let mut references: BTreeMap<String, u64> = seeded_texts
        .into_iter()
        .map(|(digest, text)| (digest, fingerprint(text.as_bytes())))
        .collect();
    let root = fresh_dir(&work.join("root")).map_err(io("root"))?;
    let job_dir = |digest: &str| root.join(format!("job-{digest}"));
    let restart = || -> Result<(CampaignService, f64), String> {
        for job in &seeded {
            let _ = std::fs::remove_dir_all(job_dir(&job.digest));
        }
        copy_tree(&template, &root).map_err(io("restore interrupted jobs"))?;
        start(&root, 16).map_err(io("service start"))
    };

    // The measured phases. An untraced run measures once; a traced run
    // measures an untraced and a traced half on identical jobs. Each
    // phase is served in segments, each by a service started afresh over
    // the interrupted jobs (the start is the set-up sample) and checked
    // as it ends. The clients start once the interrupted jobs are
    // recovered, so job latency is the steady serving loop's; the job
    // rate's clock includes the recovery. The peak resident set is taken
    // over the segments alone, without the reference runs that check them.
    let tracer = Tracer::new();
    let phases: Vec<bool> = if spec.traced {
        vec![false, true]
    } else {
        vec![false]
    };
    let seconds = spec.seconds / (phases.len() * params.segments) as f64;
    // An untraced run holds at least one chunk of jobs for its tail,
    // whatever the clock says.
    let min_jobs = if spec.traced {
        1
    } else {
        CHUNK.div_ceil(params.segments)
    };
    let mut starts = Vec::new();
    let mut empty_starts = Vec::new();
    let mut peak_rss_mb: f64 = 0.0;
    let mut measured = Vec::new();
    let mut dirs: Vec<BTreeMap<usize, JobDir>> = Vec::new();
    for &traced in &phases {
        let mut phase = Phase::default();
        let mut phase_dirs = BTreeMap::new();
        for _ in 0..params.segments {
            if spec.traced {
                let empty = fresh_dir(&work.join("root-empty")).map_err(io("root"))?;
                let (service, secs) = start(&empty, 16).map_err(io("service start"))?;
                empty_starts.push(secs);
                service.shutdown();
                let _ = std::fs::remove_dir_all(empty);
            }
            host::reset_peak_rss();
            let (service, secs) = restart()?;
            starts.push(secs);
            let recovery_s = await_recovery(service.addr(), &seeded)?;
            let mut segment = drive(
                service.addr(),
                spec,
                phase.attempted,
                (seconds - recovery_s).max(0.0),
                min_jobs,
                traced.then_some(&tracer),
            );
            service.shutdown();
            peak_rss_mb = peak_rss_mb.max(host::peak_rss_mb());

            let unseen: Vec<Job> = segment
                .served
                .iter()
                .filter(|s| !references.contains_key(&s.digest))
                .map(|s| gen::job(spec.seed, s.index))
                .collect();
            let unseen: Vec<&Job> = unseen.iter().collect();
            references.extend(reference_results(work, &unseen, |t| {
                fingerprint(t.as_bytes())
            })?);
            out.attempted += (segment.attempted + seeded.len()) as u64;
            for failure in segment.failures.drain(..) {
                out.fail(failure);
            }
            for s in &segment.served {
                let mut verdict = s.verdict.clone();
                if verdict.is_ok() && references.get(&s.digest) != Some(&s.results) {
                    verdict = Err("recovered results differ from the uninterrupted run".into());
                }
                match verdict.and_then(|()| read_job_dir(&job_dir(&s.digest))) {
                    Ok(dir) => {
                        phase_dirs.insert(s.index, dir);
                    }
                    Err(e) => out.fail(format!("job {} ({}): {e}", s.index, s.digest)),
                }
            }
            for job in &seeded {
                let recovered =
                    std::fs::read(job_dir(&job.digest).join("campaign.jsonl")).unwrap_or_default();
                if references.get(&job.digest) != Some(&fingerprint(&recovered)) {
                    out.fail(format!(
                        "seeded job {}: recovered results differ",
                        job.digest
                    ));
                }
            }
            for index in phase.attempted..phase.attempted + segment.attempted {
                let _ = std::fs::remove_dir_all(job_dir(&gen::job(spec.seed, index).digest));
            }
            phase.served.append(&mut segment.served);
            phase.attempted += segment.attempted;
            phase.elapsed_s += recovery_s + segment.elapsed_s;
        }
        measured.push(phase);
        dirs.push(phase_dirs);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&template);
    out.set("setup_s", median(&starts));
    out.set("peak_rss_mb", peak_rss_mb);
    if !empty_starts.is_empty() {
        out.set(
            "service.rescan_ms",
            (median(&starts) - median(&empty_starts)) * 1e3,
        );
    }
    out.note(format!(
        "setup: median of {} service starts over {} interrupted jobs, {} per phase",
        starts.len(),
        seeded.len(),
        params.segments
    ));
    out.note(format!(
        "checked: {} served jobs for header digest, point count and decodable records; \
         they and {} recovered seeded jobs against uninterrupted runs, by FNV-1a 64 of the bytes",
        measured.iter().map(|p| p.served.len()).sum::<usize>(),
        seeded.len() * starts.len()
    ));

    let first = &measured[0];
    if !spec.traced {
        let latencies: Vec<f64> = first.served.iter().map(|s| s.latency_s * 1e3).collect();
        out.set("jobs_per_s", first.served.len() as f64 / first.elapsed_s);
        out.set_job_times(&latencies, "job latency");
        return Ok(());
    }

    let traced = &measured[1];
    let spans = client_layers(out, first, traced, &dirs[1], &tracer);
    journal_layers(out, traced, &dirs[1]);

    // Layer probes through public calls on the first served jobs.
    let probe_dir = fresh_dir(&work.join("probe")).map_err(io("probe dir"))?;
    let mut probes = Vec::new();
    for s in traced.served.iter().take(params.probe_jobs) {
        let job = gen::job(spec.seed, s.index);
        probes.push(
            probe(&job, references.get(&job.digest), &probe_dir)
                .map_err(|e| format!("probe of {}: {e}", job.digest))?,
        );
    }
    let latencies: Vec<f64> = traced.served.iter().map(|s| s.latency_s * 1e3).collect();
    probe_layers(out, &probes, median(&latencies));

    let details: Vec<String> = traced
        .served
        .iter()
        .filter_map(|s| {
            let dir = dirs[1].get(&s.index)?;
            Some(format!(
                "{{\"key\":\"{}#{}\",\"done\":\"{}\"}}",
                s.digest,
                dir.attempts.saturating_sub(1),
                dir.detail
            ))
        })
        .collect();
    let path = trace_path(work, spec);
    trace::write_jsonl(&spans, &details, &path).map_err(io("trace write"))?;
    out.note(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

/// Tracing overhead and the HTTP layer, from the client spans; returns
/// the spans keyed by `digest#attempt`.
fn client_layers(
    out: &mut Outcome,
    untraced: &Phase,
    traced: &Phase,
    dirs: &BTreeMap<usize, JobDir>,
    tracer: &Tracer,
) -> Vec<trace::Span> {
    // Tracing overhead: total latency over the jobs both halves served.
    let latency = |p: &Phase| -> BTreeMap<usize, f64> {
        p.served.iter().map(|s| (s.index, s.latency_s)).collect()
    };
    let (a, b) = (latency(untraced), latency(traced));
    let common: Vec<usize> = a.keys().filter(|k| b.contains_key(k)).copied().collect();
    let sum = |m: &BTreeMap<usize, f64>| common.iter().map(|k| m[k]).sum::<f64>();
    out.set("trace.overhead_pct", (sum(&b) / sum(&a) - 1.0) * 100.0);

    let attempts: BTreeMap<&str, usize> = traced
        .served
        .iter()
        .filter_map(|s| Some((s.digest.as_str(), dirs.get(&s.index)?.attempts)))
        .collect();
    let mut spans = tracer.spans();
    for span in &mut spans {
        let attempt = attempts.get(span.key.as_str()).copied().unwrap_or(0);
        span.key = format!("{}#{}", span.key, attempt.saturating_sub(1));
    }
    let ms_p50 = |name: &str| median(&trace::durations(&spans, name)) * 1e3;
    out.set("server.post_ms_p50", ms_p50("server.post"));
    out.set("server.poll_ms_p50", ms_p50("server.poll"));
    out.set("server.results_ms_p50", ms_p50("server.results"));
    out.set(
        "server.polls_per_job",
        mean(
            &traced
                .served
                .iter()
                .map(|s| s.polls as f64)
                .collect::<Vec<_>>(),
        ),
    );
    spans
}

/// What the journals and job directories of the traced half say.
fn journal_layers(out: &mut Outcome, traced: &Phase, dirs: &BTreeMap<usize, JobDir>) {
    let each = |f: &dyn Fn(&JobDir) -> f64| dirs.values().map(f).collect::<Vec<f64>>();
    let total = |f: &dyn Fn(&JobDir) -> f64| each(f).iter().sum::<f64>();
    let exec_ms = each(&|d| d.wall_ms as f64);
    out.set("service.exec_ms_p50", median(&exec_ms));
    let latency_ms: f64 = traced.served.iter().map(|s| s.latency_s * 1e3).sum();
    out.set(
        "service.outside_exec_share",
        1.0 - exec_ms.iter().sum::<f64>() / latency_ms,
    );
    out.set(
        "service.journal_appends_per_job",
        mean(&each(&|d| d.appends as f64)),
    );
    out.set("service.bytes_per_job", mean(&each(&|d| d.bytes as f64)));
    out.set(
        "service.attempts_per_job",
        mean(&each(&|d| d.attempts as f64)),
    );
    out.set(
        "campaign.skipped_share",
        total(&|d| d.skipped as f64) / (dirs.len() * gen::JOB_POINTS) as f64,
    );
    let hits = total(&|d| d.sidecar_hits as f64);
    let lookups = hits + total(&|d| d.sidecar_rejects as f64);
    out.set(
        "sidecar.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.set("supervisor.quarantined", total(&|d| d.quarantined as f64));
}

/// The layer probes: parse, direct run, settle, sidecar, results file.
fn probe_layers(out: &mut Outcome, probes: &[Probe], job_p50_ms: f64) {
    let col = |f: &dyn Fn(&Probe) -> f64| probes.iter().map(f).collect::<Vec<f64>>();
    let total = |f: &dyn Fn(&Probe) -> f64| col(f).iter().sum::<f64>();
    out.set("service.parse_us", median(&col(&|p| p.parse_s)) * 1e6);
    let direct_ms = median(&col(&|p| p.direct_s)) * 1e3;
    out.set("scenario.direct_ms_p50", direct_ms);
    out.set("service.overhead_ratio", job_p50_ms / direct_ms);
    out.set(
        "scenario.settle_ms_p50",
        median(&col(&|p| p.settle_s)) * 1e3,
    );
    out.set("sidecar.store_us", median(&col(&|p| p.store_s)) * 1e6);
    out.set("sidecar.load_us", median(&col(&|p| p.load_s)) * 1e6);
    let records: Vec<f64> = probes.iter().flat_map(|p| p.record_s.clone()).collect();
    out.set("campaign.record_us_p50", median(&records) * 1e6);
    out.set(
        "campaign.open_ms_p50",
        median(&col(&|p| p.open_torn_s)) * 1e3,
    );
    let tones = total(&|p| p.tones as f64);
    let steps = total(&|p| p.steps as f64);
    out.set("engine.steps_per_tone", steps / tones);
    out.set(
        "engine.fb_edges_per_tone",
        total(&|p| p.fb_edges as f64) / tones,
    );
    out.set(
        "engine.step_rejections_per_tone",
        total(&|p| p.rejections as f64) / tones,
    );
    let capture_s = total(&|p| p.capture_s);
    out.set("engine.ns_per_step", capture_s * 1e9 / steps.max(1.0));
    out.set("engine.sim_s_per_host_s", total(&|p| p.sim_s) / capture_s);
    out.set("supervisor.retries", total(&|p| p.retries as f64));
    let utilization: Vec<f64> = probes.iter().filter_map(|p| p.utilization).collect();
    out.set("parallel.utilization", mean(&utilization));
    out.note(format!(
        "layer probes: {} jobs run directly and through the results/sidecar calls; sidecar {}",
        probes.len(),
        if probes.iter().all(|p| p.load_hit) {
            "round-trips"
        } else {
            "declines this engine's lock state"
        }
    ));
}
