//! Event-driven CP-PLL engine with **exact per-event advancement**.
//!
//! Where [`crate::behavioral::CpPll`] micro-steps a `Box<dyn LoopFilter>`
//! between edges (trial segments, cloned state vectors, trapezoidal phase
//! accumulation), this engine advances the loop **per PFD switching
//! event** in the style of the Kuznetsov–Yuldashev closed-form CP-PLL
//! model (arXiv 1901.01468, with the van Paemel correction of
//! 1810.02609): between two discrete events the pump drive is constant,
//! so the loop filter collapses to a scalar affine ODE
//! ([`AffineSegment`]) whose state, output and *time integral* all have
//! closed forms. One evaluation replaces an arbitrary number of
//! micro-steps, VCO phase is accumulated exactly (no trapezoid), and
//! feedback edges are located by a safeguarded Newton iteration on the
//! closed-form phase — a handful of `exp` calls instead of sixty
//! state-vector clones.
//!
//! The observable contract is [`crate::behavioral::CpPll`]'s: the same
//! segment-boundary candidates (reference edge, feedback-phase crossing,
//! dead-zone expiry, sampler tick, the caller's horizon), the same
//! reference-edge scheduling with clamped generation jitter, the same
//! hold semantics, the same work accounting (`steps` counts committed
//! segments, every feedback edge is a shortened/rejected segment). The
//! engines differ only in rounding: phases agree to ~1e-9 cycle over a
//! sweep, not bit for bit.
//!
//! # Supported configurations
//!
//! Exact scalar propagation requires a **first-order filter and a linear
//! VCO**: every stock config and every `standard_campaign` fault
//! qualifies, which is why this is the default engine of
//! [`crate::plan::CampaignPlan`]. [`EventDrivenCpPll::try_new_locked`]
//! refuses a ripple capacitor (second filter state), VCO tuning-curve
//! curvature, or a clamped VCO range with a typed, non-retryable
//! [`SweepPointError::UnsupportedConfig`]; run those on
//! [`crate::behavioral::CpPll`] (`plan.engine::<CpPll>()`). The engine
//! also refuses to run where the *linear* VCO frequency would cross
//! zero — railed operation far outside lock belongs to the clamped
//! behavioural model.

use crate::behavioral::{LoopEvent, Sample, SolverStats};
use crate::config::{DriveConfig, PllConfig};
use crate::engine::{PllEngine, WorkStats};
use crate::error::SweepPointError;
use crate::noise::{NoiseConfig, NoiseSource};
use crate::stimulus::FmStimulus;
use pllbist_analog::filter::AffineSegment;
use pllbist_analog::pfd::{BehavioralPfd, PfdOutput};
use pllbist_analog::pump::{ChargePump, PumpOutput, VoltageDriver};
use pllbist_analog::vco::Vco;

/// One PFD drive state reduced to its closed-form loop kernel: the
/// filter's scalar affine segment composed with the linear VCO, so the
/// instantaneous frequency is `f0 + gdx·x` and the phase advance over a
/// segment is exact.
#[derive(Clone, Copy, Debug)]
struct Kernel {
    seg: AffineSegment,
    /// VCO frequency at filter state `x = 0`, in Hz (unclamped linear
    /// extrapolation — may be negative; the engine guards against ever
    /// *operating* there).
    f0: f64,
    /// Frequency sensitivity to the filter state, `∂f/∂x` in Hz per
    /// state-unit.
    gdx: f64,
}

impl Kernel {
    /// Instantaneous (linear, unclamped) VCO frequency for state `x`.
    fn freq(&self, x: f64) -> f64 {
        self.f0 + self.gdx * x
    }
}

struct Sampler {
    interval: f64,
    next_t: f64,
    samples: Vec<Sample>,
}

/// One solved feedback-edge crossing: the shortened segment length, the
/// filter state at its end and the exact phase advance over it — all
/// from the same closed-form evaluations, so the commit recomputes
/// nothing.
#[derive(Clone, Copy)]
struct Crossing {
    dt: f64,
    x_end: f64,
    dphase: f64,
}

/// The drive stage as a pure function of the config (the event engine
/// only ever needs the three static `PumpOutput` values).
fn drive_of(config: &PllConfig, pfd: PfdOutput) -> PumpOutput {
    match config.drive {
        DriveConfig::Voltage { vdd } => VoltageDriver::new(vdd).drive(pfd),
        DriveConfig::Charge { i_pump, mismatch } => {
            ChargePump::with_mismatch(i_pump, mismatch).drive(pfd)
        }
    }
}

/// Array slot for a PFD state's kernel.
fn slot(state: PfdOutput) -> usize {
    match state {
        PfdOutput::Up => 0,
        PfdOutput::Down => 1,
        PfdOutput::Off => 2,
    }
}

/// The event-driven CP-PLL simulator — [`crate::behavioral::CpPll`]'s
/// semantics at closed-form speed.
///
/// # Example
///
/// ```
/// use pllbist_sim::config::PllConfig;
/// use pllbist_sim::event_driven::EventDrivenCpPll;
///
/// let cfg = PllConfig::paper_table3();
/// let mut pll = EventDrivenCpPll::new_locked(&cfg);
/// pll.advance_to(0.1); // run 100 ms at lock
/// let f = pll.average_frequency_hz(0.05);
/// assert!((f - 5_000.0).abs() < 5.0, "still at lock: {f}");
/// ```
pub struct EventDrivenCpPll {
    config: PllConfig,
    pfd: BehavioralPfd,
    vco: Vco,
    /// Kernels indexed by [`slot`]: Up, Down, Off.
    kernels: [Kernel; 3],
    /// The scalar filter state (capacitor voltage / integrator value).
    x: f64,
    stimulus: FmStimulus,
    t: f64,
    vco_phase_cycles: f64,
    fb_edge_count: u64,
    next_fb_target: f64,
    next_ref_edge: f64,
    /// The unjittered time of the pending reference edge — the edge
    /// *sequence* advances on the ideal grid; jitter only moves each
    /// edge's emission time.
    next_ref_edge_ideal: f64,
    /// Offset making the reference phase continuous across stimulus
    /// switches: ref_phase(t) = stim_phase_base + stimulus.phase_cycles(t).
    stim_phase_base: f64,
    hold: bool,
    /// Event-subdivision guard: no committed segment exceeds this, even
    /// when no event bounds it. Physics is exact at any length, so at the
    /// default (`2/f_ref`, never binding between ~1/f_ref-spaced edges)
    /// this costs nothing; the supervisor's retry ladder shrinks it via
    /// [`PllEngine::set_step_scale`] so re-attempts still tighten a real
    /// knob on this engine.
    max_segment_dt: f64,
    collect_events: bool,
    events: Vec<LoopEvent>,
    sampler: Option<Sampler>,
    noise: Option<NoiseSource>,
    stats: SolverStats,
}

impl EventDrivenCpPll {
    /// Builds the loop preset at its lock point (the only supported
    /// start: cold-start acquisition slews through the railed region the
    /// linear kernels exclude — use [`crate::behavioral::CpPll`] for
    /// that).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is outside the engine's exact class,
    /// with the typed [`SweepPointError::UnsupportedConfig`] of
    /// [`try_new_locked`](Self::try_new_locked) as the payload — so a
    /// campaign's point containment quarantines it as
    /// `unsupported_config` rather than as a worker panic.
    pub fn new_locked(config: &PllConfig) -> Self {
        match Self::try_new_locked(config) {
            Ok(pll) => pll,
            Err(error) => std::panic::panic_any(error),
        }
    }

    /// [`new_locked`](Self::new_locked) as a `Result`.
    ///
    /// # Errors
    ///
    /// [`SweepPointError::UnsupportedConfig`] (backend `event_driven`)
    /// for a configuration outside the engine's exact class: a ripple
    /// capacitor (feature `ripple_capacitor`), VCO curvature
    /// (`vco_curvature`) or a clamped VCO range (`vco_range`). Run those
    /// on [`crate::behavioral::CpPll`].
    pub fn try_new_locked(config: &PllConfig) -> Result<Self, SweepPointError> {
        let unsupported = |feature| SweepPointError::UnsupportedConfig {
            backend: <Self as PllEngine>::backend_name(),
            feature,
        };
        if config.vco_curvature != (0.0, 0.0) {
            return Err(unsupported("vco_curvature"));
        }
        if config.vco_range_hz.is_some() {
            return Err(unsupported("vco_range"));
        }
        let filter = config.build_filter();
        let vco = config.build_vco();
        let gain = vco.gain_hz_per_volt();
        let kernel_for = |state: PfdOutput| -> Result<Kernel, SweepPointError> {
            let seg = filter
                .affine_segment(drive_of(config, state))
                .ok_or_else(|| unsupported("ripple_capacitor"))?;
            Ok(Kernel {
                seg,
                // Linear, unclamped: f(v) = f_center + gain·(v − v_center),
                // composed with v = c·x + d.
                f0: vco.f_center_hz() + gain * (seg.d - vco.v_center()),
                gdx: gain * seg.c,
            })
        };
        let kernels = [
            kernel_for(PfdOutput::Up)?,
            kernel_for(PfdOutput::Down)?,
            kernel_for(PfdOutput::Off)?,
        ];
        // Preset at lock through the canonical vector path so the initial
        // state matches CpPll::new_locked exactly.
        let v_lock = vco.control_for_frequency(config.f_vco_hz());
        let mut state = filter.initial_state();
        filter.preset_output(&mut state, v_lock);
        let x = state[0];
        let stimulus = FmStimulus::constant(config.f_ref_hz, 0.0);
        let next_ref_edge = stimulus.next_edge_after(0.0);
        Ok(Self {
            config: config.clone(),
            pfd: BehavioralPfd::with_dead_zone(config.pfd_dead_zone),
            vco,
            kernels,
            x,
            stimulus,
            t: 0.0,
            vco_phase_cycles: 0.0,
            fb_edge_count: 0,
            next_fb_target: config.divider_n as f64,
            next_ref_edge,
            next_ref_edge_ideal: next_ref_edge,
            stim_phase_base: 0.0,
            hold: false,
            max_segment_dt: 2.0 / config.f_ref_hz,
            collect_events: false,
            events: Vec::new(),
            sampler: None,
            noise: None,
            stats: SolverStats::default(),
        })
    }

    /// The configuration this loop was built from.
    pub fn config(&self) -> &PllConfig {
        &self.config
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// The kernel slot active *now* (hold and an unexpired dead zone both
    /// present the Off drive, exactly as `CpPll::current_drive`).
    fn active_slot(&self) -> usize {
        if self.hold {
            return slot(PfdOutput::Off);
        }
        let state = self.pfd.output();
        if state != PfdOutput::Off && self.pfd.dead_zone() > 0.0 {
            if let Some(armed) = self.pfd.armed_since() {
                if self.t - armed < self.pfd.dead_zone() {
                    return slot(PfdOutput::Off);
                }
            }
        }
        slot(state)
    }

    /// Current control voltage.
    pub fn control_voltage(&self) -> f64 {
        self.kernels[self.active_slot()].seg.output(self.x)
    }

    /// Current instantaneous VCO frequency in Hz.
    pub fn vco_frequency_hz(&self) -> f64 {
        self.vco.frequency_hz(self.control_voltage())
    }

    /// The held control voltage: the filter output with the drive
    /// high-impedance — the smooth capacitor state, free of the
    /// correction-pulse feed-through (what engaging hold would freeze).
    pub fn held_control_voltage(&self) -> f64 {
        self.kernels[slot(PfdOutput::Off)].seg.output(self.x)
    }

    /// Accumulated VCO phase in cycles — the ideal-counter readout; the
    /// BIST layer quantises this to model real counters.
    pub fn vco_phase_cycles(&self) -> f64 {
        self.vco_phase_cycles
    }

    /// Advances the simulation by `window` seconds and returns the
    /// **boxcar-average** VCO frequency over that window (what a gated
    /// frequency counter reads).
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive and finite.
    pub fn average_frequency_hz(&mut self, window: f64) -> f64 {
        assert!(
            window > 0.0 && window.is_finite(),
            "window must be positive"
        );
        let p0 = self.vco_phase_cycles;
        let t0 = self.t;
        self.advance_to(t0 + window);
        (self.vco_phase_cycles - p0) / (self.t - t0)
    }

    /// Number of feedback (divided-VCO) edges so far.
    pub fn fb_edge_count(&self) -> u64 {
        self.fb_edge_count
    }

    /// Cumulative solver work counters since construction. On this
    /// engine `steps` counts **committed closed-form segments** — the
    /// event engine's unit of work — so every step budget the supervisor
    /// enforces is effectively an event budget here.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Dead-zone glitches seen by this loop's PFD so far.
    pub fn pfd_glitch_count(&self) -> u64 {
        self.pfd.glitch_count()
    }

    /// The PFD's present output state.
    pub fn pfd_output(&self) -> PfdOutput {
        self.pfd.output()
    }

    /// Replaces the reference stimulus **phase-continuously** (see
    /// [`crate::behavioral::CpPll::set_stimulus`]).
    pub fn set_stimulus(&mut self, stimulus: FmStimulus) {
        let current = self.reference_phase_cycles();
        self.stimulus = stimulus;
        self.stim_phase_base = current - self.stimulus.phase_cycles(self.t);
        self.schedule_next_ref_edge(self.t);
    }

    /// Accumulated reference phase in cycles (continuous across stimulus
    /// switches).
    pub fn reference_phase_cycles(&self) -> f64 {
        self.stim_phase_base + self.stimulus.phase_cycles(self.t)
    }

    /// Advances the reference edge schedule — the same ideal-grid walk
    /// with clamped emission jitter as the behavioural engine.
    fn schedule_next_ref_edge(&mut self, ideal_after: f64) {
        let phase_now = self.stim_phase_base + self.stimulus.phase_cycles(ideal_after);
        let mut target = phase_now.floor() + 1.0;
        if target - phase_now < 1e-9 {
            target += 1.0;
        }
        let mut ideal = self
            .stimulus
            .time_at_phase(target - self.stim_phase_base, ideal_after);
        if ideal <= ideal_after {
            let bump = (ideal_after.abs() * 4.0 * f64::EPSILON).max(1e-12);
            ideal = ideal_after + bump;
        }
        self.next_ref_edge_ideal = ideal;
        let mut emitted = ideal;
        if let Some(n) = &mut self.noise {
            let limit = 0.45 / self.config.f_ref_hz;
            let jittered = n.jitter_ref_edge(ideal);
            emitted = jittered.clamp(ideal - limit, ideal + limit);
        }
        self.next_ref_edge = emitted.max(self.t + f64::MIN_POSITIVE);
    }

    /// The current stimulus.
    pub fn stimulus(&self) -> &FmStimulus {
        &self.stimulus
    }

    /// Injects white Gaussian edge jitter (see [`crate::noise`]); `None`
    /// restores the noiseless ideal. Takes effect from the next edge.
    pub fn set_noise(&mut self, config: Option<NoiseConfig>) {
        self.noise = config.map(NoiseSource::new);
    }

    /// Engages or releases the hold mechanism (paper §4, Table 2 stage
    /// 3).
    pub fn set_hold(&mut self, hold: bool) {
        if hold && !self.hold {
            self.pfd.reset();
            self.stats.hold_engagements += 1;
        }
        self.hold = hold;
    }

    /// `true` while the hold mechanism is engaged.
    pub fn is_held(&self) -> bool {
        self.hold
    }

    /// Starts collecting [`LoopEvent`]s (reference/feedback edges).
    pub fn collect_events(&mut self, on: bool) {
        self.collect_events = on;
    }

    /// Drains collected events.
    pub fn take_events(&mut self) -> Vec<LoopEvent> {
        std::mem::take(&mut self.events)
    }

    /// Starts sampling the analogue state every `interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn enable_sampling(&mut self, interval: f64) {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "sampling interval must be positive"
        );
        self.sampler = Some(Sampler {
            interval,
            next_t: self.t,
            samples: Vec::new(),
        });
    }

    /// Drains collected samples.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        self.sampler
            .as_mut()
            .map(|s| std::mem::take(&mut s.samples))
            .unwrap_or_default()
    }

    /// Commits one constant-drive segment of length `dt` ending in filter
    /// state `x_new` with phase advance `dphase` (both already computed
    /// by the caller from the same closed-form evaluation).
    fn commit(&mut self, k: Kernel, dt: f64, x_new: f64, dphase: f64) {
        self.x = x_new;
        self.vco_phase_cycles += dphase;
        self.t += dt;
        self.stats.steps += 1;
        // The kernels are *unclamped* linear extrapolations; leaving the
        // positive-frequency region means the clamp of the behavioural
        // model would have engaged and the closed form no longer holds.
        let f_end = k.freq(self.x);
        assert!(
            f_end > 0.0,
            "EventDrivenCpPll: VCO frequency left the positive linear \
             region (f = {f_end} Hz at t = {}); use CpPll for railed \
             operation",
            self.t
        );
        if let Some(sampler) = &mut self.sampler {
            if self.t >= sampler.next_t {
                let v = k.seg.output(self.x);
                let v_held = self.kernels[slot(PfdOutput::Off)].seg.output(self.x);
                sampler.samples.push(Sample {
                    t: self.t,
                    v_ctrl: v,
                    f_vco_hz: self.vco.frequency_hz(v),
                    phase_cycles: self.vco_phase_cycles,
                    v_held,
                });
                while sampler.next_t <= self.t {
                    sampler.next_t += sampler.interval;
                }
            }
        }
    }

    /// Advances the simulation to absolute time `t_end`.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` is in the past or not finite.
    pub fn advance_to(&mut self, t_end: f64) {
        assert!(
            t_end.is_finite() && t_end >= self.t,
            "t_end must be ahead of the current time"
        );
        // Guard: bound iterations to catch pathological configs in tests.
        let max_iters = ((t_end - self.t) * (self.config.f_vco_hz() * 8.0 + 1e4)) as u64 + 1000;
        let mut iters = 0u64;
        while self.t < t_end {
            iters += 1;
            assert!(
                iters <= max_iters,
                "simulation failed to progress (t = {}, next_ref_edge = {}, \
                 next_fb_target = {}, vco_phase = {}, hold = {}, pfd = {:?})",
                self.t,
                self.next_ref_edge,
                self.next_fb_target,
                self.vco_phase_cycles,
                self.hold,
                self.pfd.output()
            );
            // Segment boundary candidates — same set as the behavioural
            // engine, with the subdivision guard in place of a micro-step.
            let mut tb = (self.t + self.max_segment_dt).min(t_end);
            if let Some(s) = &self.sampler {
                if s.next_t > self.t {
                    tb = tb.min(s.next_t);
                }
            }
            let mut is_ref_edge = false;
            if self.next_ref_edge <= tb {
                tb = self.next_ref_edge;
                is_ref_edge = true;
            }
            if !self.hold && self.pfd.dead_zone() > 0.0 {
                if let Some(armed) = self.pfd.armed_since() {
                    let expiry = armed + self.pfd.dead_zone();
                    if expiry > self.t && expiry < tb {
                        tb = expiry;
                        is_ref_edge = false;
                    }
                }
            }
            let dt_seg = tb - self.t;
            if dt_seg <= 0.0 {
                // Boundary coincides with `t`: process the edge without
                // advancing time.
                if is_ref_edge {
                    self.process_ref_edge();
                }
                continue;
            }
            let k = self.kernels[self.active_slot()];
            let (x_new, integral) = k.seg.state_and_integral(self.x, dt_seg);
            let dphase = k.f0 * dt_seg + k.gdx * integral;
            if self.vco_phase_cycles + dphase >= self.next_fb_target {
                // A feedback edge falls inside the segment: shorten it to
                // the crossing (the segment counts as rejected, mirroring
                // the behavioural engine's work accounting).
                self.stats.step_rejections += 1;
                let target = self.next_fb_target - self.vco_phase_cycles;
                let edge = Self::solve_phase_crossing(k, self.x, target, dt_seg);
                self.commit(k, edge.dt, edge.x_end, edge.dphase);
                self.process_fb_edge();
                continue;
            }
            self.commit(k, dt_seg, x_new, dphase);
            if is_ref_edge {
                self.process_ref_edge();
            }
        }
    }

    /// Convergence tolerance for the edge solver, relative to the
    /// *segment length* (`dt_max`), not the candidate. The distinction
    /// matters in lock: the feedback edge then falls essentially at the
    /// segment start (the remaining target phase is cancellation noise
    /// of the accumulated-cycles subtraction), so the true root sits at
    /// `dt ≈ 1e-18 s` and any candidate-relative threshold collapses
    /// with it — Newton would grind sub-noise bisection for the full
    /// iteration budget chasing precision the target itself doesn't
    /// carry. One part in 10¹³ of a segment is ~1e-16 s on a reference
    /// period: far below edge-time significance (the phase error it
    /// admits is under the target's own rounding noise), reached in a
    /// couple of iterations whether the root is mid-segment or
    /// degenerate at the boundary.
    const EDGE_REL_TOL: f64 = 1e-13;

    /// The `dt ∈ (0, dt_max]` where the closed-form phase advance
    /// reaches `target` (to [`Self::EDGE_REL_TOL`], deterministically):
    /// Newton on the closed-form phase — the derivative is the
    /// instantaneous frequency, also closed form — safeguarded by a
    /// shrinking bracket with bisection fallback. The caller guarantees
    /// the phase at `dt_max` reaches the target.
    fn solve_phase_crossing(k: Kernel, x: f64, target: f64, dt_max: f64) -> Crossing {
        let mut lo = 0.0f64;
        let mut hi = dt_max;
        // The tightest at-or-past-target evaluation seen so far — the
        // fallback if the loop exhausts its budget without converging.
        let mut best: Option<Crossing> = None;
        // Initial guess from the segment-entry frequency.
        let f_entry = k.freq(x);
        let mut cand = if f_entry > 0.0 {
            (target / f_entry).clamp(0.0, dt_max)
        } else {
            0.5 * dt_max
        };
        for _ in 0..64 {
            if cand <= lo || cand >= hi {
                cand = 0.5 * (lo + hi);
                if cand <= lo || cand >= hi {
                    // Bracket collapsed to a ulp: `best` (if any) is the
                    // crossing to machine precision.
                    break;
                }
            }
            // One shared exponential per candidate: the phase residual
            // (via the state integral) and the Newton derivative (the
            // instantaneous frequency at the candidate) come out of the
            // same `exp` evaluation — the entire cost of an iteration.
            let (x_cand, integral) = k.seg.state_and_integral(x, cand);
            let phi = k.f0 * cand + k.gdx * integral;
            let here = Crossing {
                dt: cand,
                x_end: x_cand,
                dphase: phi,
            };
            if phi < target {
                lo = cand;
            } else {
                hi = cand;
                best = Some(here);
            }
            let f = k.f0 + k.gdx * x_cand;
            if f <= 0.0 {
                cand = 0.5 * (lo + hi);
                continue;
            }
            let delta = (target - phi) / f;
            // Converged: the Newton update or the bracket is below the
            // tolerance. The final candidate *is* the edge — committing
            // it directly (state and phase from the same evaluation)
            // keeps edge time, filter state and accumulated phase
            // mutually exact.
            if delta.abs() <= Self::EDGE_REL_TOL * dt_max || hi - lo <= Self::EDGE_REL_TOL * dt_max
            {
                return here;
            }
            cand += delta;
        }
        best.unwrap_or_else(|| {
            // Never bracketed from above within the iteration budget:
            // fall back to the caller-guaranteed crossing at `dt_max`.
            let (x_end, integral) = k.seg.state_and_integral(x, hi);
            Crossing {
                dt: hi,
                x_end,
                dphase: k.f0 * hi + k.gdx * integral,
            }
        })
    }

    fn process_ref_edge(&mut self) {
        // The generation-level jitter is already in `next_ref_edge`.
        let t = self.next_ref_edge;
        self.stats.ref_edges += 1;
        if self.collect_events {
            self.events.push(LoopEvent::RefEdge { t });
        }
        if !self.hold {
            self.pfd.on_reference_edge(t);
        }
        let ideal = self.next_ref_edge_ideal;
        self.schedule_next_ref_edge(ideal);
    }

    fn process_fb_edge(&mut self) {
        let t = self.t;
        let t_obs = match &mut self.noise {
            Some(n) => n.jitter_fb_edge(t),
            None => t,
        };
        self.fb_edge_count += 1;
        self.stats.fb_edges += 1;
        self.next_fb_target += self.config.divider_n as f64;
        if self.collect_events {
            self.events.push(LoopEvent::FbEdge { t: t_obs });
        }
        if !self.hold {
            self.pfd.on_feedback_edge(t_obs);
        }
    }

    /// Snapshots the loop's dynamic state (see
    /// [`EventDrivenCheckpoint`]).
    pub fn checkpoint(&self) -> EventDrivenCheckpoint {
        EventDrivenCheckpoint {
            t: self.t,
            x: self.x,
            pfd: self.pfd,
            stimulus: self.stimulus.clone(),
            vco_phase_cycles: self.vco_phase_cycles,
            fb_edge_count: self.fb_edge_count,
            next_fb_target: self.next_fb_target,
            next_ref_edge: self.next_ref_edge,
            next_ref_edge_ideal: self.next_ref_edge_ideal,
            stim_phase_base: self.stim_phase_base,
            hold: self.hold,
            noise: self.noise.clone(),
            stats: self.stats,
        }
    }

    /// Overwrites the dynamic state with a snapshot taken from a loop
    /// built from the **same configuration** — bit-exact, with
    /// instrumentation reset to off/empty (the engine-wide checkpoint
    /// contract of [`PllEngine::restore`]).
    pub fn restore(&mut self, snapshot: &EventDrivenCheckpoint) {
        self.t = snapshot.t;
        self.x = snapshot.x;
        self.pfd = snapshot.pfd;
        self.stimulus = snapshot.stimulus.clone();
        self.vco_phase_cycles = snapshot.vco_phase_cycles;
        self.fb_edge_count = snapshot.fb_edge_count;
        self.next_fb_target = snapshot.next_fb_target;
        self.next_ref_edge = snapshot.next_ref_edge;
        self.next_ref_edge_ideal = snapshot.next_ref_edge_ideal;
        self.stim_phase_base = snapshot.stim_phase_base;
        self.hold = snapshot.hold;
        self.noise = snapshot.noise.clone();
        self.stats = snapshot.stats;
        self.collect_events = false;
        self.events = Vec::new();
        self.sampler = None;
    }
}

/// A bit-exact snapshot of an [`EventDrivenCpPll`]'s dynamic state.
///
/// Everything static — the kernels, VCO, PFD dead zone, subdivision
/// guard — is a pure function of the [`PllConfig`] and is deliberately
/// *not* stored: [`EventDrivenCpPll::restore`] requires an engine built
/// from the same configuration. The PFD (glitch counter included) and
/// the solver stats ride along so checkpointed and from-scratch runs
/// report identical telemetry.
#[derive(Clone, Debug)]
pub struct EventDrivenCheckpoint {
    t: f64,
    x: f64,
    pfd: BehavioralPfd,
    stimulus: FmStimulus,
    vco_phase_cycles: f64,
    fb_edge_count: u64,
    next_fb_target: f64,
    next_ref_edge: f64,
    next_ref_edge_ideal: f64,
    stim_phase_base: f64,
    hold: bool,
    noise: Option<NoiseSource>,
    stats: SolverStats,
}

impl PllEngine for EventDrivenCpPll {
    type Checkpoint = EventDrivenCheckpoint;

    fn new_locked(config: &PllConfig) -> Self {
        EventDrivenCpPll::new_locked(config)
    }

    fn config(&self) -> &PllConfig {
        self.config()
    }

    fn time(&self) -> f64 {
        self.time()
    }

    fn advance_to(&mut self, t_end: f64) {
        EventDrivenCpPll::advance_to(self, t_end);
    }

    fn control_voltage(&self) -> f64 {
        EventDrivenCpPll::control_voltage(self)
    }

    fn vco_frequency_hz(&self) -> f64 {
        EventDrivenCpPll::vco_frequency_hz(self)
    }

    fn vco_phase_cycles(&self) -> f64 {
        EventDrivenCpPll::vco_phase_cycles(self)
    }

    fn set_stimulus(&mut self, stimulus: FmStimulus) {
        EventDrivenCpPll::set_stimulus(self, stimulus);
    }

    fn set_hold(&mut self, hold: bool) {
        EventDrivenCpPll::set_hold(self, hold);
    }

    fn is_held(&self) -> bool {
        EventDrivenCpPll::is_held(self)
    }

    fn collect_events(&mut self, on: bool) {
        EventDrivenCpPll::collect_events(self, on);
    }

    fn take_events(&mut self) -> Vec<LoopEvent> {
        EventDrivenCpPll::take_events(self)
    }

    fn checkpoint(&self) -> EventDrivenCheckpoint {
        EventDrivenCpPll::checkpoint(self)
    }

    fn restore(&mut self, snapshot: &EventDrivenCheckpoint) {
        EventDrivenCpPll::restore(self, snapshot);
    }

    fn set_step_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "step scale must be positive and finite"
        );
        // The event engine has no free-running integration step to
        // shrink — segments are exact at any length — so the scale
        // tightens the *event-subdivision guard* instead: retries commit
        // more, shorter segments. `1.0 * x == x` exactly in IEEE-754, so
        // scale 1.0 is bitwise neutral as the trait contract requires
        // (and the default guard of 2/f_ref never binds between
        // ~1/f_ref-spaced reference edges anyway).
        self.max_segment_dt = scale * (2.0 / self.config.f_ref_hz);
    }

    fn backend_name() -> &'static str {
        "event_driven"
    }

    fn encode_checkpoint(snapshot: &EventDrivenCheckpoint) -> Option<String> {
        if snapshot.noise.is_some() {
            // The jitter source carries private RNG state; declining
            // keeps the sidecar honest — noisy campaigns re-settle.
            return None;
        }
        let hx = |v: f64| format!("{:016x}", v.to_bits());
        let s = &snapshot.stats;
        Some(format!(
            "ev:{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{},{},{},{},{}",
            hx(snapshot.t),
            hx(snapshot.x),
            snapshot.pfd.state_code(),
            snapshot.stimulus.encode_state(),
            hx(snapshot.vco_phase_cycles),
            snapshot.fb_edge_count,
            hx(snapshot.next_fb_target),
            hx(snapshot.next_ref_edge),
            hx(snapshot.next_ref_edge_ideal),
            hx(snapshot.stim_phase_base),
            u8::from(snapshot.hold),
            s.steps,
            s.step_rejections,
            s.ref_edges,
            s.fb_edges,
            s.hold_engagements,
        ))
    }

    fn decode_checkpoint(token: &str) -> Option<EventDrivenCheckpoint> {
        fn f64_bits(s: &str) -> Option<f64> {
            (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok().map(f64::from_bits))?
        }
        let rest = token.strip_prefix("ev:")?;
        let parts: Vec<&str> = rest.split('|').collect();
        if parts.len() != 12 {
            return None;
        }
        let stats: Vec<u64> = parts[11]
            .split(',')
            .map(|s| s.parse().ok())
            .collect::<Option<_>>()?;
        if stats.len() != 5 {
            return None;
        }
        Some(EventDrivenCheckpoint {
            t: f64_bits(parts[0])?,
            x: f64_bits(parts[1])?,
            pfd: BehavioralPfd::from_state_code(parts[2])?,
            stimulus: FmStimulus::decode_state(parts[3])?,
            vco_phase_cycles: f64_bits(parts[4])?,
            fb_edge_count: parts[5].parse().ok()?,
            next_fb_target: f64_bits(parts[6])?,
            next_ref_edge: f64_bits(parts[7])?,
            next_ref_edge_ideal: f64_bits(parts[8])?,
            stim_phase_base: f64_bits(parts[9])?,
            hold: match parts[10] {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            noise: None,
            stats: SolverStats {
                steps: stats[0],
                step_rejections: stats[1],
                ref_edges: stats[2],
                fb_edges: stats[3],
                hold_engagements: stats[4],
            },
        })
    }

    fn work_stats(&self) -> WorkStats {
        let s = self.solver_stats();
        WorkStats {
            steps: s.steps,
            step_rejections: s.step_rejections,
            ref_edges: s.ref_edges,
            fb_edges: s.fb_edges,
            hold_engagements: s.hold_engagements,
            pfd_glitches: self.pfd_glitch_count(),
            kernel_events: 0,
        }
    }
}

impl crate::engine::AnalogAccess for EventDrivenCpPll {
    fn enable_sampling(&mut self, interval: f64) {
        EventDrivenCpPll::enable_sampling(self, interval);
    }

    fn take_samples(&mut self) -> Vec<Sample> {
        EventDrivenCpPll::take_samples(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::CpPll;

    #[test]
    fn locked_loop_stays_locked() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.advance_to(0.5);
        let f = pll.average_frequency_hz(0.1);
        assert!((f - 5_000.0).abs() < 2.0, "f = {f}");
        let edges_per_sec = pll.fb_edge_count() as f64 / 0.6;
        assert!((edges_per_sec - 1_000.0).abs() < 5.0);
    }

    #[test]
    fn frequency_step_settles_to_n_times_reference() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::constant(1_000.0, 8.0));
        pll.advance_to(1.5);
        let f = pll.average_frequency_hz(0.1);
        assert!((f - 5_040.0).abs() < 1.0, "f = {f}");
    }

    #[test]
    fn charge_pump_loop_locks_too() {
        let cfg = PllConfig::integer_n_charge_pump();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.advance_to(0.2);
        let f = pll.average_frequency_hz(0.02);
        assert!((f - 80_000.0).abs() < 100.0, "f = {f}");
    }

    #[test]
    fn tracks_behavioral_engine_closely() {
        // The tentpole cross-check at engine granularity: same config,
        // same stimulus law, the micro-stepped and the event-driven
        // engines must tell the same physical story (they differ only in
        // rounding and in where feedback edges land within one ulp).
        let cfg = PllConfig::paper_table3();
        let mut ev = EventDrivenCpPll::new_locked(&cfg);
        let mut beh = CpPll::new_locked(&cfg);
        let stim = FmStimulus::pure_sine(1_000.0, 10.0, 8.0);
        ev.set_stimulus(stim.clone());
        beh.set_stimulus(stim);
        for k in 1..=10 {
            let t = k as f64 * 0.1;
            ev.advance_to(t);
            beh.advance_to(t);
            let pe = ev.vco_phase_cycles();
            let pb = beh.vco_phase_cycles();
            assert!(
                (pe - pb).abs() < 1e-4 * pb.abs().max(1.0),
                "t = {t}: event {pe} vs behavioral {pb} cycles"
            );
            let ve = ev.held_control_voltage();
            let vb = beh.held_control_voltage();
            assert!(
                (ve - vb).abs() < 1e-4,
                "t = {t}: held v event {ve} vs behavioral {vb}"
            );
        }
        assert_eq!(ev.fb_edge_count(), beh.fb_edge_count());
    }

    #[test]
    fn event_engine_does_far_less_work() {
        // The reason this engine exists: no micro-steps, no bisection
        // trials. Committed segments stay within a small multiple of the
        // physical event count, where the behavioural engine pays ~5
        // micro-steps per reference period on the paper's loop.
        let cfg = PllConfig::paper_table3();
        let mut ev = EventDrivenCpPll::new_locked(&cfg);
        let mut beh = CpPll::new_locked(&cfg);
        ev.advance_to(0.5);
        beh.advance_to(0.5);
        let se = ev.solver_stats();
        let sb = beh.solver_stats();
        assert!(
            se.steps * 2 < sb.steps,
            "event engine should commit far fewer segments: {} vs {}",
            se.steps,
            sb.steps
        );
    }

    #[test]
    fn hold_freezes_the_vco() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::constant(1_000.0, 6.0));
        pll.advance_to(0.9);
        let f_before = pll.average_frequency_hz(0.1);
        pll.set_hold(true);
        let f_at_hold = pll.vco_frequency_hz();
        assert!(
            (f_at_hold - f_before).abs() < 2.0,
            "{f_before} vs {f_at_hold}"
        );
        pll.set_stimulus(FmStimulus::constant(1_000.0, -6.0));
        pll.advance_to(3.0);
        let f_after = pll.vco_frequency_hz();
        assert!(
            (f_after - f_at_hold).abs() < 1e-6,
            "held: {f_at_hold} → {f_after}"
        );
        pll.set_hold(false);
        pll.advance_to(4.5);
        let f = pll.average_frequency_hz(0.1);
        assert!((f - 5.0 * 994.0).abs() < 2.0, "f = {f}");
    }

    #[test]
    fn hold_droops_with_leakage_fault() {
        use pllbist_analog::fault::Fault;
        let cfg = PllConfig::paper_table3()
            .with_fault(Fault::FilterLeakage(5e6))
            .unwrap();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.advance_to(1.0);
        let f0 = pll.vco_frequency_hz();
        pll.set_hold(true);
        pll.advance_to(1.5);
        let f1 = pll.vco_frequency_hz();
        assert!(f0 - f1 > 100.0, "droop {} Hz", f0 - f1);
    }

    #[test]
    fn events_are_ordered_and_interleaved() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.collect_events(true);
        pll.advance_to(0.05);
        let events = pll.take_events();
        assert!(events.len() > 80, "{} events", events.len());
        for w in events.windows(2) {
            assert!(w[0].time() <= w[1].time());
        }
        let refs = events
            .iter()
            .filter(|e| matches!(e, LoopEvent::RefEdge { .. }))
            .count();
        let fbs = events.len() - refs;
        assert!(
            (refs as i64 - fbs as i64).abs() <= 5,
            "refs {refs} fbs {fbs}"
        );
    }

    #[test]
    fn sine_fm_modulates_the_output() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 1.0));
        pll.advance_to(3.0);
        pll.enable_sampling(5e-3);
        pll.advance_to(5.0);
        let samples = pll.take_samples();
        let boxcar: Vec<f64> = samples
            .windows(2)
            .map(|w| (w[1].phase_cycles - w[0].phase_cycles) / (w[1].t - w[0].t))
            .collect();
        let max = boxcar.iter().copied().fold(f64::MIN, f64::max);
        let min = boxcar.iter().copied().fold(f64::MAX, f64::min);
        assert!((max - 5_050.0).abs() < 6.0, "max {max}");
        assert!((min - 4_950.0).abs() < 6.0, "min {min}");
    }

    #[test]
    fn dead_zone_slows_small_corrections() {
        let mut cfg = PllConfig::paper_table3();
        cfg.pfd_dead_zone = 40e-6;
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.advance_to(0.5);
        assert!((pll.vco_frequency_hz() - 5_000.0).abs() < 30.0);
    }

    #[test]
    fn sampler_interval_respected() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.enable_sampling(10e-3);
        pll.advance_to(0.5);
        let s = pll.take_samples();
        assert!((48..=52).contains(&s.len()), "{} samples", s.len());
        assert!(pll.take_samples().is_empty(), "drained");
    }

    #[test]
    fn solver_stats_count_work_and_diff_cleanly() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        assert_eq!(pll.solver_stats(), SolverStats::default());
        pll.advance_to(0.1);
        let mid = pll.solver_stats();
        assert!(mid.steps > 0, "{mid:?}");
        assert!((90..=110).contains(&mid.ref_edges), "{mid:?}");
        assert!((90..=110).contains(&mid.fb_edges), "{mid:?}");
        assert_eq!(mid.step_rejections, mid.fb_edges, "{mid:?}");
        assert_eq!(mid.hold_engagements, 0);
        pll.set_hold(true);
        pll.set_hold(true); // idempotent: still one engagement
        pll.advance_to(0.2);
        let end = pll.solver_stats();
        let delta = end.since(&mid);
        assert_eq!(delta.hold_engagements, 1);
        assert_eq!(delta.fb_edges, end.fb_edges - mid.fb_edges);
        let mut acc = mid;
        acc.absorb(&delta);
        assert_eq!(acc, end);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_exactly() {
        let cfg = PllConfig::paper_table3();
        let mut a = EventDrivenCpPll::new_locked(&cfg);
        a.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 8.0));
        a.set_noise(Some(crate::noise::NoiseConfig::symmetric(2e-7, 42)));
        a.advance_to(0.7);
        let snap = a.checkpoint();
        let mut b = EventDrivenCpPll::new_locked(&cfg);
        b.restore(&snap);
        a.advance_to(1.3);
        b.advance_to(1.3);
        assert_eq!(
            a.vco_phase_cycles().to_bits(),
            b.vco_phase_cycles().to_bits()
        );
        assert_eq!(a.control_voltage().to_bits(), b.control_voltage().to_bits());
        assert_eq!(a.solver_stats(), b.solver_stats());
        assert_eq!(a.fb_edge_count(), b.fb_edge_count());
        assert_eq!(a.pfd_glitch_count(), b.pfd_glitch_count());
    }

    #[test]
    fn step_scale_one_is_bitwise_neutral() {
        let cfg = PllConfig::paper_table3();
        let mut a = EventDrivenCpPll::new_locked(&cfg);
        let mut b = EventDrivenCpPll::new_locked(&cfg);
        PllEngine::set_step_scale(&mut b, 1.0);
        let stim = FmStimulus::pure_sine(1_000.0, 10.0, 8.0);
        a.set_stimulus(stim.clone());
        b.set_stimulus(stim);
        a.advance_to(0.5);
        b.advance_to(0.5);
        assert_eq!(
            a.vco_phase_cycles().to_bits(),
            b.vco_phase_cycles().to_bits()
        );
        assert_eq!(a.control_voltage().to_bits(), b.control_voltage().to_bits());
        assert_eq!(a.solver_stats(), b.solver_stats());
    }

    #[test]
    fn step_scale_tightens_the_subdivision_guard() {
        // The supervisor's retry ladder must still change something real
        // on this engine: a shrunken scale forces more, shorter committed
        // segments without moving the physics.
        let cfg = PllConfig::paper_table3();
        let mut coarse = EventDrivenCpPll::new_locked(&cfg);
        let mut fine = EventDrivenCpPll::new_locked(&cfg);
        PllEngine::set_step_scale(&mut fine, 0.05);
        coarse.advance_to(0.5);
        fine.advance_to(0.5);
        let sc = coarse.solver_stats();
        let sf = fine.solver_stats();
        assert!(
            sf.steps > 2 * sc.steps,
            "scale 0.05 should subdivide: {} vs {}",
            sf.steps,
            sc.steps
        );
        assert_eq!(sc.ref_edges, sf.ref_edges, "same physical events");
        assert_eq!(sc.fb_edges, sf.fb_edges, "same physical events");
        // Exact segments: subdividing does not move the trajectory beyond
        // rounding.
        assert!(
            (coarse.vco_phase_cycles() - fine.vco_phase_cycles()).abs() < 1e-6,
            "{} vs {}",
            coarse.vco_phase_cycles(),
            fine.vco_phase_cycles()
        );
    }

    #[test]
    #[should_panic(expected = "ahead of the current time")]
    fn cannot_run_backwards() {
        let cfg = PllConfig::paper_table3();
        let mut pll = EventDrivenCpPll::new_locked(&cfg);
        pll.advance_to(0.1);
        pll.advance_to(0.05);
    }

    /// The typed refusal `try_new_locked` returns for `cfg`, which
    /// `new_locked` must raise as its panic payload too.
    fn refusal(cfg: &PllConfig) -> SweepPointError {
        let Err(err) = EventDrivenCpPll::try_new_locked(cfg) else {
            panic!("config should be out of class");
        };
        let payload = std::panic::catch_unwind(|| EventDrivenCpPll::new_locked(cfg))
            .err()
            .expect("new_locked refuses too");
        assert_eq!(SweepPointError::from_panic(payload), err);
        assert_eq!(err.kind(), "unsupported_config");
        assert!(!err.is_retryable());
        err
    }

    #[test]
    fn ripple_capacitor_is_out_of_class() {
        let mut cfg = PllConfig::integer_n_charge_pump();
        if let crate::config::FilterConfig::SeriesRc { ref mut c2, .. } = cfg.filter {
            *c2 = Some(1e-9);
        }
        assert_eq!(
            refusal(&cfg),
            SweepPointError::UnsupportedConfig {
                backend: "event_driven",
                feature: "ripple_capacitor",
            }
        );
    }

    #[test]
    fn vco_curvature_is_out_of_class() {
        let mut cfg = PllConfig::paper_table3();
        cfg.vco_curvature = (20.0, 0.0);
        assert_eq!(
            refusal(&cfg),
            SweepPointError::UnsupportedConfig {
                backend: "event_driven",
                feature: "vco_curvature",
            }
        );
    }

    #[test]
    fn vco_range_is_out_of_class() {
        let mut cfg = PllConfig::paper_table3();
        cfg.vco_range_hz = Some((4_000.0, 6_000.0));
        assert_eq!(
            refusal(&cfg),
            SweepPointError::UnsupportedConfig {
                backend: "event_driven",
                feature: "vco_range",
            }
        );
    }

    #[test]
    fn phase_advances_at_f_vco_for_a_near_zero_hold_coefficient() {
        // A seed-1 benchmark device: this r2 rounds the passive lag's
        // high-Z coefficient to ~1e-14 /s instead of 0, where
        // `exp(a·dt) − 1` used to cancel the phase integral's filter
        // term and run the VCO phase backwards from t = 0.
        let mut cfg = PllConfig::paper_table3();
        let crate::config::FilterConfig::PassiveLag { ref mut r2, .. } = cfg.filter else {
            panic!("Table 3 is a passive lag");
        };
        *r2 = 36_904.516_190_372_77;
        let mut ev = EventDrivenCpPll::new_locked(&cfg);
        let mut beh = CpPll::new_locked(&cfg);
        ev.advance_to(0.01);
        beh.advance_to(0.01);
        let want = cfg.f_vco_hz() * 0.01;
        let got = ev.vco_phase_cycles();
        assert!(
            ((got - want) / want).abs() < 1e-9,
            "event phase {got} vs f_vco·t = {want}"
        );
        let reference = beh.vco_phase_cycles();
        assert!(
            ((got - reference) / reference).abs() < 1e-9,
            "event phase {got} vs CpPll {reference}"
        );
    }
}
