//! The `eco_session` client: a resident `DetectionService`, one session
//! per design, and one client thread keeping a fixed number of requests
//! outstanding in a closed loop.
//!
//! Each session applies the cuts of its own first-round correction plan
//! one at a time (`ApplyCuts`, a write) and the client interleaves warm
//! `Detect` reads. A session's request sequence is fixed, so every answer
//! belongs to a known layout state and can be checked after the timed
//! window against a direct detection of that state.

use crate::calib::Calibrator;
use crate::metrics::RunResult;
use crate::oracle::digest;
use crate::{detect_config, service_workers, ECO_OUTSTANDING, PIPELINE_PARALLELISM};
use aapsm_core::{
    detect_conflicts, plan_correction, RedetectEngine, RedetectStats, SharedSolveCache,
};
use aapsm_geom::Axis;
use aapsm_layout::{apply_cuts, extract_phase_geometry, DesignRules, Layout, SpaceCut};
use aapsm_service::{DetectionService, Request, ResponseKind, ServiceConfig, SessionId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Per-session inputs, computed once per run.
#[derive(Clone, Debug)]
pub struct Session {
    /// The design the session opens on.
    pub design: Layout,
    /// First-round plan cuts, ordered so that applying them one at a time
    /// (highest position first per axis) composes to the whole plan.
    pub cuts: Vec<SpaceCut>,
    /// Digest of the design's direct detection.
    pub initial_digest: u64,
    /// Total weight of the design's direct detection.
    pub initial_weight: i64,
    /// Bounding-box area increase of the whole plan, in %.
    pub area_increase_pct: f64,
    /// Cover components of the plan.
    pub cover_components: usize,
    /// Cover components proven optimal.
    pub cover_proven: usize,
}

/// Detects and plans every design.
pub fn prepare(designs: Vec<Layout>, rules: &DesignRules) -> Vec<Session> {
    let config = detect_config();
    designs
        .into_iter()
        .map(|design| {
            let geom = extract_phase_geometry(&design, rules);
            let report = detect_conflicts(&geom, &config);
            let plan = plan_correction(
                &geom,
                &report.conflicts,
                rules,
                &crate::correction_options(),
            );
            let mut cuts = plan.cuts.clone();
            cuts.sort_by_key(|c| (matches!(c.axis, Axis::Y), std::cmp::Reverse(c.position)));
            let before = design.stats().bbox_area;
            let after = apply_cuts(&design, &plan.cuts).stats().bbox_area;
            Session {
                initial_digest: digest(&report.conflicts),
                initial_weight: report.total_weight(),
                area_increase_pct: (after - before) as f64 / before.max(1) as f64 * 100.0,
                cover_components: plan.cover_components,
                cover_proven: plan.cover_optimal_components,
                cuts,
                design,
            }
        })
        .collect()
}

/// A running service with one open, warm session per design.
pub struct Eco {
    /// The service.
    pub service: DetectionService,
    /// Session handles, parallel to the prepared sessions.
    pub ids: Vec<SessionId>,
}

/// Starts the service, opens every session and warms it with one
/// `Detect`, checked against the session's direct detection.
pub fn start(sessions: &[Session], rules: &DesignRules, result: &mut RunResult) -> Option<Eco> {
    let config = ServiceConfig {
        workers: service_workers(),
        request_parallelism: PIPELINE_PARALLELISM,
        detect: detect_config(),
        ..ServiceConfig::new(*rules)
    };
    let service = match DetectionService::start(config) {
        Ok(s) => s,
        Err(e) => {
            result.fail(format!("service start: {e}"));
            return None;
        }
    };
    let mut ids = Vec::with_capacity(sessions.len());
    for (i, s) in sessions.iter().enumerate() {
        let id = match service.open_session(s.design.clone()) {
            Ok(id) => id,
            Err(e) => {
                result.fail(format!("open session {i}: {e}"));
                return None;
            }
        };
        match service.request(id, Request::Detect) {
            Ok(r) => match r.kind {
                ResponseKind::Detection { conflicts, .. }
                    if digest(&conflicts) == s.initial_digest => {}
                _ => result.fail(format!(
                    "session {i}: warm-up detection differs from direct"
                )),
            },
            Err(e) => result.fail(format!("session {i}: warm-up detection: {e}")),
        }
        ids.push(id);
    }
    Some(Eco { service, ids })
}

/// Request kinds of the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A warm `Detect` read.
    Detect,
    /// A single-cut `ApplyCuts` write.
    ApplyCuts,
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Submission order.
    pub seq: usize,
    /// Session index.
    pub session: usize,
    /// Request kind.
    pub kind: Kind,
    /// Cuts the session has applied once this request committed.
    pub state: usize,
    /// Submission instant.
    pub start: Instant,
    /// Instant the client received the answer.
    pub end: Instant,
    /// Digest of the answered conflict set.
    pub digest: u64,
    /// Queue depth at admission.
    pub depth: usize,
    /// Engine statistics of the round.
    pub stats: RedetectStats,
}

impl Answer {
    /// Client-observed latency in milliseconds.
    pub fn ms(&self) -> f64 {
        crate::ms(self.end - self.start)
    }
}

/// Warm `Detect` reads a session issues after each single-cut write.
pub const READS_PER_CUT: usize = 2;

/// Where each session's fixed request sequence stands.
#[derive(Clone, Debug, Default)]
pub struct Cursors {
    step: Vec<usize>,
    applied: Vec<usize>,
}

impl Cursors {
    /// Fresh cursors for `n` sessions.
    pub fn new(n: usize) -> Cursors {
        Cursors {
            step: vec![0; n],
            applied: vec![0; n],
        }
    }

    /// The next request of session `s`: one cut, then [`READS_PER_CUT`]
    /// `Detect` reads, while cuts remain; only reads afterwards.
    fn next(&mut self, s: usize, sessions: &[Session]) -> (Kind, Request, usize) {
        let step = self.step[s];
        self.step[s] += 1;
        let k = self.applied[s];
        if step.is_multiple_of(READS_PER_CUT + 1) && k < sessions[s].cuts.len() {
            self.applied[s] += 1;
            (
                Kind::ApplyCuts,
                Request::ApplyCuts(vec![sessions[s].cuts[k]]),
                k + 1,
            )
        } else {
            (Kind::Detect, Request::Detect, k)
        }
    }
}

/// Runs the closed loop until `stop(answers, elapsed)` says so, then
/// drains the requests still outstanding. Errors and degraded answers are
/// recorded as failures. With a calibrator, the loop drains and samples
/// the kernel whenever a sample is due; the returned window excludes
/// those samples.
pub fn drive(
    eco: &Eco,
    sessions: &[Session],
    cursors: &mut Cursors,
    result: &mut RunResult,
    mut calib: Option<&mut Calibrator>,
    mut stop: impl FnMut(usize, Duration) -> bool,
) -> (Vec<Answer>, Duration) {
    let n = sessions.len();
    let mut answers = Vec::new();
    let mut inflight = VecDeque::new();
    let mut busy = vec![false; n];
    let mut next_session = 0usize;
    let mut seq = 0usize;
    let t0 = Instant::now();
    let spent0 = calib.as_ref().map_or(Duration::ZERO, |c| c.spent());
    let mut stopping = false;
    loop {
        // A due calibration sample drains the requests in flight first.
        let pause = !stopping && calib.as_ref().is_some_and(|c| c.due());
        while !stopping && !pause && inflight.len() < ECO_OUTSTANDING.min(n) {
            while busy[next_session] {
                next_session = (next_session + 1) % n;
            }
            let s = next_session;
            next_session = (next_session + 1) % n;
            let (kind, request, state) = cursors.next(s, sessions);
            let start = Instant::now();
            result.attempted += 1;
            match eco.service.submit(eco.ids[s], request) {
                Ok(ticket) => {
                    busy[s] = true;
                    inflight.push_back((seq, s, kind, state, start, ticket));
                }
                Err(e) => result.fail(format!("session {s}: submit: {e}")),
            }
            seq += 1;
        }
        let Some((seq, s, kind, state, start, ticket)) = inflight.pop_front() else {
            match calib.as_deref_mut() {
                Some(c) if pause => {
                    c.tick();
                    continue;
                }
                _ => break,
            }
        };
        let reply = ticket.wait();
        let end = Instant::now();
        busy[s] = false;
        match reply {
            Ok(response) => {
                let degraded = response.degraded();
                match response.kind {
                    ResponseKind::Detection {
                        conflicts, stats, ..
                    } if !degraded => answers.push(Answer {
                        seq,
                        session: s,
                        kind,
                        state,
                        start,
                        end,
                        digest: digest(&conflicts),
                        depth: response.queue_depth_at_admission,
                        stats,
                    }),
                    _ => result.fail(format!("session {s}: degraded or unexpected answer")),
                }
            }
            Err(e) => result.fail(format!("session {s}: {e}")),
        }
        stopping = stopping || stop(answers.len(), t0.elapsed());
    }
    let paused = calib.map_or(Duration::ZERO, |c| c.spent() - spent0);
    (answers, t0.elapsed() - paused)
}

/// Checks every answer against a direct detection of its session's layout
/// state, and each session's committed layout against the cuts it was
/// sent. Mismatches are recorded as failures. Sessions are checked on
/// [`crate::service_workers`] threads once the timed window is over.
pub fn verify(
    eco: &Eco,
    sessions: &[Session],
    answers: &[Answer],
    rules: &DesignRules,
    result: &mut RunResult,
) {
    let mut committed = Vec::with_capacity(sessions.len());
    for (s, id) in eco.ids.iter().enumerate() {
        match eco.service.session_layout(*id) {
            Ok(layout) => committed.push(Some(layout)),
            Err(e) => {
                result.fail(format!("session {s}: {e}"));
                committed.push(None);
            }
        }
    }
    let workers = service_workers();
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let committed = &committed;
                scope.spawn(move || {
                    (w..sessions.len())
                        .step_by(workers)
                        .flat_map(|s| {
                            verify_session(s, &sessions[s], answers, &committed[s], rules)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["oracle thread panicked".into()])
            })
            .collect()
    });
    for f in failures {
        result.fail(f);
    }
}

fn verify_session(
    s: usize,
    session: &Session,
    answers: &[Answer],
    committed: &Option<Layout>,
    rules: &DesignRules,
) -> Vec<String> {
    let config = detect_config();
    let mut failures = Vec::new();
    let mut mine: Vec<&Answer> = answers.iter().filter(|a| a.session == s).collect();
    mine.sort_by_key(|a| a.state);
    let mut layout = session.design.clone();
    let mut state = 0usize;
    let mut expected = session.initial_digest;
    for a in mine {
        while state < a.state {
            layout = apply_cuts(&layout, &[session.cuts[state]]);
            state += 1;
            let geom = extract_phase_geometry(&layout, rules);
            expected = digest(&detect_conflicts(&geom, &config).conflicts);
        }
        if a.digest != expected {
            failures.push(format!(
                "session {s}: answer after {} cuts differs from direct detection",
                a.state
            ));
        }
    }
    if committed.as_ref().is_some_and(|c| *c != layout) {
        failures.push(format!(
            "session {s}: committed layout differs from its cuts"
        ));
    }
    failures
}

/// Replays `answers` in submission order on bare `RedetectEngine`s (one per
/// session, sharing one solve cache of the service's capacity) and returns
/// each request's replay time in ms, parallel to `answers`.
pub fn replay(sessions: &[Session], answers: &[Answer], rules: &DesignRules) -> Vec<f64> {
    let cache = SharedSolveCache::new(aapsm_core::SolveCache::DEFAULT_CAPACITY);
    let mut engines: Vec<Option<(RedetectEngine, Layout)>> = vec![None; sessions.len()];
    let mut order: Vec<usize> = (0..answers.len()).collect();
    order.sort_by_key(|&i| answers[i].seq);
    let mut out = vec![0.0; answers.len()];
    for i in order {
        let a = &answers[i];
        let (engine, layout) = engines[a.session].get_or_insert_with(|| {
            let mut e =
                RedetectEngine::with_tiles(*rules, detect_config(), crate::tiles_per_axis());
            e.set_shared_cache(cache.clone());
            let _ = e.detect_full(&sessions[a.session].design);
            (e, sessions[a.session].design.clone())
        });
        let t = Instant::now();
        match a.kind {
            Kind::Detect => {
                let _ = engine.redetect_after_correction(layout, &[]);
            }
            Kind::ApplyCuts => {
                let cut = [sessions[a.session].cuts[a.state - 1]];
                let modified = apply_cuts(layout, &cut);
                let _ = modified.sanitize(rules);
                let _ = engine.redetect_after_correction(&modified, &cut);
                *layout = modified;
            }
        }
        out[i] = crate::ms(t.elapsed());
    }
    out
}

/// QoR of the sessions' plans: mean initial conflict weight, mean area
/// increase and the proven share of cover components.
pub fn qor(sessions: &[Session]) -> (f64, f64, f64) {
    let n = sessions.len().max(1) as f64;
    let weight = sessions
        .iter()
        .map(|s| s.initial_weight as f64)
        .sum::<f64>()
        / n;
    let area = sessions.iter().map(|s| s.area_increase_pct).sum::<f64>() / n;
    let comps: usize = sessions.iter().map(|s| s.cover_components).sum();
    let proven: usize = sessions.iter().map(|s| s.cover_proven).sum();
    (weight, area, proven as f64 / comps.max(1) as f64)
}

/// Shuts the service down, draining what is in flight.
pub fn stop(eco: Eco, result: &mut RunResult) {
    if !eco
        .service
        .shutdown(Duration::from_secs(30))
        .within_deadline
    {
        result.fail("service shutdown missed its drain deadline".into());
    }
}
