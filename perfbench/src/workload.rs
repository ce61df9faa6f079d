//! The three workloads, the closed loop that drives them through the public
//! API, the correctness checks on their outputs, and their end-to-end
//! metrics.
//!
//! Every workload is a closed loop with one client: the next experiment
//! starts when the previous one has finished. `campaign-smoke` hands its
//! runs to a fleet of two workers, which are two closed-loop clients.
//!
//! The workload seed picks the right-hand side (`RhsSpec::Random`) of the
//! single experiments and the campaign's fault-trace seeds; the library
//! only ever sees the generated inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use esrcg_campaign::{CampaignReport, CampaignRunner, CampaignSpec, FaultProcess};
use esrcg_cluster::{MetricsRollup, TraceConfig};
use esrcg_core::driver::{paper_failure_iteration, MatrixSource, RhsSpec};
use esrcg_core::{Experiment, RunReport, Strategy};
use esrcg_sparse::rng::SplitMix64;

use crate::host::{cpu_ticks, steal_pct};
use crate::spans::Spans;
use crate::stats::{median, timing_line};

/// Convergence tolerance of every run (the paper's 1e-8).
pub const RTOL: f64 = 1e-8;

/// Worst true relative residual `‖b − Ax‖/‖b‖` a converged run may end
/// with: the recurrence residual is below [`RTOL`], and rounding may let
/// the true one drift above it, but not by orders of magnitude.
pub const TRUE_RELRES_LIMIT: f64 = 100.0 * RTOL;

/// True when a true relative residual is within [`TRUE_RELRES_LIMIT`]
/// (false for NaN).
fn accurate(true_relres: f64) -> bool {
    true_relres <= TRUE_RELRES_LIMIT
}

/// Fleet workers of `campaign-smoke` (the host's two cores).
pub const FLEET_WORKERS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 2 grid at `Scale::Small`: rank-runtime bound.
    Table2Small,
    /// One large 2-rank solve and its failing twin: kernel and recovery
    /// bound.
    SolveLarge,
    /// `CampaignSpec::smoke()` through a two-worker fleet: per-run fixed
    /// costs dominate.
    CampaignSmoke,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Table2Small,
        Workload::SolveLarge,
        Workload::CampaignSmoke,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Small => "table2-small",
            Workload::SolveLarge => "solve-large",
            Workload::CampaignSmoke => "campaign-smoke",
        }
    }
}

/// An input seed derived from the workload seed; `stream` separates the
/// inputs one workload seed feeds.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One end-to-end or per-layer metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs attempted and failed, and why they failed.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Runs attempted (experiment runs; a campaign counts each of its runs).
    pub attempted: usize,
    /// Runs that panicked, errored, did not converge or failed a check.
    pub failed: usize,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// True when every run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

// ---------------------------------------------------------------------------
// Solver workloads: table2-small and solve-large
// ---------------------------------------------------------------------------

/// Where a run's failure is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Failure-free.
    None,
    /// φ ranks from `start` fail at the paper's worst case for C and T
    /// ([`paper_failure_iteration`]).
    PaperWorst {
        /// First failing rank.
        start: usize,
    },
    /// φ ranks from `start` fail at iteration C/2.
    Half {
        /// First failing rank.
        start: usize,
    },
}

/// One experiment of a solver workload.
#[derive(Clone, Debug)]
pub struct Job {
    /// Resilience strategy.
    pub strategy: Strategy,
    /// Redundancy level φ (ψ = φ ranks fail).
    pub phi: usize,
    /// Failure placement.
    pub fault: Fault,
}

impl Job {
    /// Report label, e.g. `esrp(T=10) phi=1 fail@start`.
    pub fn label(&self) -> String {
        let fault = match self.fault {
            Fault::None => "failure-free".to_string(),
            Fault::PaperWorst { start } | Fault::Half { start } => format!("fail@rank{start}"),
        };
        format!("{} phi={} {fault}", self.strategy, self.phi)
    }

    /// True when a failure is injected.
    pub fn fails(&self) -> bool {
        self.fault != Fault::None
    }
}

/// A workload of single experiments run one after another. Job 0 is the
/// non-resilient reference that fixes t₀ and the iteration count C.
pub struct SolverWorkload {
    /// The matrix, generated inside every `Experiment::run`.
    pub matrix: MatrixSource,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// Seed of the random right-hand side.
    pub rhs_seed: u64,
    /// The experiments of one cycle, in order.
    pub jobs: Vec<Job>,
}

impl SolverWorkload {
    /// The Table 2 grid of `paper table2 --scale small`: Emilia-like
    /// 8×8×96 on 16 ranks; the reference, then ESRP T ∈ {1, 10, 20} and
    /// IMCR T ∈ {10, 20} × φ ∈ {1, 3} × {failure-free, failure at rank 0,
    /// failure at rank 8}, failures at the paper's worst case.
    pub fn table2_small(seed: u64) -> Self {
        let n_ranks = 16;
        let mut jobs = vec![Job {
            strategy: Strategy::None,
            phi: 0,
            fault: Fault::None,
        }];
        let grid = [1, 10, 20]
            .map(|t| Strategy::Esrp { t })
            .into_iter()
            .chain([10, 20].map(|t| Strategy::Imcr { t }));
        for strategy in grid {
            for phi in [1, 3] {
                for fault in [
                    Fault::None,
                    Fault::PaperWorst { start: 0 },
                    Fault::PaperWorst { start: n_ranks / 2 },
                ] {
                    jobs.push(Job {
                        strategy,
                        phi,
                        fault,
                    });
                }
            }
        }
        SolverWorkload {
            matrix: MatrixSource::EmiliaLike {
                nx: 8,
                ny: 8,
                nz: 96,
            },
            n_ranks,
            rhs_seed: derive_seed(seed, 1),
            jobs,
        }
    }

    /// Poisson 3-D 64³ on 2 ranks, classic PCG: the reference, ESRP(20)
    /// φ = 1 failure-free, and its twin with rank 0 failing at C/2.
    pub fn solve_large(seed: u64) -> Self {
        let esrp = Strategy::Esrp { t: 20 };
        SolverWorkload {
            matrix: MatrixSource::Poisson3d {
                nx: 64,
                ny: 64,
                nz: 64,
            },
            n_ranks: 2,
            rhs_seed: derive_seed(seed, 1),
            jobs: vec![
                Job {
                    strategy: Strategy::None,
                    phi: 0,
                    fault: Fault::None,
                },
                Job {
                    strategy: esrp,
                    phi: 1,
                    fault: Fault::None,
                },
                Job {
                    strategy: esrp,
                    phi: 1,
                    fault: Fault::Half { start: 0 },
                },
            ],
        }
    }

    /// The experiment of job `j`, given the reference iteration count `c`.
    pub fn experiment(&self, j: usize, c: usize) -> Experiment {
        let job = &self.jobs[j];
        let e = Experiment::builder()
            .matrix(self.matrix.clone())
            .rhs(RhsSpec::Random {
                seed: self.rhs_seed,
            })
            .n_ranks(self.n_ranks)
            .rtol(RTOL)
            .strategy(job.strategy)
            .phi(job.phi);
        let t = job.strategy.interval().unwrap_or(1);
        match job.fault {
            Fault::None => e,
            Fault::PaperWorst { start } => {
                e.failure_at(paper_failure_iteration(c, t), start, job.phi)
            }
            Fault::Half { start } => e.failure_at((c / 2).max(1), start, job.phi),
        }
    }

    /// The failure-free job with the same strategy and φ as job `j`.
    pub fn twin(&self, j: usize) -> Option<usize> {
        let job = &self.jobs[j];
        self.jobs
            .iter()
            .position(|o| o.fault == Fault::None && o.strategy == job.strategy && o.phi == job.phi)
    }
}

/// What one run produced, reduced to what the metrics and checks need.
#[derive(Clone, Debug)]
pub struct Solve {
    /// Every rank reached the tolerance.
    pub converged: bool,
    /// Logical iterations.
    pub iterations: usize,
    /// Loop trips including redone iterations.
    pub trips: usize,
    /// Modeled seconds.
    pub modeled_s: f64,
    /// Final true relative residual.
    pub true_relres: f64,
    /// Modeled recovery seconds, summed over events.
    pub recovery_s: f64,
    /// Inner-solve iterations, summed over events.
    pub inner_iterations: usize,
    /// Recovery events.
    pub recoveries: usize,
    /// Hash of the solution's bits.
    pub x_hash: u64,
    /// Flight-recorder rollup (traced runs only).
    pub metrics: Option<MetricsRollup>,
}

impl Solve {
    fn of(r: &RunReport) -> Self {
        // FNV-1a over the solution bits: equal hashes for repeated runs are
        // the bitwise-repeat check on the iterate itself.
        let x_hash = r.x.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        Solve {
            converged: r.converged,
            iterations: r.iterations,
            trips: r.total_loop_trips,
            modeled_s: r.modeled_time,
            true_relres: r.true_relres,
            recovery_s: r.recoveries.iter().map(|e| e.recovery_time).sum(),
            inner_iterations: r.recoveries.iter().map(|e| e.inner_iterations).sum(),
            recoveries: r.recoveries.len(),
            x_hash,
            metrics: r.metrics.clone(),
        }
    }

    /// Every modeled output, bit for bit.
    fn fingerprint(&self) -> [u64; 8] {
        [
            self.converged as u64,
            self.iterations as u64,
            self.trips as u64,
            self.modeled_s.to_bits(),
            self.true_relres.to_bits(),
            self.recovery_s.to_bits(),
            self.inner_iterations as u64,
            self.x_hash,
        ]
    }
}

/// One timed experiment.
#[derive(Clone, Debug)]
pub struct Record {
    /// Job index.
    pub job: usize,
    /// Wall of `Experiment::run`, set-up included (s).
    pub call_s: f64,
    /// `RunReport::wall_time`: the SPMD solve alone (s).
    pub solve_s: f64,
    /// Share of CPU time the hypervisor stole during the call (%).
    pub steal_pct: f64,
    /// The run's outputs, or its error or panic message.
    pub outcome: Result<Solve, String>,
}

/// Runs one cycle of `w` (every job once, in order) under `trace`.
pub fn run_cycle(
    w: &SolverWorkload,
    trace: TraceConfig,
    spans: &mut Spans,
    cycle: usize,
) -> Vec<Record> {
    spans.time("cycle", cycle, |spans| {
        let mut c = 0;
        let mut records = Vec::with_capacity(w.jobs.len());
        for j in 0..w.jobs.len() {
            let experiment = w.experiment(j, c).trace(trace);
            let record = spans.time(&w.jobs[j].label(), cycle, |_| {
                let ticks = cpu_ticks();
                let started = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| experiment.run()));
                let call_s = started.elapsed().as_secs_f64();
                let steal_pct = steal_pct(ticks, cpu_ticks());
                let (solve_s, outcome) = match result {
                    Ok(Ok(r)) => (r.wall_time.as_secs_f64(), Ok(Solve::of(&r))),
                    Ok(Err(e)) => (0.0, Err(e)),
                    Err(p) => (0.0, Err(format!("panic: {}", panic_message(p)))),
                };
                Record {
                    job: j,
                    call_s,
                    solve_s,
                    steal_pct,
                    outcome,
                }
            });
            if j == 0 {
                c = record.outcome.as_ref().map_or(0, |s| s.iterations);
            }
            records.push(record);
        }
        records
    })
}

/// Checks every cycle's records: each run converges to the stated
/// accuracy, each failure run recovers, each ESR/ESRP failure run takes as
/// many iterations as its failure-free twin, and every cycle repeats the
/// first one's modeled outputs bit for bit. On `table2-small`, ESRP's
/// failure-free overhead must not increase with T.
pub fn check_solver(w: &SolverWorkload, cycles: &[Vec<Record>]) -> Verdict {
    let mut v = Verdict::default();
    for (k, cycle) in cycles.iter().enumerate() {
        for rec in cycle {
            v.attempted += 1;
            let job = &w.jobs[rec.job];
            let what = format!("cycle {k} job {} ({})", rec.job, job.label());
            let s = match &rec.outcome {
                Ok(s) => s,
                Err(e) => {
                    v.fail(format!("{what}: {e}"));
                    continue;
                }
            };
            let twin = w.twin(rec.job).and_then(|t| cycle[t].outcome.as_ref().ok());
            let first = cycles[0][rec.job].outcome.as_ref().ok();
            let problem = if !s.converged {
                Some("did not converge".to_string())
            } else if !accurate(s.true_relres) {
                Some(format!(
                    "true relres {:e} above {TRUE_RELRES_LIMIT:e}",
                    s.true_relres
                ))
            } else if job.fails() && s.recoveries == 0 {
                Some("the injected failure was never recovered".into())
            } else if job.fails()
                && job.strategy.uses_aspmv()
                && twin.is_some_and(|t| t.iterations != s.iterations)
            {
                Some(format!(
                    "{} iterations, its failure-free twin {}",
                    s.iterations,
                    twin.map_or(0, |t| t.iterations)
                ))
            } else if first.is_some_and(|f| f.fingerprint() != s.fingerprint()) {
                Some("modeled outputs differ from cycle 0".into())
            } else {
                None
            };
            if let Some(p) = problem {
                v.fail(format!("{what}: {p}"));
            }
        }
    }
    // ESRP's storage cost falls as T grows: the failure-free overhead must
    // not increase with T (table2-small only; solve-large has one T).
    if let Some(cycle) = cycles.first() {
        let t0 = cycle[0].outcome.as_ref().map_or(f64::NAN, |s| s.modeled_s);
        for phi in [1, 3] {
            let ff: Vec<(usize, f64)> = cycle
                .iter()
                .filter_map(|r| {
                    let job = &w.jobs[r.job];
                    match (job.strategy, job.fault, r.outcome.as_ref()) {
                        (Strategy::Esrp { t }, Fault::None, Ok(s)) if job.phi == phi => {
                            Some((t, (s.modeled_s - t0) / t0))
                        }
                        _ => None,
                    }
                })
                .collect();
            for pair in ff.windows(2) {
                if pair[1].1 > pair[0].1 {
                    v.fail(format!(
                        "ESRP phi={phi}: failure-free overhead grows from T={} ({:.4}) to T={} ({:.4})",
                        pair[0].0, pair[0].1, pair[1].0, pair[1].1
                    ));
                }
            }
        }
    }
    v
}

fn pct(x: f64) -> f64 {
    100.0 * x
}

/// Modeled metrics of one cycle (they repeat bit for bit across cycles).
struct Modeled {
    modeled_s: f64,
    ff_overhead_pct: f64,
    fail_overhead_pct: f64,
    recovery_pct: f64,
    cg_iterations: f64,
    true_relres_max: f64,
}

impl Modeled {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("modeled_s", self.modeled_s, "s"),
            metric("ff_overhead_pct", self.ff_overhead_pct, "%"),
            metric("fail_overhead_pct", self.fail_overhead_pct, "%"),
            metric("recovery_pct", self.recovery_pct, "%"),
            metric("cg_iterations", self.cg_iterations, "count"),
            metric("true_relres_max", self.true_relres_max, "1"),
        ]
    }
}

fn solver_modeled(w: &SolverWorkload, cycle: &[Record]) -> Modeled {
    let solves: Vec<(&Job, &Solve)> = cycle
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|s| (&w.jobs[r.job], s)))
        .collect();
    let t0 = cycle[0].outcome.as_ref().map_or(f64::NAN, |s| s.modeled_s);
    let over = |fails: bool, f: &dyn Fn(&Solve) -> f64| -> f64 {
        let v: Vec<f64> = solves
            .iter()
            .filter(|(j, _)| j.strategy != Strategy::None && j.fails() == fails)
            .map(|(_, s)| f(s))
            .collect();
        median(&v)
    };
    Modeled {
        modeled_s: solves.iter().map(|(_, s)| s.modeled_s).sum(),
        ff_overhead_pct: pct(over(false, &|s| (s.modeled_s - t0) / t0)),
        fail_overhead_pct: pct(over(true, &|s| (s.modeled_s - t0) / t0)),
        recovery_pct: pct(over(true, &|s| s.recovery_s / t0)),
        cg_iterations: solves.iter().map(|(_, s)| s.iterations as f64).sum(),
        true_relres_max: solves
            .iter()
            .map(|(_, s)| s.true_relres)
            .fold(0.0, f64::max),
    }
}

/// Wall figures of a set of solver cycles.
pub struct SolverWall {
    /// Runs per second of wall.
    pub runs_per_s: f64,
    /// `RunReport::wall_time` over loop trips (µs).
    pub iter_wall_us: f64,
    /// Solve wall over modeled seconds.
    pub sim_slowdown: f64,
}

/// Wall figures over the jobs `keep` selects, from `records` grouped in
/// any way (whole cycles, or each job's calm calls). Each job's wall is
/// its median over its records, so one call disturbed by the host does not
/// move the figures; trips and modeled seconds repeat in every call.
pub fn solver_wall(records: &[Vec<Record>], keep: impl Fn(usize) -> bool) -> SolverWall {
    let all: Vec<&Record> = records.iter().flatten().collect();
    let jobs = all.iter().map(|r| r.job + 1).max().unwrap_or(0);
    let (mut call, mut solve, mut trips, mut modeled, mut runs) = (0.0, 0.0, 0usize, 0.0, 0);
    for j in (0..jobs).filter(|&j| keep(j)) {
        let calls: Vec<&Record> = all.iter().copied().filter(|r| r.job == j).collect();
        let Some(Ok(o)) = calls.first().map(|r| &r.outcome) else {
            continue;
        };
        let job_median =
            |f: &dyn Fn(&Record) -> f64| median(&calls.iter().map(|r| f(r)).collect::<Vec<_>>());
        call += job_median(&|r| r.call_s);
        solve += job_median(&|r| r.solve_s);
        trips += o.trips;
        modeled += o.modeled_s;
        runs += 1;
    }
    SolverWall {
        runs_per_s: runs as f64 / call,
        iter_wall_us: 1e6 * solve / trips as f64,
        sim_slowdown: solve / modeled,
    }
}

/// End-to-end metrics of a solver workload, plus the timing report lines.
///
/// The wall figures come from `timed` (records grouped in any way), the
/// modeled ones from the complete cycle `first`.
pub fn solver_e2e(
    w: &SolverWorkload,
    first: &[Record],
    timed: &[Vec<Record>],
) -> (Vec<Metric>, Vec<String>) {
    let all = || timed.iter().flatten();
    let calls = |fails: bool| -> Vec<f64> {
        all()
            .filter(|r| w.jobs[r.job].strategy != Strategy::None && w.jobs[r.job].fails() == fails)
            .map(|r| r.call_s)
            .collect()
    };
    let ff = calls(false);
    let fail = calls(true);
    let setup: Vec<f64> = all()
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.call_s - r.solve_s)
        .collect();
    let wall = solver_wall(timed, |_| true);
    let mut metrics = vec![
        metric("time_to_solution_s", median(&ff), "s"),
        metric("time_to_solution_fail_s", median(&fail), "s"),
        metric("runs_per_s", wall.runs_per_s, "1/s"),
        metric("setup_s", median(&setup), "s"),
        metric("iter_wall_us", wall.iter_wall_us, "us"),
        metric("sim_slowdown", wall.sim_slowdown, "1"),
    ];
    metrics.extend(solver_modeled(w, first).metrics());
    let lines = vec![
        timing_line("time_to_solution_s", &ff, "s"),
        timing_line("time_to_solution_fail_s", &fail, "s"),
        timing_line("setup_s", &setup, "s"),
    ];
    (metrics, lines)
}

// ---------------------------------------------------------------------------
// campaign-smoke
// ---------------------------------------------------------------------------

/// `CampaignSpec::smoke()` with its two fault-trace seeds drawn from the
/// workload seed. The problem keeps the smoke spec's right-hand side: on a
/// 256-row problem the final residual, and so `true_relres_max`, swings by
/// a third from one right-hand side to the next.
pub fn campaign_spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.seeds = vec![derive_seed(seed, 2), derive_seed(seed, 3)];
    spec
}

/// Set-ups timed per campaign.
const CAMPAIGN_SETUP_REPS: usize = 9;

/// One timed campaign.
pub struct CampaignRecord {
    /// Spec validation, enumeration and matrix materialisation, timed
    /// before the fleet starts (s).
    pub setup_s: f64,
    /// Wall of `CampaignRunner::run` (s).
    pub wall_s: f64,
    /// The report, or the campaign's error.
    pub outcome: Result<CampaignReport, String>,
}

/// Runs the campaign once through a fleet of `workers`.
pub fn run_campaign(
    spec: &CampaignSpec,
    workers: usize,
    spans: &mut Spans,
    cycle: usize,
) -> CampaignRecord {
    spans.time("campaign", cycle, |spans| {
        // Sub-millisecond, so the median of several set-ups.
        let setup_s = spans.time("campaign.setup", cycle, |_| {
            let samples: Vec<f64> = (0..CAMPAIGN_SETUP_REPS)
                .map(|_| {
                    let started = Instant::now();
                    let built = spec.enumerate().and_then(|e| {
                        let matrices = spec
                            .problems
                            .iter()
                            .map(|p| p.source.build_arc())
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok((e.planned_runs, matrices))
                    });
                    std::hint::black_box(built.ok());
                    started.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        });
        let runner = CampaignRunner::new(workers);
        spans.time("campaign.fleet", cycle, |_| {
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(spec)))
                .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p))));
            CampaignRecord {
                setup_s,
                wall_s: started.elapsed().as_secs_f64(),
                outcome,
            }
        })
    })
}

/// One measured campaign run, read back from the report's run-trace lines.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Modeled reference time of the run's matched baseline.
    pub t0: f64,
    /// Logical iterations.
    pub iterations: usize,
    /// Modeled seconds.
    pub modeled_s: f64,
    /// Modeled recovery seconds.
    pub recovery_s: f64,
    /// Name of the cell's fault process.
    pub process: String,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// The report's measured runs, each paired with its baseline's t₀.
pub fn campaign_runs(report: &CampaignReport) -> Result<Vec<CampaignRun>, String> {
    report
        .run_traces
        .iter()
        .map(|line| {
            let num = |key: &str| -> Result<f64, String> {
                field(line, key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("run trace without \"{key}\": {line}"))
            };
            let cell = &report.cells[num("cell")? as usize];
            let base = report
                .baselines
                .iter()
                .find(|b| {
                    b.problem == cell.problem
                        && b.n_ranks == cell.n_ranks
                        && b.variant == cell.variant
                        && b.cost_model == cell.cost_model
                })
                .ok_or("cell without a baseline")?;
            Ok(CampaignRun {
                t0: base.t0,
                iterations: num("iterations")? as usize,
                modeled_s: num("modeled_seconds")?,
                recovery_s: num("recovery_seconds")?,
                process: cell.process.clone(),
            })
        })
        .collect()
}

/// Measured runs plus baselines of a campaign report.
pub fn campaign_run_count(report: &CampaignReport) -> usize {
    report.planned_runs + report.baselines.len()
}

/// The campaign's baselines solved directly, one `Experiment::run` each:
/// the campaign reports no residuals, so these give `true_relres_max`,
/// and their t₀ and C must equal the report's bit for bit.
pub fn campaign_baselines(spec: &CampaignSpec) -> Vec<(String, String, Result<RunReport, String>)> {
    let mut out = Vec::new();
    for p in &spec.problems {
        for &n_ranks in &spec.rank_counts {
            for &variant in &spec.variants {
                for &cost in &spec.cost_models {
                    let r = Experiment::builder()
                        .matrix(p.source.clone())
                        .rhs(p.rhs)
                        .n_ranks(n_ranks)
                        .variant(variant)
                        .rtol(spec.rtol)
                        .max_iters(spec.max_iters)
                        .cost_model(cost)
                        .run();
                    out.push((variant.name().to_string(), cost.name().to_string(), r));
                }
            }
        }
    }
    out
}

/// Checks every campaign: no errors, no convergence failures, the same
/// report bytes as the first campaign, and baselines that match the
/// directly solved ones.
pub fn check_campaign(
    records: &[CampaignRecord],
    baselines: &[(String, String, Result<RunReport, String>)],
) -> Verdict {
    let mut v = Verdict::default();
    let bytes = |r: &CampaignReport| format!("{}{}", r.to_json(), r.run_traces.join("\n"));
    let first = records
        .first()
        .and_then(|r| r.outcome.as_ref().ok())
        .map(bytes);
    for (k, rec) in records.iter().enumerate() {
        let report = match &rec.outcome {
            Ok(r) => r,
            Err(e) => {
                v.attempted += 1;
                v.fail(format!("campaign {k}: {e}"));
                continue;
            }
        };
        v.attempted += campaign_run_count(report);
        for cell in &report.cells {
            for e in &cell.errors {
                v.fail(format!(
                    "campaign {k} cell {} {}: {e}",
                    cell.strategy, cell.process
                ));
            }
            for _ in 0..cell.convergence_failures {
                v.fail(format!(
                    "campaign {k} cell {} {}: a run did not converge",
                    cell.strategy, cell.process
                ));
            }
        }
        if first.as_deref() != Some(bytes(report).as_str()) {
            v.fail(format!("campaign {k}: report differs from campaign 0"));
        }
        if let Err(e) = campaign_runs(report) {
            v.fail(format!("campaign {k}: {e}"));
        }
    }
    let report = records.first().and_then(|r| r.outcome.as_ref().ok());
    for (variant, cost, run) in baselines {
        v.attempted += 1;
        let what = format!("direct baseline {variant}/{cost}");
        match run {
            Err(e) => v.fail(format!("{what}: {e}")),
            Ok(r) if !r.converged || !accurate(r.true_relres) => v.fail(format!(
                "{what}: converged={} true relres {:e}",
                r.converged, r.true_relres
            )),
            Ok(r) => {
                let matches = report.is_some_and(|rep| {
                    rep.baselines.iter().any(|b| {
                        &b.variant == variant
                            && &b.cost_model == cost
                            && b.t0.to_bits() == r.modeled_time.to_bits()
                            && b.c == r.iterations
                    })
                });
                if !matches {
                    v.fail(format!(
                        "{what}: t0 or C differs from the campaign's baseline"
                    ));
                }
            }
        }
    }
    v
}

/// Iterations executed (redone ones included) and modeled seconds of one
/// campaign, baselines included. An s-step run marks one loop trip per
/// block, so trips are counted as iterations plus wasted iterations.
pub fn campaign_totals(report: &CampaignReport, runs: &[CampaignRun]) -> (usize, usize, f64) {
    let iterations = runs.iter().map(|r| r.iterations).sum::<usize>()
        + report.baselines.iter().map(|b| b.c).sum::<usize>();
    let wasted = report
        .cells
        .iter()
        .map(|c| c.wasted_iterations)
        .sum::<usize>();
    let modeled = runs.iter().map(|r| r.modeled_s).sum::<f64>()
        + report.baselines.iter().map(|b| b.t0).sum::<f64>();
    (iterations + wasted, iterations, modeled)
}

/// End-to-end metrics of `campaign-smoke`, plus the timing report lines.
///
/// A campaign's runs are not observable one by one from outside
/// `CampaignRunner::run`, so both `time_to_solution*` metrics are the wall
/// of one campaign, and `iter_wall_us` and `sim_slowdown` charge the
/// fleet's worker-seconds (set-up included) to its loop trips and modeled
/// seconds.
pub fn campaign_e2e(
    records: &[CampaignRecord],
    baselines: &[(String, String, Result<RunReport, String>)],
) -> (Vec<Metric>, Vec<String>) {
    let ok: Vec<(&CampaignRecord, &CampaignReport)> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|rep| (r, rep)))
        .collect();
    let walls: Vec<f64> = ok.iter().map(|(r, _)| r.wall_s).collect();
    let setup: Vec<f64> = records.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = ok
        .iter()
        .map(|(r, rep)| campaign_run_count(rep) as f64 / r.wall_s)
        .collect();
    let runs = ok
        .first()
        .and_then(|(_, rep)| campaign_runs(rep).ok())
        .unwrap_or_default();
    let (trips, iterations, modeled) = ok
        .first()
        .map_or((0, 0, f64::NAN), |(_, rep)| campaign_totals(rep, &runs));
    let worker_s = median(&walls) * FLEET_WORKERS as f64;
    // The paper's overhead columns: failure-free runs, and runs under its
    // worst-case failure placement (stochastic traces vary with the seed).
    let over = |process: FaultProcess, f: &dyn Fn(&CampaignRun) -> f64| -> f64 {
        let v: Vec<f64> = runs
            .iter()
            .filter(|r| r.process == process.name())
            .map(f)
            .collect();
        median(&v)
    };
    let true_relres_max = baselines
        .iter()
        .filter_map(|(_, _, r)| r.as_ref().ok().map(|r| r.true_relres))
        .fold(0.0, f64::max);
    let mut metrics = vec![
        metric("time_to_solution_s", median(&walls), "s"),
        metric("time_to_solution_fail_s", median(&walls), "s"),
        metric("runs_per_s", median(&rates), "1/s"),
        metric("setup_s", median(&setup), "s"),
        metric("iter_wall_us", 1e6 * worker_s / trips as f64, "us"),
        metric("sim_slowdown", worker_s / modeled, "1"),
    ];
    metrics.extend(
        Modeled {
            modeled_s: modeled,
            ff_overhead_pct: pct(over(FaultProcess::None, &|r| (r.modeled_s - r.t0) / r.t0)),
            fail_overhead_pct: pct(over(FaultProcess::PaperWorstCase, &|r| {
                (r.modeled_s - r.t0) / r.t0
            })),
            recovery_pct: pct(over(FaultProcess::PaperWorstCase, &|r| r.recovery_s / r.t0)),
            cg_iterations: iterations as f64,
            true_relres_max,
        }
        .metrics(),
    );
    let lines = vec![
        timing_line("campaign wall", &walls, "s"),
        timing_line("runs_per_s (per campaign)", &rates, "1/s"),
        timing_line("setup_s", &setup, "s"),
    ];
    (metrics, lines)
}
