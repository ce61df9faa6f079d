//! End-to-end, layer-by-layer wall-clock benchmark of the esrcg workspace.
//!
//! ```text
//! perfbench --workload <table2-small|solve-large|campaign-smoke>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all tracing off;
//! `--trace 1` runs the per-layer probes and the traced pass instead. Both
//! check every output; the last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! when every check passed, 1 when one failed and 2 on bad arguments. See
//! `README.md` in this directory for the workloads and metrics.

mod host;
mod layers;
mod spans;
mod stats;
mod workload;

use std::time::Instant;

use esrcg_cluster::{MetricsRollup, Phase, TraceConfig};
use esrcg_core::driver::{MatrixSource, RhsSpec};
use esrcg_core::Strategy;

use host::{cpu_ticks, peak_rss_mb, steal_pct, with_thread_peak, HostFacts};
use layers::{probe_layers, LayerTimes, Probe};
use spans::Spans;
use stats::{calmer_half, median};
use workload::{
    campaign_baselines, campaign_e2e, campaign_runs, campaign_spec, campaign_totals,
    check_campaign, check_solver, derive_seed, metric, run_campaign, run_cycle, solver_e2e,
    solver_wall, CampaignRecord, Metric, Record, SolverWorkload, Verdict, Workload, FLEET_WORKERS,
};

const USAGE: &str = "usage: perfbench --workload <table2-small|solve-large|campaign-smoke> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    verdict: Verdict,
    lines: Vec<String>,
}

fn solver_workload(w: Workload, seed: u64) -> SolverWorkload {
    match w {
        Workload::Table2Small => SolverWorkload::table2_small(seed),
        Workload::SolveLarge => SolverWorkload::solve_large(seed),
        Workload::CampaignSmoke => unreachable!("campaign-smoke is not a solver workload"),
    }
}

/// The representative resilient configuration the layer probes replay.
fn probe(w: Workload, seed: u64) -> Probe {
    let (matrix, n_ranks, t) = match w {
        Workload::Table2Small => (
            MatrixSource::EmiliaLike {
                nx: 8,
                ny: 8,
                nz: 96,
            },
            16,
            10,
        ),
        Workload::SolveLarge => (
            MatrixSource::Poisson3d {
                nx: 64,
                ny: 64,
                nz: 64,
            },
            2,
            20,
        ),
        Workload::CampaignSmoke => (MatrixSource::Poisson2d { nx: 16, ny: 16 }, 4, 10),
    };
    let rhs_seed = match (w, campaign_spec(seed).problems[0].rhs) {
        (Workload::CampaignSmoke, RhsSpec::Random { seed }) => seed,
        _ => derive_seed(seed, 1),
    };
    Probe {
        matrix,
        n_ranks,
        strategy: Strategy::Esrp { t },
        phi: 1,
        rhs_seed,
    }
}

/// The campaign's problem as a solver workload: the reference, ESRP(10)
/// φ = 1 failure-free, and its twin with rank 0 failing at C/2. The
/// campaign hides its runs' reports, so the traced pass takes message
/// counters and recovery timings from these.
fn campaign_twins(seed: u64) -> SolverWorkload {
    let p = probe(Workload::CampaignSmoke, seed);
    let mut w = SolverWorkload::solve_large(seed);
    w.matrix = p.matrix;
    w.n_ranks = p.n_ranks;
    w.rhs_seed = p.rhs_seed;
    for job in &mut w.jobs[1..] {
        job.strategy = p.strategy;
    }
    w
}

fn cycle_wall(cycle: &[Record]) -> f64 {
    cycle.iter().map(|r| r.call_s).sum()
}

fn absorb_rollups<'a>(records: impl Iterator<Item = &'a Record>) -> MetricsRollup {
    let mut total = MetricsRollup::default();
    for r in records {
        if let Some(m) = r.outcome.as_ref().ok().and_then(|s| s.metrics.as_ref()) {
            total.absorb(m);
        }
    }
    total
}

/// Message counters of a `TraceConfig::Full` cycle, per loop trip.
fn comm_counters(traced: &[Record]) -> Vec<Metric> {
    let m = absorb_rollups(traced.iter());
    let trips = m.iterations.max(1) as f64;
    vec![
        metric("cluster.msgs_per_iter", m.sends as f64 / trips, "count"),
        metric(
            "cluster.bytes_per_iter",
            m.bytes_by_tag.iter().sum::<u64>() as f64 / trips,
            "B",
        ),
        metric(
            "cluster.reductions_per_iter",
            m.reductions as f64 / trips,
            "count",
        ),
        metric("cluster.recv_wait_modeled_s", m.recv_wait_seconds, "s"),
        metric(
            "cluster.pool.hit_ratio",
            m.buffer_pool.hits as f64 / m.buffer_pool.takes.max(1) as f64,
            "1",
        ),
    ]
}

/// Loop trips, wasted trips and modeled seconds per solver phase.
fn solver_counters(trips: usize, iterations: usize, rollup: &MetricsRollup) -> Vec<Metric> {
    let mut m = vec![
        metric("core.solver.loop_trips", trips as f64, "count"),
        metric(
            "core.solver.wasted_trips",
            (trips - iterations.min(trips)) as f64,
            "count",
        ),
    ];
    for (i, phase) in Phase::ALL.iter().enumerate() {
        m.push(metric(
            format!("core.phase.{}.modeled_s", phase.name()),
            rollup.phase_seconds[i],
            "s",
        ));
    }
    m
}

/// Recovery cost of every failure run against its failure-free twin of
/// the same cycle: wall timed from outside, modeled seconds, inner-solve
/// iterations (medians over failure runs).
fn recovery_metrics(w: &SolverWorkload, cycles: &[Vec<Record>]) -> Vec<Metric> {
    let (mut wall, mut modeled, mut inner) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in cycles {
        for r in cycle.iter().filter(|r| w.jobs[r.job].fails()) {
            let Some(twin) = w.twin(r.job) else { continue };
            if let Ok(s) = &r.outcome {
                wall.push(r.call_s - cycle[twin].call_s);
                modeled.push(s.recovery_s);
                inner.push(s.inner_iterations as f64);
            }
        }
    }
    vec![
        metric("core.recovery.wall_s", median(&wall), "s"),
        metric("core.recovery.modeled_s", median(&modeled), "s"),
        metric("core.recovery.inner_iterations", median(&inner), "count"),
    ]
}

/// Shares of one failure-free iteration's wall explained by the kernel
/// and runtime replays, and what neither explains. Failure runs are left
/// out: their recovery wall is `core.recovery.wall_s`.
fn share_metrics(layers: &LayerTimes, w: &SolverWorkload, cycles: &[Vec<Record>]) -> Vec<Metric> {
    let iter_wall_us = solver_wall(cycles, |j| !w.jobs[j].fails()).iter_wall_us;
    vec![
        metric("core.solver.ff_iter_wall_us", iter_wall_us, "us"),
        metric("kernel.share", layers.kernel_us / iter_wall_us, "1"),
        metric("runtime.share", layers.round_us / iter_wall_us, "1"),
        metric(
            "core.solver.residual_us_per_iter",
            iter_wall_us - layers.kernel_us - layers.round_us,
            "us",
        ),
    ]
}

fn trace_overhead_pct(traced: &[f64], untraced: &[f64]) -> Metric {
    metric(
        "trace.overhead_pct",
        100.0 * (median(traced) / median(untraced) - 1.0),
        "%",
    )
}

/// The measuring window of a run. A closed loop starts its next step only
/// while a step of the mean length so far still ends inside the window, so
/// a run lasts about `seconds` however long one step takes.
struct Window {
    started: Instant,
    seconds: f64,
}

impl Window {
    fn open(seconds: f64) -> Self {
        Window {
            started: Instant::now(),
            seconds,
        }
    }

    /// True while fewer than `min` steps are done, or another one fits.
    fn another(&self, done: usize, min: usize) -> bool {
        let elapsed = self.started.elapsed().as_secs_f64();
        done < min || elapsed * (done + 1) as f64 / done as f64 <= self.seconds
    }
}

/// Report line of the calm-sample filter: how many of the `what` were
/// timed, and the steal cut-off (the range of them, one per job).
fn calm_line(what: &str, kept: usize, n: usize, cuts: &[f64]) -> String {
    let lo = cuts.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = cuts.iter().copied().fold(0.0, f64::max);
    let cut = if hi > lo {
        format!("{lo:.1}-{hi:.1}")
    } else {
        format!("{hi:.1}")
    };
    format!("calm {what}: {kept} of {n} timed, those with steal <= {cut} %")
}

fn solver_e2e_run(w: &SolverWorkload, seconds: f64) -> Outcome {
    let window = Window::open(seconds);
    let mut cycles = Vec::new();
    let mut quiet = Spans::new("", false);
    // At least two cycles: the second checks that the first repeats.
    let mut rss_mb = 0.0;
    while window.another(cycles.len(), 2) {
        cycles.push(run_cycle(w, TraceConfig::Off, &mut quiet, cycles.len()));
        // Peak resident set after one pass of the workload: later cycles
        // only add allocator fragmentation, which depends on how many
        // cycles fit into the run.
        if cycles.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }
    let verdict = check_solver(w, &cycles);
    // Every call is checked; the wall figures come from each job's calmer
    // half of its calls.
    let (mut kept, mut cuts) = (0, Vec::new());
    let calm: Vec<Vec<Record>> = (0..w.jobs.len())
        .map(|j| {
            let calls: Vec<Record> = cycles.iter().map(|c| c[j].clone()).collect();
            let steal: Vec<f64> = calls.iter().map(|r| r.steal_pct).collect();
            let (calm, cut) = calmer_half(calls, &steal);
            kept += calm.len();
            cuts.push(cut);
            calm
        })
        .collect();
    let (mut metrics, mut lines) = solver_e2e(w, &cycles[0], &calm);
    lines.push(calm_line("calls", kept, cycles.len() * w.jobs.len(), &cuts));
    metrics.push(metric("peak_rss_mb", rss_mb, "MiB"));
    Outcome {
        metrics,
        verdict,
        lines,
    }
}

/// Untraced and traced cycles, alternating for about `seconds`
/// (at least one of each). Traced cycles record host spans and run the
/// flight recorder at `TraceConfig::Full`.
fn solver_passes(
    w: &SolverWorkload,
    seconds: f64,
    spans: &mut Spans,
) -> (Vec<Vec<Record>>, Vec<Vec<Record>>) {
    let window = Window::open(seconds);
    let mut quiet = Spans::new("", false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while window.another(traced.len(), 1) {
        let k = untraced.len() + traced.len();
        untraced.push(run_cycle(w, TraceConfig::Off, &mut quiet, k));
        traced.push(run_cycle(w, TraceConfig::Full, spans, k + 1));
    }
    (untraced, traced)
}

fn interleave(a: &[Vec<Record>], b: &[Vec<Record>]) -> Vec<Vec<Record>> {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| [x.clone(), y.clone()])
        .collect()
}

fn solver_layer_run(workload: Workload, seed: u64, seconds: f64, spans: &mut Spans) -> Outcome {
    let w = solver_workload(workload, seed);
    let layers = spans.time("probes", 0, |s| probe_layers(&probe(workload, seed), s));
    let (untraced, traced) = solver_passes(&w, seconds, spans);
    let verdict = check_solver(&w, &interleave(&untraced, &traced));
    let first = &untraced[0];
    let solves = first.iter().filter_map(|r| r.outcome.as_ref().ok());
    let trips = solves.clone().map(|s| s.trips).sum();
    let iterations = solves.map(|s| s.iterations).sum();
    let mut metrics = layers.metrics.clone();
    metrics.extend(share_metrics(&layers, &w, &untraced));
    metrics.extend(comm_counters(&traced[0]));
    metrics.extend(solver_counters(
        trips,
        iterations,
        &absorb_rollups(traced[0].iter()),
    ));
    metrics.extend(recovery_metrics(&w, &untraced));
    // One client, no fleet: the fleet speedup is 1 by definition.
    metrics.push(metric("campaign.fleet.speedup", 1.0, "1"));
    let walls = |c: &[Vec<Record>]| c.iter().map(|c| cycle_wall(c)).collect::<Vec<_>>();
    metrics.push(trace_overhead_pct(&walls(&traced), &walls(&untraced)));
    Outcome {
        metrics,
        verdict,
        lines: vec![format!(
            "traced pass: {} untraced + {} traced cycles, {} host spans",
            untraced.len(),
            traced.len(),
            spans.len()
        )],
    }
}

fn campaign_e2e_run(seed: u64, seconds: f64) -> Outcome {
    let spec = campaign_spec(seed);
    let baselines = campaign_baselines(&spec);
    let window = Window::open(seconds);
    let mut quiet = Spans::new("", false);
    let mut records: Vec<CampaignRecord> = Vec::new();
    let mut rss_mb = 0.0;
    let mut steal = Vec::new();
    while window.another(records.len(), 2) {
        let ticks = cpu_ticks();
        records.push(run_campaign(
            &spec,
            FLEET_WORKERS,
            &mut quiet,
            records.len(),
        ));
        steal.push(steal_pct(ticks, cpu_ticks()));
        if records.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }
    let verdict = check_campaign(&records, &baselines);
    let n = records.len();
    let (calm, cut) = calmer_half(records, &steal);
    let (mut metrics, mut lines) = campaign_e2e(&calm, &baselines);
    lines.push(calm_line("campaigns", calm.len(), n, &[cut]));
    metrics.push(metric("peak_rss_mb", rss_mb, "MiB"));
    Outcome {
        metrics,
        verdict,
        lines,
    }
}

fn campaign_layer_run(seed: u64, seconds: f64, spans: &mut Spans) -> Outcome {
    let spec = campaign_spec(seed);
    let baselines = campaign_baselines(&spec);
    let layers = spans.time("probes", 0, |s| {
        probe_layers(&probe(Workload::CampaignSmoke, seed), s)
    });
    let twins = campaign_twins(seed);
    let (twin_untraced, twin_traced) = spans.time("twins", 0, |s| solver_passes(&twins, 0.5, s));
    let mut verdict = check_solver(&twins, &interleave(&twin_untraced, &twin_traced));

    let single = run_campaign(&spec, 1, spans, 0);
    let window = Window::open(seconds);
    let mut quiet = Spans::new("", false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while window.another(traced.len(), 1) {
        let k = 1 + untraced.len() + traced.len();
        untraced.push(run_campaign(&spec, FLEET_WORKERS, &mut quiet, k));
        traced.push(run_campaign(&spec, FLEET_WORKERS, spans, k + 1));
    }
    let walls = |c: &[CampaignRecord]| c.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    let speedup = single.wall_s / median(&walls(&untraced));
    let mut all = vec![single];
    all.extend(untraced);
    let n_untraced = all.len();
    all.extend(traced);
    let campaign_verdict = check_campaign(&all, &baselines);
    verdict.attempted += campaign_verdict.attempted;
    verdict.failed += campaign_verdict.failed;
    verdict.problems.extend(campaign_verdict.problems);

    // The replays follow one classic-PCG configuration; compare them with
    // the wall per iteration of that same configuration.
    let mut metrics = layers.metrics.clone();
    metrics.extend(share_metrics(&layers, &twins, &twin_untraced));
    metrics.extend(comm_counters(&twin_traced[0]));
    if let Ok(report) = &all[0].outcome {
        let runs = campaign_runs(report).unwrap_or_default();
        let (trips, iterations, _) = campaign_totals(report, &runs);
        let mut rollup = MetricsRollup::default();
        for cell in &report.cells {
            rollup.absorb(&cell.metrics);
        }
        metrics.extend(solver_counters(trips, iterations, &rollup));
    }
    metrics.extend(recovery_metrics(&twins, &twin_untraced));
    metrics.push(metric("campaign.fleet.speedup", speedup, "1"));
    metrics.push(trace_overhead_pct(
        &walls(&all[n_untraced..]),
        &walls(&all[1..n_untraced]),
    ));
    Outcome {
        metrics,
        verdict,
        lines: vec![format!(
            "traced pass: 1 single-worker + {} untraced + {} traced campaigns, {} host spans",
            n_untraced - 1,
            all.len() - n_untraced,
            spans.len()
        )],
    }
}

fn run(args: &Args, spans: &mut Spans) -> Outcome {
    match (args.workload, args.trace) {
        (Workload::CampaignSmoke, false) => campaign_e2e_run(args.seed, args.seconds),
        (Workload::CampaignSmoke, true) => campaign_layer_run(args.seed, args.seconds, spans),
        (w, false) => solver_e2e_run(&solver_workload(w, args.seed), args.seconds),
        (w, true) => solver_layer_run(w, args.seed, args.seconds, spans),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = HostFacts::collect(args.seed);
    let mut spans = Spans::new(args.workload.name(), args.trace);
    let started = Instant::now();
    let ticks = cpu_ticks();
    let (mut out, peak_threads) = with_thread_peak(|| run(&args, &mut spans));
    let steal = steal_pct(ticks, cpu_ticks());
    let elapsed = started.elapsed();

    println!(
        "workload {} seed {} trace {} ({:.1} s)",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        elapsed.as_secs_f64()
    );
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("metric {:<40} {} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", host.line(peak_threads, steal));
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.verdict
                .problems
                .push(format!("metric {} is not a number", m.name));
        }
    }
    for p in &out.verdict.problems {
        println!("FAILED {p}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.host-spans.nondeterministic.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_perfetto_json(&host)))
        {
            Ok(()) => println!(
                "host spans (wall clock, non-deterministic): {}",
                path.display()
            ),
            Err(e) => out
                .verdict
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    let correct = out.verdict.correct();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.verdict.attempted,
        out.verdict.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_core::Experiment;

    /// Kernel and runtime shares of one failure-free iteration of the
    /// workload's probe configuration.
    fn shares(w: Workload) -> (f64, f64) {
        let p = probe(w, 1);
        let layers = probe_layers(&p, &mut Spans::new("", false));
        let report = Experiment::builder()
            .matrix(p.matrix.clone())
            .rhs(RhsSpec::Random { seed: p.rhs_seed })
            .n_ranks(p.n_ranks)
            .strategy(p.strategy)
            .phi(p.phi)
            .run()
            .expect("probe configuration runs");
        let iter_us = 1e6 * report.wall_time.as_secs_f64() / report.total_loop_trips as f64;
        (layers.kernel_us / iter_us, layers.round_us / iter_us)
    }

    /// The workload design: `table2-small` is bound by the rank runtime and
    /// `solve-large` by the kernels. If this fails, the two workloads no
    /// longer separate the layers. Run with `--release`.
    #[test]
    fn workloads_separate_the_layers() {
        let (kernel_t2, runtime_t2) = shares(Workload::Table2Small);
        let (kernel_sl, runtime_sl) = shares(Workload::SolveLarge);
        assert!(
            runtime_t2 >= 4.0 * runtime_sl,
            "runtime.share: table2-small {runtime_t2:.4}, solve-large {runtime_sl:.4}"
        );
        assert!(
            kernel_sl >= 2.0 * kernel_t2,
            "kernel.share: solve-large {kernel_sl:.4}, table2-small {kernel_t2:.4}"
        );
    }

    #[test]
    fn campaign_twins_mirror_solve_large_on_the_campaign_problem() {
        let twins = campaign_twins(3);
        assert_eq!(twins.n_ranks, 4);
        assert_eq!(twins.jobs.len(), 3);
        assert_eq!(twins.jobs[0].strategy, Strategy::None);
        assert!(twins.jobs[1..]
            .iter()
            .all(|j| j.strategy == Strategy::Esrp { t: 10 }));
        assert_eq!(twins.twin(2), Some(1));
    }
}
