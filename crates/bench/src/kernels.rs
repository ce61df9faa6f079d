//! Machine-readable kernel benchmarks: SpMV and dot throughput per backend
//! and thread count, emitted as `BENCH_kernels.json` to seed the project's
//! performance trajectory.
//!
//! The workload is the paper's: 7-point Poisson-3D matrices (the SpMV that
//! dominates PCG iterations) at n ∈ {1e4, 1e5, 1e6}, and dot products of
//! the same lengths, plus a single-thread block Jacobi apply (the paper's
//! preconditioner, blocks of at most 10 rows). Throughput is reported in
//! GFLOP/s (2 flops per stored entry for SpMV, 2 per element for dot, the
//! cost model's 2·n_b² per block for the block Jacobi apply).
//!
//! A second sweep quantifies **dispatch overhead**: the same parallel
//! kernels timed under the persistent worker pool
//! ([`esrcg_sparse::pool::DispatchMode::Pooled`]) versus the old
//! spawn-threads-per-call scheme (`DispatchMode::Spawn`), at the small
//! sizes (n ≤ 1e5) where per-call overhead is a visible fraction of the
//! kernel — plus a bare no-op broadcast isolating the dispatch cost itself.
//!
//! A third sweep quantifies the **overlap**: the full distributed PCG loop
//! under the blocking SpMV schedule versus the split-phase schedule
//! ([`esrcg_core::solver::SpmvMode`]), and — since schema v4 — under the
//! PCG recurrences ([`esrcg_core::solver::PcgVariant`]: the classic loop,
//! the pipelined loop whose fused reduction hides under the
//! preconditioner + SpMV, and — since schema v6 — the s-step loop that
//! amortizes one Gram reduction over a whole block). Since schema v6 the
//! sweep also carries a **cost-model axis** ([`CostModel`] presets): the
//! latency-dominated preset is where the communication-avoiding recurrence
//! crosses over the pipelined one, and the per-`(n, ranks, cost model)`
//! crossover winners are a first-class section of the artifact. Everything
//! runs on the deterministic modeled clock — which is exactly what makes
//! the win measurable on a 1-core container (the logical clocks do not
//! depend on host parallelism; only wall-clock numbers need a multicore
//! re-run, see `ROADMAP.md` follow-up (a)).

use std::time::Instant;

use esrcg_campaign::report::fmt_nonneg_zero;
use esrcg_cluster::{validate_trace_json, CostModel, MetricsRollup, Phase, TraceConfig};
use esrcg_core::driver::{Experiment, MatrixSource, RhsSpec};
use esrcg_core::solver::{PcgVariant, SpmvMode};
use esrcg_core::Strategy;
use esrcg_precond::{BlockJacobiPrecond, Preconditioner};
use esrcg_sparse::backend::{PARALLEL_CUTOFF, SPMV_PARALLEL_NNZ_CUTOFF};
use esrcg_sparse::gen::{audikw_like, poisson2d, poisson3d, stencil27};
use esrcg_sparse::pool::{self, DispatchMode};
use esrcg_sparse::{CsrMatrix, FormatMatrix, KernelBackend, Partition, SpmvFormat};

/// One measured cell.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// `"spmv"`, `"dot"` or `"bj_apply"` (block Jacobi apply).
    pub kernel: &'static str,
    /// Problem size (rows or vector length).
    pub n: usize,
    /// Stored entries (SpMV only; `n` for dot and bj_apply).
    pub nnz: usize,
    /// Worker threads of the backend.
    pub threads: usize,
    /// Backend name.
    pub backend: String,
    /// Median seconds per kernel invocation.
    pub secs: f64,
    /// Throughput in GFLOP/s.
    pub gflops: f64,
}

/// One cell of the dispatch-overhead sweep: the same parallel kernel timed
/// under both dispatch schemes. `kernel == "dispatch"` rows (n = 0) time a
/// bare no-op broadcast — the pure per-call dispatch cost.
#[derive(Debug, Clone)]
pub struct OverheadMeasurement {
    /// `"spmv"`, `"dot"`, or `"dispatch"` (no-op broadcast).
    pub kernel: &'static str,
    /// Problem size (0 for the bare dispatch rows).
    pub n: usize,
    /// Worker threads of the parallel backend.
    pub threads: usize,
    /// Median seconds per call with the persistent pool.
    pub pooled_secs: f64,
    /// Median seconds per call with spawn-per-call threads (PR 1 baseline).
    pub spawn_secs: f64,
}

impl OverheadMeasurement {
    /// How many times slower the spawn-per-call baseline is (> 1 means the
    /// pool wins).
    pub fn spawn_over_pooled(&self) -> f64 {
        ratio(self.spawn_secs, self.pooled_secs)
    }
}

/// One cell of the overlap sweep: the distributed PCG loop of one
/// [`PcgVariant`] solved under both SpMV schedules, on the deterministic
/// modeled clock. Rows of different variants at the same
/// `(n, n_ranks, cost model)` compare the recurrences (the pipelined one
/// hides its reduction; the s-step one amortizes it over a block).
#[derive(Debug, Clone)]
pub struct OverlapMeasurement {
    /// Matrix family (`"poisson2d"`).
    pub matrix: &'static str,
    /// PCG recurrence variant name (`"classic"`, `"pipelined"`,
    /// `"sstep2"`, …).
    pub variant: &'static str,
    /// Cost-model preset the modeled clock ran under (`"default"`,
    /// `"latency-dominated"`, …).
    pub cost_model: &'static str,
    /// Global reductions per logical iteration: 2 for classic (α and β
    /// reduce separately), 1 for pipelined (fused), 1/s for s-step (one
    /// fused Gram reduction per s-iteration block).
    pub reductions_per_iteration: f64,
    /// Problem size (rows).
    pub n: usize,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// PCG iterations to convergence (identical under both schedules — the
    /// trajectories are bitwise equal *within* a variant).
    pub iterations: usize,
    /// Modeled seconds of the whole solve, blocking schedule.
    pub blocking_time: f64,
    /// Modeled seconds of the whole solve, split-phase schedule.
    pub split_time: f64,
    /// Summed SpMV-phase receive wait across ranks, blocking schedule —
    /// the time the split-phase schedule exists to hide.
    pub blocking_spmv_wait: f64,
    /// Summed SpMV-phase receive wait across ranks, split-phase schedule.
    pub split_spmv_wait: f64,
    /// Summed `Phase::Reduction` receive wait across ranks, split-phase
    /// schedule — the time the *pipelined variant* exists to hide.
    pub split_reduction_wait: f64,
    /// Rows classified interior (cluster-wide, from the `RowSplitSet`).
    pub interior_rows: usize,
    /// Rows classified boundary.
    pub boundary_rows: usize,
}

impl OverlapMeasurement {
    /// Modeled seconds per PCG iteration under the blocking schedule.
    pub fn blocking_per_iter(&self) -> f64 {
        self.blocking_time / self.iterations.max(1) as f64
    }

    /// Modeled seconds per PCG iteration under the split-phase schedule.
    pub fn split_per_iter(&self) -> f64 {
        self.split_time / self.iterations.max(1) as f64
    }

    /// How many times slower the blocking schedule is (> 1 means the
    /// overlap wins).
    pub fn blocking_over_split(&self) -> f64 {
        self.blocking_time / self.split_time
    }
}

/// One cell of the storage-format sweep (schema v5): the same SpMV timed
/// through one [`SpmvFormat`]. Every format is asserted bitwise-identical
/// to the sequential CSR product before it is timed — a benchmark must not
/// report a win for a wrong answer.
#[derive(Debug, Clone)]
pub struct FormatMeasurement {
    /// Matrix family (`"poisson2d"`, `"poisson3d-stencil"`, `"elasticity"`,
    /// or the file stem of a `--matrix` input).
    pub matrix: String,
    /// Problem size (rows).
    pub n: usize,
    /// Stored entries of the CSR structure — the flops basis shared by
    /// every format.
    pub nnz: usize,
    /// Stored slots of the converted structure, padding included (equals
    /// `nnz` for CSR).
    pub slots: usize,
    /// Format name (`"csr"`, `"sell-8-64"`, `"bcsr-3x3"`).
    pub format: String,
    /// Worker threads of the backend.
    pub threads: usize,
    /// Backend name.
    pub backend: String,
    /// Median seconds per SpMV.
    pub secs: f64,
    /// Throughput in GFLOP/s, charged from the CSR structure (2 × nnz) so
    /// formats are comparable: padded slots do no useful work.
    pub gflops: f64,
}

impl FormatMeasurement {
    /// Stored slots per useful entry (1.0 for CSR; > 1 measures padding).
    pub fn padding_ratio(&self) -> f64 {
        self.slots as f64 / self.nnz.max(1) as f64
    }
}

/// One named matrix fed to [`run_format_sweep`].
pub struct FormatSweepSpec {
    /// Family name carried into the report rows.
    pub name: String,
    /// The matrix itself (CSR; conversions happen inside the sweep).
    pub a: CsrMatrix,
}

/// One cell of the small-SpMV cutoff sweep: the parallel backend timed
/// against the sequential one at an entry count below or above
/// [`SPMV_PARALLEL_NNZ_CUTOFF`]. Below the cutoff the parallel backend is
/// gated onto the sequential path, so `par_over_seq ≈ 1` is the proof that
/// small SpMVs no longer pay dispatch overhead.
#[derive(Debug, Clone)]
pub struct CutoffMeasurement {
    /// Problem size (rows).
    pub n: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Worker threads of the parallel backend.
    pub threads: usize,
    /// Whether the nnz gate forces the sequential path at this size.
    pub gated: bool,
    /// Median seconds per SpMV, sequential backend.
    pub seq_secs: f64,
    /// Median seconds per SpMV, parallel backend (gated or not).
    pub par_secs: f64,
}

impl CutoffMeasurement {
    /// How many times slower the parallel backend is (≈ 1 when gated —
    /// the small-n regression fix; may exceed 1 above the cutoff on
    /// oversubscribed hosts).
    pub fn par_over_seq(&self) -> f64 {
        ratio(self.par_secs, self.seq_secs)
    }
}

/// `a / b`, with 0 for a zero denominator (deterministic renders zero all
/// wall-clock fields; the ratios must stay finite for valid JSON).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The full benchmark outcome.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Detected hardware parallelism of the host.
    pub host_threads: usize,
    /// All measurements.
    pub results: Vec<KernelMeasurement>,
    /// Storage-format sweep (CSR vs SELL-C-σ vs BCSR), schema v5.
    pub formats: Vec<FormatMeasurement>,
    /// Small-SpMV cutoff sweep straddling [`SPMV_PARALLEL_NNZ_CUTOFF`].
    pub cutoff: Vec<CutoffMeasurement>,
    /// Dispatch-overhead sweep (pooled vs spawn-per-call), small sizes only.
    pub overhead: Vec<OverheadMeasurement>,
    /// Halo-overlap sweep (blocking vs split-phase distributed SpMV).
    pub overlap: Vec<OverlapMeasurement>,
    /// Flight-recorder probe (schema v7): one deterministic failing run
    /// recorded at [`TraceConfig::Full`], carrying the metrics rollup and
    /// the Perfetto document behind `--trace-out`.
    pub trace: Option<TraceProbe>,
}

/// The flight-recorder probe attached to `BENCH_kernels.json` since schema
/// v7: an s-step solve with a failure injected *mid-block* under ESRP —
/// the nastiest window the recorder covers — recorded at
/// [`TraceConfig::Full`]. Every field lives on the modeled clock, so the
/// probe (and the Perfetto document `kernels --trace-out` writes) is
/// byte-identical across hosts, kernel thread counts, and `--workers`
/// values; `--deterministic` leaves it untouched.
#[derive(Debug, Clone)]
pub struct TraceProbe {
    /// PCG recurrence of the probe run.
    pub variant: &'static str,
    /// Recovery strategy (with its checkpoint interval).
    pub strategy: &'static str,
    /// Redundancy copies per halo entry.
    pub phi: usize,
    /// Problem rows.
    pub n: usize,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// Iteration the injected failure triggers at (deliberately not a
    /// multiple of s: the rollback crosses a block boundary).
    pub failure_at: usize,
    /// Iterations to convergence.
    pub iterations: usize,
    /// Total modeled seconds of the run.
    pub modeled_seconds: f64,
    /// Sum of the trace's recovery spans — asserted bitwise equal to the
    /// run's reported recovery modeled time when the probe is built.
    pub recovery_seconds: f64,
    /// Merged trace events across all ranks.
    pub events: usize,
    /// Events in the rendered Perfetto document (metadata + spans +
    /// instants), as counted by the structural validator.
    pub perfetto_events: usize,
    /// The Chrome/Perfetto trace-event JSON document.
    pub perfetto: String,
    /// Metrics rollup of the probe run (all ranks absorbed).
    pub metrics: MetricsRollup,
}

/// Runs the flight-recorder probe and validates everything it reports:
/// phase coverage, recovery attribution, Perfetto structure, and the
/// bitwise identity between the trace's recovery spans and the run's
/// reported recovery time.
pub fn run_trace_probe() -> TraceProbe {
    let report = Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 24, ny: 24 })
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(4)
        .variant(PcgVariant::SStep { s: 4 })
        .strategy(Strategy::Esrp { t: 5 })
        .phi(1)
        .failure_at(21, 0, 1)
        .trace(TraceConfig::Full)
        .run()
        .expect("trace probe run");
    let trace = report.trace.as_ref().expect("Full records a trace");
    trace.validate().expect("probe trace is phase-covered");
    trace
        .validate_recovery_attribution()
        .expect("probe recovery window is attributed");
    let perfetto = trace.to_perfetto_json();
    let perfetto_events =
        validate_trace_json(&perfetto).expect("probe renders valid trace-event JSON");
    let reported: f64 = report.recoveries.iter().map(|r| r.recovery_time).sum();
    let recovery_seconds = trace.recovery_seconds();
    assert_eq!(
        recovery_seconds.to_bits(),
        reported.to_bits(),
        "recovery spans sum bitwise to the reported recovery time"
    );
    let events = trace.event_count();
    let metrics = report.metrics.clone().expect("rollup present");
    TraceProbe {
        variant: "sstep4",
        strategy: "esrp(t=5)",
        phi: 1,
        n: 576,
        n_ranks: 4,
        failure_at: 21,
        iterations: report.iterations,
        modeled_seconds: report.modeled_time,
        recovery_seconds,
        events,
        perfetto_events,
        perfetto,
        metrics,
    }
}

fn median_secs(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times `f` (which must perform exactly one kernel invocation) with
/// `warmup` untimed and `samples` timed runs; returns median seconds.
fn time_kernel(warmup: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median_secs(&mut times)
}

/// Grid edge for an ≈`target`-row Poisson-3D problem.
pub fn poisson3d_edge(target: usize) -> usize {
    (target as f64).cbrt().round() as usize
}

/// Runs the benchmark over `sizes` × `thread_counts` (plus the sequential
/// backend at every size) with `samples` timed repetitions per cell.
pub fn run_kernel_bench(sizes: &[usize], thread_counts: &[usize], samples: usize) -> KernelReport {
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut results = Vec::new();
    for &target in sizes {
        let edge = poisson3d_edge(target);
        let a = poisson3d(edge, edge, edge);
        let n = a.nrows();
        let nnz = a.nnz();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut out = vec![0.0; n];

        let mut cell = |backend: KernelBackend, threads: usize| {
            let spmv_secs = time_kernel(2, samples, || {
                backend.spmv_into(&a, &x, &mut out);
            });
            results.push(KernelMeasurement {
                kernel: "spmv",
                n,
                nnz,
                threads,
                backend: backend.name(),
                secs: spmv_secs,
                gflops: a.spmv_flops() as f64 / spmv_secs / 1e9,
            });
            let mut sink = 0.0;
            let dot_secs = time_kernel(2, samples, || {
                sink += backend.dot(&x, &y);
            });
            std::hint::black_box(sink);
            results.push(KernelMeasurement {
                kernel: "dot",
                n,
                nnz: n,
                threads,
                backend: backend.name(),
                secs: dot_secs,
                gflops: 2.0 * n as f64 / dot_secs / 1e9,
            });
        };

        cell(KernelBackend::Sequential, 1);
        for &t in thread_counts {
            cell(KernelBackend::parallel(t), t);
        }

        // The paper's preconditioner (blocks of at most 10 rows) applied on
        // one rank, single-threaded; flops are its cost-model count.
        let bj =
            BlockJacobiPrecond::new(&a, &Partition::balanced(n, 1), 10).expect("Poisson-3D is SPD");
        let bj_secs = time_kernel(2, samples, || {
            bj.apply_into(&x, &mut out);
        });
        results.push(KernelMeasurement {
            kernel: "bj_apply",
            n,
            nnz: n,
            threads: 1,
            backend: "seq".to_string(),
            secs: bj_secs,
            gflops: bj.apply_flops(0..n) as f64 / bj_secs / 1e9,
        });
    }
    let small: Vec<usize> = sizes.iter().copied().filter(|&s| s <= 100_000).collect();
    let overhead = run_overhead_sweep(&small, thread_counts, samples);
    KernelReport {
        host_threads,
        results,
        formats: Vec::new(),
        cutoff: Vec::new(),
        overhead,
        overlap: Vec::new(),
        trace: Some(run_trace_probe()),
    }
}

/// The three generator matrices of the format sweep, scaled so each holds
/// roughly `target` rows: the 5-point Poisson-2D operator (short uniform
/// rows), the 27-point stencil (long uniform rows — SELL's best case), and
/// the 3-DOF elasticity operator (dense 3×3 node blocks — BCSR's best
/// case).
pub fn format_sweep_matrices(target: usize) -> Vec<FormatSweepSpec> {
    let side = (target as f64).sqrt().round().max(2.0) as usize;
    let edge = poisson3d_edge(target).max(2);
    let block_edge = ((target as f64 / 3.0).cbrt().round().max(2.0)) as usize;
    vec![
        FormatSweepSpec {
            name: "poisson2d".to_string(),
            a: poisson2d(side, side),
        },
        FormatSweepSpec {
            name: "poisson3d-stencil".to_string(),
            a: stencil27(edge, edge, edge),
        },
        FormatSweepSpec {
            name: "elasticity".to_string(),
            a: audikw_like(block_edge, block_edge, block_edge),
        },
    ]
}

/// Runs the storage-format sweep: every matrix × backend × format cell,
/// with each format's product asserted bitwise-equal to the sequential CSR
/// product before it is timed. `workers` matrices are processed
/// concurrently (each on one OS thread); the row order is by construction
/// independent of the worker count — matrices in input order, then
/// backends, then formats.
pub fn run_format_sweep(
    specs: &[FormatSweepSpec],
    formats: &[SpmvFormat],
    thread_counts: &[usize],
    samples: usize,
    workers: usize,
) -> Vec<FormatMeasurement> {
    let measure_one = |spec: &FormatSweepSpec| -> Vec<FormatMeasurement> {
        let a = &spec.a;
        let n = a.nrows();
        let nnz = a.nnz();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y_ref = KernelBackend::Sequential.spmv(a, &x);
        let flops = a.spmv_flops() as f64;
        let mut rows = Vec::new();
        let mut cell = |backend: KernelBackend, threads: usize| {
            for &fmt in formats {
                let mut out = vec![0.0; n];
                let (slots, secs) = match FormatMatrix::from_csr(a, fmt) {
                    None => {
                        backend.spmv_into(a, &x, &mut out);
                        (
                            nnz,
                            time_kernel(2, samples, || backend.spmv_into(a, &x, &mut out)),
                        )
                    }
                    Some(m) => {
                        backend.spmv_fmt_into(&m, &x, &mut out);
                        (
                            m.n_slots(),
                            time_kernel(2, samples, || backend.spmv_fmt_into(&m, &x, &mut out)),
                        )
                    }
                };
                assert_eq!(
                    out,
                    y_ref,
                    "{} × {} × {}: formats must stay bitwise-identical",
                    spec.name,
                    backend.name(),
                    fmt.name()
                );
                rows.push(FormatMeasurement {
                    matrix: spec.name.clone(),
                    n,
                    nnz,
                    slots,
                    format: fmt.name(),
                    threads,
                    backend: backend.name(),
                    secs,
                    gflops: flops / 1e9 / secs.max(f64::MIN_POSITIVE),
                });
            }
        };
        cell(KernelBackend::Sequential, 1);
        for &t in thread_counts {
            cell(KernelBackend::parallel(t), t);
        }
        rows
    };

    if workers <= 1 || specs.len() <= 1 {
        return specs.iter().flat_map(measure_one).collect();
    }
    // Worker pool over matrix indices; slots keep the deterministic order.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Vec<FormatMeasurement>>> = specs
        .iter()
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(specs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                *slots[i].lock().expect("format sweep slot") = measure_one(spec);
            });
        }
    });
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().expect("format sweep slot"))
        .collect()
}

/// Runs the cutoff sweep: 7-point Poisson-3D SpMVs straddling
/// [`SPMV_PARALLEL_NNZ_CUTOFF`], the sequential backend against the
/// parallel one at each thread count. Below the cutoff the gate routes the
/// parallel backend onto the sequential kernel, so the ratio ≈ 1 rows are
/// the regression proof for the small-n fix.
pub fn run_cutoff_sweep(thread_counts: &[usize], samples: usize) -> Vec<CutoffMeasurement> {
    let mut out = Vec::new();
    // ~10k rows ⇒ ~66k entries (gated); ~33k rows ⇒ ~219k entries (just
    // past the 200k gate, dispatches).
    for target in [10_000usize, 33_000] {
        let edge = poisson3d_edge(target);
        let a = poisson3d(edge, edge, edge);
        let n = a.nrows();
        let nnz = a.nnz();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; n];
        let seq = KernelBackend::Sequential;
        let seq_secs = time_kernel(2, samples, || seq.spmv_into(&a, &x, &mut y));
        for &t in thread_counts {
            if t < 2 {
                continue; // 1-thread parallel backend == sequential path
            }
            let par = KernelBackend::parallel(t);
            let par_secs = time_kernel(2, samples, || par.spmv_into(&a, &x, &mut y));
            out.push(CutoffMeasurement {
                n,
                nnz,
                threads: t,
                gated: nnz < SPMV_PARALLEL_NNZ_CUTOFF,
                seq_secs,
                par_secs,
            });
        }
    }
    out
}

/// Global reductions per logical iteration of `variant`: 2 for classic
/// (α and β reduce separately), 1 for pipelined (one fused reduction), and
/// 1/s for the s-step recurrence (one fused Gram reduction per block).
pub fn reductions_per_iteration(variant: PcgVariant) -> f64 {
    match variant {
        PcgVariant::Classic => 2.0,
        PcgVariant::Pipelined => 1.0,
        PcgVariant::SStep { s } => 1.0 / s as f64,
    }
}

/// Runs the overlap sweep: one distributed PCG solve per rank count ×
/// cost model × variant × SpMV schedule on a 2-D Poisson problem
/// (`nx × ny` grid), comparing modeled times. Within a variant the two
/// SpMV schedules are bitwise identical in every result (asserted here — a
/// benchmark must not report a win for a wrong answer), and so are the
/// trajectories across cost models (the cost model only reclocks the same
/// arithmetic); across variants only the modeled clock and the
/// (±10%-equivalent) iteration counts differ.
pub fn run_overlap_sweep(
    rank_counts: &[usize],
    nx: usize,
    ny: usize,
    variants: &[PcgVariant],
    cost_models: &[CostModel],
) -> Vec<OverlapMeasurement> {
    let mut out = Vec::new();
    for &n_ranks in rank_counts {
        for &cost in cost_models {
            for &variant in variants {
                let run = |mode: SpmvMode| {
                    Experiment::builder()
                        .matrix(MatrixSource::Poisson2d { nx, ny })
                        .n_ranks(n_ranks)
                        .spmv_mode(mode)
                        .variant(variant)
                        .cost_model(cost)
                        .run()
                        .expect("overlap sweep run")
                };
                let blocking = run(SpmvMode::Blocking);
                let split = run(SpmvMode::SplitPhase);
                assert_eq!(blocking.x, split.x, "schedules must agree bitwise");
                assert_eq!(blocking.iterations, split.iterations);
                let phase_wait = |r: &esrcg_core::driver::RunReport, phase: Phase| {
                    r.per_rank_stats
                        .iter()
                        .map(|s| s.recv_wait[phase as usize])
                        .sum::<f64>()
                };
                out.push(OverlapMeasurement {
                    matrix: "poisson2d",
                    variant: variant.name(),
                    cost_model: cost.name(),
                    reductions_per_iteration: reductions_per_iteration(variant),
                    n: split.x.len(),
                    n_ranks,
                    iterations: blocking.iterations,
                    blocking_time: blocking.modeled_time,
                    split_time: split.modeled_time,
                    blocking_spmv_wait: phase_wait(&blocking, Phase::SpMV),
                    split_spmv_wait: phase_wait(&split, Phase::SpMV),
                    split_reduction_wait: phase_wait(&split, Phase::Reduction),
                    // Read back from the run itself, so the reported counts
                    // are by construction the split the solver actually
                    // used.
                    interior_rows: split.interior_rows,
                    boundary_rows: split.boundary_rows,
                });
            }
        }
    }
    out
}

/// Times the parallel kernels under both dispatch modes at the given sizes
/// (sizes below [`PARALLEL_CUTOFF`] are skipped: neither mode dispatches
/// there), plus one bare no-op broadcast row per thread count. Restores
/// [`DispatchMode::Pooled`] before returning.
pub fn run_overhead_sweep(
    sizes: &[usize],
    thread_counts: &[usize],
    samples: usize,
) -> Vec<OverheadMeasurement> {
    let mut out = Vec::new();
    // Both-mode timing helper: pooled first (warms this thread's pool),
    // then the spawn baseline.
    let time_both = |f: &mut dyn FnMut()| {
        pool::set_dispatch_mode(DispatchMode::Pooled);
        let pooled = time_kernel(3, samples, &mut *f);
        pool::set_dispatch_mode(DispatchMode::Spawn);
        let spawn = time_kernel(3, samples, &mut *f);
        pool::set_dispatch_mode(DispatchMode::Pooled);
        (pooled, spawn)
    };
    for &t in thread_counts {
        if t < 2 {
            continue; // a 1-thread backend never dispatches
        }
        let backend = KernelBackend::parallel(t);
        let (pooled_secs, spawn_secs) = time_both(&mut || {
            // What `dispatch` does for a parallel kernel, minus the kernel.
            match pool::dispatch_mode() {
                DispatchMode::Pooled => pool::with_local_pool(t, |p| p.broadcast(t, |_| {})),
                DispatchMode::Spawn => pool::broadcast_scoped(t, |_| {}),
            }
        });
        out.push(OverheadMeasurement {
            kernel: "dispatch",
            n: 0,
            threads: t,
            pooled_secs,
            spawn_secs,
        });
        for &target in sizes {
            let edge = poisson3d_edge(target);
            let a = poisson3d(edge, edge, edge);
            let n = a.nrows();
            if n < PARALLEL_CUTOFF {
                continue;
            }
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let mut outv = vec![0.0; n];
            let (pooled_secs, spawn_secs) = time_both(&mut || {
                backend.spmv_into(&a, &x, &mut outv);
            });
            out.push(OverheadMeasurement {
                kernel: "spmv",
                n,
                threads: t,
                pooled_secs,
                spawn_secs,
            });
            let mut sink = 0.0;
            let (pooled_secs, spawn_secs) = time_both(&mut || {
                sink += backend.dot(&x, &y);
            });
            std::hint::black_box(sink);
            out.push(OverheadMeasurement {
                kernel: "dot",
                n,
                threads: t,
                pooled_secs,
                spawn_secs,
            });
        }
    }
    out
}

impl KernelReport {
    /// The crossover winners of the overlap sweep: for each
    /// `(n, n_ranks, cost model)` cell, the variant with the smallest
    /// modeled split-phase seconds per iteration — the headline
    /// classic/pipelined/s-step comparison. Cells appear in first-row
    /// order, so the list is deterministic.
    pub fn crossover_winners(&self) -> Vec<&OverlapMeasurement> {
        let mut winners: Vec<&OverlapMeasurement> = Vec::new();
        for m in &self.overlap {
            match winners
                .iter_mut()
                .find(|w| w.n == m.n && w.n_ranks == m.n_ranks && w.cost_model == m.cost_model)
            {
                None => winners.push(m),
                Some(w) => {
                    if m.split_per_iter() < w.split_per_iter() {
                        *w = m;
                    }
                }
            }
        }
        winners
    }

    /// Speedup of the parallel backend at `threads` over the sequential
    /// backend, for `kernel` at size `n` (None when either cell is absent).
    pub fn speedup(&self, kernel: &str, n: usize, threads: usize) -> Option<f64> {
        let find = |backend_seq: bool, thr: usize| {
            self.results.iter().find(|m| {
                m.kernel == kernel
                    && m.n == n
                    && ((backend_seq && m.backend == "seq")
                        || (!backend_seq && m.threads == thr && m.backend != "seq"))
            })
        };
        let seq = find(true, 1)?;
        let par = find(false, threads)?;
        Some(ratio(seq.secs, par.secs))
    }

    /// Speedup of `format` over CSR at the same `(matrix, n, threads)` cell
    /// of the format sweep (> 1 means the format wins; `None` when either
    /// cell is absent).
    pub fn format_speedup(
        &self,
        matrix: &str,
        n: usize,
        format: &str,
        threads: usize,
    ) -> Option<f64> {
        let find = |fmt: &str| {
            self.formats
                .iter()
                .find(|m| m.matrix == matrix && m.n == n && m.format == fmt && m.threads == threads)
        };
        let csr = find("csr")?;
        let other = find(format)?;
        Some(ratio(csr.secs, other.secs))
    }

    /// Zeroes every wall-clock field (timed seconds, GFLOP/s) while keeping
    /// the deterministic ones — structure sizes, padding, modeled-clock
    /// overlap rows, and the flight-recorder probe (pure modeled clock).
    /// With `--deterministic` the emitted JSON is then byte-identical
    /// across hosts, repetitions, and `--workers` counts.
    pub fn zero_wall_clock(&mut self) {
        self.host_threads = 0;
        for m in &mut self.results {
            m.secs = 0.0;
            m.gflops = 0.0;
        }
        for m in &mut self.formats {
            m.secs = 0.0;
            m.gflops = 0.0;
        }
        for m in &mut self.cutoff {
            m.seq_secs = 0.0;
            m.par_secs = 0.0;
        }
        for m in &mut self.overhead {
            m.pooled_secs = 0.0;
            m.spawn_secs = 0.0;
        }
    }

    /// Renders the report as pretty-printed JSON (hand-rolled; the build
    /// carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"esrcg-bench-kernels-v7\",\n");
        s.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        s.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"nnz\": {}, \"backend\": \"{}\", \
                 \"threads\": {}, \"secs_per_iter\": {:.9}, \"gflops\": {:.4}}}{}\n",
                m.kernel,
                m.n,
                m.nnz,
                m.backend,
                m.threads,
                fmt_nonneg_zero(m.secs),
                fmt_nonneg_zero(m.gflops),
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"formats\": [\n");
        for (i, m) in self.formats.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"matrix\": \"{}\", \"n\": {}, \"nnz\": {}, \"slots\": {}, \
                 \"format\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \
                 \"padding_ratio\": {:.4}, \"secs_per_iter\": {:.9}, \"gflops\": {:.4}}}{}\n",
                m.matrix,
                m.n,
                m.nnz,
                m.slots,
                m.format,
                m.backend,
                m.threads,
                fmt_nonneg_zero(m.padding_ratio()),
                fmt_nonneg_zero(m.secs),
                fmt_nonneg_zero(m.gflops),
                if i + 1 == self.formats.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"cutoff\": [\n");
        for (i, m) in self.cutoff.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"n\": {}, \"nnz\": {}, \"threads\": {}, \"gated\": {}, \
                 \"seq_secs\": {:.9}, \"par_secs\": {:.9}, \"par_over_seq\": {:.3}}}{}\n",
                m.n,
                m.nnz,
                m.threads,
                m.gated,
                fmt_nonneg_zero(m.seq_secs),
                fmt_nonneg_zero(m.par_secs),
                fmt_nonneg_zero(m.par_over_seq()),
                if i + 1 == self.cutoff.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"overhead\": [\n");
        for (i, m) in self.overhead.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"threads\": {}, \
                 \"pooled_secs\": {:.9}, \"spawn_secs\": {:.9}, \
                 \"spawn_over_pooled\": {:.3}}}{}\n",
                m.kernel,
                m.n,
                m.threads,
                fmt_nonneg_zero(m.pooled_secs),
                fmt_nonneg_zero(m.spawn_secs),
                fmt_nonneg_zero(m.spawn_over_pooled()),
                if i + 1 == self.overhead.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("  ],\n");
        // Modeled-clock numbers: valid on any host, including the 1-core
        // dev container (the logical clocks never see host parallelism).
        s.push_str("  \"overlap\": [\n");
        for (i, m) in self.overlap.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"matrix\": \"{}\", \"variant\": \"{}\", \"cost_model\": \"{}\", \
                 \"reductions_per_iteration\": {:.4}, \"n\": {}, \
                 \"n_ranks\": {}, \"iterations\": {}, \
                 \"modeled_blocking_secs\": {:.9}, \"modeled_split_secs\": {:.9}, \
                 \"per_iter_blocking_secs\": {:.9}, \"per_iter_split_secs\": {:.9}, \
                 \"spmv_wait_blocking_secs\": {:.9}, \"spmv_wait_split_secs\": {:.9}, \
                 \"reduction_wait_split_secs\": {:.9}, \
                 \"interior_rows\": {}, \"boundary_rows\": {}, \
                 \"blocking_over_split\": {:.4}}}{}\n",
                m.matrix,
                m.variant,
                m.cost_model,
                fmt_nonneg_zero(m.reductions_per_iteration),
                m.n,
                m.n_ranks,
                m.iterations,
                fmt_nonneg_zero(m.blocking_time),
                fmt_nonneg_zero(m.split_time),
                fmt_nonneg_zero(m.blocking_per_iter()),
                fmt_nonneg_zero(m.split_per_iter()),
                fmt_nonneg_zero(m.blocking_spmv_wait),
                fmt_nonneg_zero(m.split_spmv_wait),
                fmt_nonneg_zero(m.split_reduction_wait),
                m.interior_rows,
                m.boundary_rows,
                fmt_nonneg_zero(m.blocking_over_split()),
                if i + 1 == self.overlap.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        // The headline table: who wins each (n, ranks, cost model) cell on
        // modeled split-phase seconds per iteration.
        s.push_str("  \"crossover\": [\n");
        let winners = self.crossover_winners();
        for (i, m) in winners.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"matrix\": \"{}\", \"n\": {}, \"n_ranks\": {}, \
                 \"cost_model\": \"{}\", \"winner\": \"{}\", \
                 \"per_iter_split_secs\": {:.9}, \
                 \"reductions_per_iteration\": {:.4}}}{}\n",
                m.matrix,
                m.n,
                m.n_ranks,
                m.cost_model,
                m.variant,
                fmt_nonneg_zero(m.split_per_iter()),
                fmt_nonneg_zero(m.reductions_per_iteration),
                if i + 1 == winners.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        // The flight-recorder probe: one failing s-step ESRP run recorded
        // at Full, entirely on the modeled clock — valid on any host.
        match &self.trace {
            Some(p) => {
                s.push_str(&format!(
                    "  \"trace\": {{\"variant\": \"{}\", \"strategy\": \"{}\", \
                     \"phi\": {}, \"n\": {}, \"n_ranks\": {}, \"failure_at\": {}, \
                     \"iterations\": {}, \"modeled_seconds\": {:.9}, \
                     \"recovery_seconds\": {:.9}, \"events\": {}, \
                     \"perfetto_events\": {}}},\n",
                    p.variant,
                    p.strategy,
                    p.phi,
                    p.n,
                    p.n_ranks,
                    p.failure_at,
                    p.iterations,
                    fmt_nonneg_zero(p.modeled_seconds),
                    fmt_nonneg_zero(p.recovery_seconds),
                    p.events,
                    p.perfetto_events,
                ));
                s.push_str(&format!("  \"metrics\": {},\n", p.metrics.to_json("  ")));
            }
            None => s.push_str("  \"trace\": null,\n  \"metrics\": null,\n"),
        }
        s.push_str("  \"summary\": {\n");
        let mut lines = Vec::new();
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = self.results.iter().map(|m| m.n).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let threads: Vec<usize> = {
            let mut v: Vec<usize> = self
                .results
                .iter()
                .filter(|m| m.backend != "seq")
                .map(|m| m.threads)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for kernel in ["spmv", "dot"] {
            for &n in &sizes {
                for &t in &threads {
                    if let Some(sp) = self.speedup(kernel, n, t) {
                        lines.push(format!("    \"{kernel}_speedup_{t}t_n{n}\": {sp:.3}"));
                    }
                }
            }
        }
        // Format-vs-CSR speedups per (matrix, threads) cell (> 1 means the
        // non-CSR format wins).
        for m in &self.formats {
            if m.format == "csr" {
                continue;
            }
            if let Some(sp) = self.format_speedup(&m.matrix, m.n, &m.format, m.threads) {
                lines.push(format!(
                    "    \"format_{}_over_csr_{}_{}t_n{}\": {:.3}",
                    m.format, m.matrix, m.threads, m.n, sp
                ));
            }
        }
        for m in &self.cutoff {
            lines.push(format!(
                "    \"cutoff_par_over_seq_{}t_nnz{}\": {:.3}",
                m.threads,
                m.nnz,
                m.par_over_seq()
            ));
        }
        for m in &self.overhead {
            lines.push(format!(
                "    \"overhead_spawn_over_pooled_{}_{}t_n{}\": {:.3}",
                m.kernel,
                m.threads,
                m.n,
                m.spawn_over_pooled()
            ));
        }
        for m in &self.overlap {
            lines.push(format!(
                "    \"overlap_blocking_over_split_{}_{}r_n{}_{}\": {:.4}",
                m.variant,
                m.n_ranks,
                m.n,
                m.cost_model,
                fmt_nonneg_zero(m.blocking_over_split())
            ));
        }
        // Cross-variant comparisons at matched (n, ranks, cost model)
        // cells, per iteration so convergence differences cannot fake or
        // mask the win (> 1 means the second-named recurrence is faster).
        let matched = |m: &OverlapMeasurement, c: &OverlapMeasurement| {
            m.n == c.n && m.n_ranks == c.n_ranks && m.cost_model == c.cost_model
        };
        for c in self.overlap.iter().filter(|m| m.variant == "classic") {
            if let Some(p) = self
                .overlap
                .iter()
                .find(|m| m.variant == "pipelined" && matched(m, c))
            {
                lines.push(format!(
                    "    \"overlap_classic_over_pipelined_split_{}r_n{}_{}\": {:.4}",
                    c.n_ranks,
                    c.n,
                    c.cost_model,
                    fmt_nonneg_zero(c.split_per_iter() / p.split_per_iter())
                ));
            }
        }
        for ss in self
            .overlap
            .iter()
            .filter(|m| m.variant.starts_with("sstep"))
        {
            if let Some(p) = self
                .overlap
                .iter()
                .find(|m| m.variant == "pipelined" && matched(m, ss))
            {
                lines.push(format!(
                    "    \"overlap_pipelined_over_{}_split_{}r_n{}_{}\": {:.4}",
                    ss.variant,
                    ss.n_ranks,
                    ss.n,
                    ss.cost_model,
                    fmt_nonneg_zero(p.split_per_iter() / ss.split_per_iter())
                ));
            }
        }
        s.push_str(&lines.join(",\n"));
        s.push_str("\n  }\n}\n");
        s
    }
}

/// Builds the ≈1e6-row matrix used by the acceptance benchmark (here so the
/// bin and tests agree on the workload).
pub fn acceptance_matrix() -> CsrMatrix {
    let edge = poisson3d_edge(1_000_000);
    poisson3d(edge, edge, edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that flip the process-global dispatch mode —
    /// without this, `run_kernel_bench`'s sweep and the mode assertion
    /// below race on multicore test runners.
    static DISPATCH_MODE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn edges_hit_targets() {
        assert_eq!(poisson3d_edge(1_000_000), 100);
        let e4 = poisson3d_edge(10_000);
        assert!((e4 * e4 * e4) as f64 / 1e4 > 0.8 && ((e4 * e4 * e4) as f64 / 1e4) < 1.3);
    }

    #[test]
    fn tiny_report_renders_json() {
        let _guard = DISPATCH_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let report = run_kernel_bench(&[1000], &[2], 3);
        assert!(
            report.results.len() == 5,
            "seq + par(2), spmv + dot, plus the single-thread bj_apply"
        );
        // n = 1000 is below the parallel cutoff, so the overhead sweep only
        // carries the bare dispatch row.
        assert_eq!(report.overhead.len(), 1);
        assert_eq!(report.overhead[0].kernel, "dispatch");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"esrcg-bench-kernels-v7\""));
        assert!(json.contains("\"kernel\": \"spmv\""));
        assert!(json.contains("\"kernel\": \"bj_apply\""));
        assert!(json.contains("spmv_speedup_2t_n1000"));
        assert!(json.contains("overhead_spawn_over_pooled_dispatch_2t_n0"));
        assert!(report.speedup("spmv", report.results[0].n, 2).is_some());
        assert!(
            json.contains("\"overlap\": ["),
            "v4 carries the overlap section"
        );
        assert!(
            json.contains("\"formats\": [") && json.contains("\"cutoff\": ["),
            "v5 carries the format and cutoff sections even when empty"
        );
        assert!(
            json.contains("\"crossover\": ["),
            "v6 carries the crossover section even when empty"
        );
        assert!(
            json.contains("\"trace\": {\"variant\": \"sstep4\"")
                && json.contains("\"metrics\": {")
                && json.contains("\"buffer_pool\": {\"takes\": "),
            "v7 carries the flight-recorder probe and its rollup"
        );
        let probe = report.trace.as_ref().expect("the bench runs the probe");
        assert!(probe.recovery_seconds > 0.0, "the probe's failure recovers");
        assert!(probe.perfetto.starts_with('{'));
    }

    /// The probe is a pure function of the modeled execution: rebuilding it
    /// reproduces the Perfetto document and the rollup byte-for-byte, which
    /// is what lets CI `cmp` kernels artifacts across `--workers` counts.
    #[test]
    fn trace_probe_is_deterministic_and_validated() {
        let a = run_trace_probe();
        let b = run_trace_probe();
        assert_eq!(a.perfetto, b.perfetto, "Perfetto document is byte-stable");
        assert_eq!(a.metrics, b.metrics, "rollup is byte-stable");
        assert_eq!(a.recovery_seconds.to_bits(), b.recovery_seconds.to_bits());
        assert!(a.events > 0 && a.perfetto_events > 0);
        assert_eq!(a.metrics.failures, 1, "exactly the injected failure");
        assert!(a.metrics.sends > 0, "Full records message events");
    }

    #[test]
    fn format_sweep_is_bitwise_and_order_stable_across_workers() {
        let specs = format_sweep_matrices(600);
        assert_eq!(specs.len(), 3);
        let formats = [SpmvFormat::Csr, SpmvFormat::sell(), SpmvFormat::bcsr3()];
        let serial = run_format_sweep(&specs, &formats, &[2], 2, 1);
        let threaded = run_format_sweep(&specs, &formats, &[2], 2, 4);
        // 3 matrices × (seq + par(2)) × 3 formats.
        assert_eq!(serial.len(), 18);
        assert_eq!(threaded.len(), 18);
        for (a, b) in serial.iter().zip(&threaded) {
            // Deterministic fields agree row-for-row: worker scheduling
            // never reorders or relabels cells (timings of course differ).
            assert_eq!(
                (&a.matrix, a.n, a.nnz, a.slots, &a.format, a.threads, &a.backend),
                (&b.matrix, b.n, b.nnz, b.slots, &b.format, b.threads, &b.backend)
            );
            assert!(a.padding_ratio() >= 1.0, "padding never shrinks storage");
            assert!(a.secs > 0.0 && a.gflops > 0.0);
        }
        let mut report = KernelReport {
            host_threads: 1,
            results: Vec::new(),
            formats: serial,
            cutoff: Vec::new(),
            overhead: Vec::new(),
            overlap: Vec::new(),
            trace: None,
        };
        let json = report.to_json();
        assert!(json.contains("format_sell-8-64_over_csr_poisson2d_1t_n"));
        assert!(json.contains("format_bcsr-3x3_over_csr_elasticity_1t_n"));
        // Deterministic mode zeroes every wall-clock field; rendering stays
        // valid JSON (no NaN ratios) and is reproducible.
        report.zero_wall_clock();
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"secs_per_iter\": 0.000000000"));
        assert!(!a.contains("NaN") && !a.contains("inf"));
    }

    #[test]
    fn committed_fixture_feeds_the_matrix_cell() {
        // The file the CI smoke run passes via --matrix: it must parse with
        // the repo's own reader and agree with the generator it mirrors.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/poisson2d_4x4.mtx");
        let a = esrcg_sparse::mm::read_matrix_market_file(path).expect("fixture parses");
        assert_eq!((a.nrows(), a.nnz()), (16, 64), "mirrored 5-point stencil");
        let generated = poisson2d(4, 4);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin()).collect();
        let seq = KernelBackend::Sequential;
        assert_eq!(seq.spmv(&a, &x), seq.spmv(&generated, &x));
        let specs = [FormatSweepSpec {
            name: "poisson2d_4x4".to_string(),
            a,
        }];
        let rows = run_format_sweep(
            &specs,
            &[SpmvFormat::Csr, SpmvFormat::sell(), SpmvFormat::bcsr3()],
            &[],
            2,
            1,
        );
        assert_eq!(rows.len(), 3, "seq backend × 3 formats");
        assert!(rows.iter().all(|m| m.matrix == "poisson2d_4x4"));
    }

    #[test]
    fn cutoff_sweep_straddles_the_nnz_gate() {
        let rows = run_cutoff_sweep(&[1, 2], 2);
        // t = 1 contributes nothing; t = 2 gives one row per size.
        assert_eq!(rows.len(), 2);
        assert!(rows[0].gated, "~66k entries sit below the 200k gate");
        assert!(rows[0].nnz < SPMV_PARALLEL_NNZ_CUTOFF);
        assert!(!rows[1].gated, "~219k entries clear the gate");
        assert!(rows[1].nnz >= SPMV_PARALLEL_NNZ_CUTOFF);
        for m in &rows {
            assert_eq!(m.threads, 2);
            assert!(m.seq_secs > 0.0 && m.par_secs > 0.0);
        }
        let report = KernelReport {
            host_threads: 1,
            results: Vec::new(),
            formats: Vec::new(),
            cutoff: rows,
            overhead: Vec::new(),
            overlap: Vec::new(),
            trace: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"gated\": true"));
        assert!(json.contains("cutoff_par_over_seq_2t_nnz"));
    }

    #[test]
    fn overlap_sweep_reports_a_split_phase_win() {
        // Small grid so the debug-mode sweep stays cheap; the modeled-clock
        // comparison is deterministic, so strict inequality is a stable
        // assertion, not a flaky benchmark.
        let rows = run_overlap_sweep(
            &[4],
            24,
            24,
            &[PcgVariant::Classic],
            &[CostModel::default()],
        );
        assert_eq!(rows.len(), 1);
        let m = &rows[0];
        assert_eq!(
            (m.matrix, m.variant, m.cost_model, m.n, m.n_ranks),
            ("poisson2d", "classic", "default", 576, 4)
        );
        assert_eq!(m.reductions_per_iteration, 2.0);
        assert!(m.iterations > 0);
        assert_eq!(m.interior_rows + m.boundary_rows, m.n);
        assert!(m.boundary_rows > 0, "4 ranks couple across block edges");
        assert!(
            m.split_time < m.blocking_time,
            "split {} vs blocking {}",
            m.split_time,
            m.blocking_time
        );
        assert!(m.blocking_over_split() > 1.0);
        assert!(
            m.split_spmv_wait < m.blocking_spmv_wait,
            "the overlap hides halo wait: {} vs {}",
            m.split_spmv_wait,
            m.blocking_spmv_wait
        );
        // Rendering a report carrying overlap rows includes the summary key.
        let report = KernelReport {
            host_threads: 1,
            results: Vec::new(),
            formats: Vec::new(),
            cutoff: Vec::new(),
            overhead: Vec::new(),
            overlap: rows,
            trace: None,
        };
        assert!(report
            .to_json()
            .contains("overlap_blocking_over_split_classic_4r_n576_default"));
    }

    #[test]
    fn overlap_sweep_reports_a_pipelined_win() {
        let rows = run_overlap_sweep(
            &[8],
            24,
            24,
            &[PcgVariant::Classic, PcgVariant::Pipelined],
            &[CostModel::default()],
        );
        assert_eq!(rows.len(), 2);
        let classic = &rows[0];
        let pipelined = &rows[1];
        assert_eq!(classic.variant, "classic");
        assert_eq!(pipelined.variant, "pipelined");
        assert_eq!(pipelined.reductions_per_iteration, 1.0);
        assert!(
            pipelined.split_per_iter() < classic.split_per_iter(),
            "pipelined {} vs classic {} split-phase seconds per iteration",
            pipelined.split_per_iter(),
            classic.split_per_iter()
        );
        let classic_wait = classic.split_reduction_wait / classic.iterations as f64;
        let pipelined_wait = pipelined.split_reduction_wait / pipelined.iterations as f64;
        assert!(
            pipelined_wait < classic_wait,
            "the pipeline hides reduction wait: {pipelined_wait} vs {classic_wait}"
        );
        let report = KernelReport {
            host_threads: 1,
            results: Vec::new(),
            formats: Vec::new(),
            cutoff: Vec::new(),
            overhead: Vec::new(),
            overlap: rows,
            trace: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"variant\": \"pipelined\""));
        assert!(json.contains("overlap_classic_over_pipelined_split_8r_n576_default"));
    }

    /// The tentpole's headline: under the latency-dominated preset at 16
    /// ranks the s-step recurrence strictly beats even the pipelined one
    /// on modeled seconds per iteration, and the crossover section names
    /// it the winner of that cell.
    #[test]
    fn overlap_sweep_reports_the_sstep_crossover_under_latency() {
        let rows = run_overlap_sweep(
            &[16],
            24,
            24,
            &[PcgVariant::Pipelined, PcgVariant::SStep { s: 4 }],
            &[CostModel::default(), CostModel::latency_dominated()],
        );
        assert_eq!(rows.len(), 4, "2 cost models × 2 variants");
        let find = |cost: &str, variant: &str| {
            rows.iter()
                .find(|m| m.cost_model == cost && m.variant == variant)
                .expect("row present")
        };
        let sstep = find("latency-dominated", "sstep4");
        let pipelined = find("latency-dominated", "pipelined");
        assert_eq!(sstep.reductions_per_iteration, 0.25, "1/s fused Grams");
        assert!(
            sstep.split_per_iter() < pipelined.split_per_iter(),
            "sstep {} vs pipelined {} modeled split seconds per iteration \
             under the latency-dominated preset",
            sstep.split_per_iter(),
            pipelined.split_per_iter()
        );
        let report = KernelReport {
            host_threads: 1,
            results: Vec::new(),
            formats: Vec::new(),
            cutoff: Vec::new(),
            overhead: Vec::new(),
            overlap: rows,
            trace: None,
        };
        let winners = report.crossover_winners();
        assert_eq!(winners.len(), 2, "one winner per cost model");
        let latency_winner = winners
            .iter()
            .find(|w| w.cost_model == "latency-dominated")
            .unwrap();
        assert_eq!(latency_winner.variant, "sstep4");
        let json = report.to_json();
        assert!(json.contains("\"winner\": \"sstep4\""));
        assert!(json.contains("\"reductions_per_iteration\": 0.2500"));
        assert!(json.contains("overlap_pipelined_over_sstep4_split_16r_n576_latency-dominated"));
    }

    #[test]
    fn overhead_sweep_covers_small_sizes_under_both_modes() {
        let _guard = DISPATCH_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rows = run_overhead_sweep(&[10_000], &[1, 2], 3);
        assert_eq!(
            pool::dispatch_mode(),
            DispatchMode::Pooled,
            "sweep restores the default dispatch mode"
        );
        // t = 1 contributes nothing; t = 2 gives dispatch + spmv + dot.
        let kernels: Vec<&str> = rows.iter().map(|m| m.kernel).collect();
        assert_eq!(kernels, vec!["dispatch", "spmv", "dot"]);
        for m in &rows {
            assert_eq!(m.threads, 2);
            assert!(m.pooled_secs > 0.0 && m.spawn_secs > 0.0);
            assert!(m.spawn_over_pooled() > 0.0);
        }
        assert!(rows[1].n >= PARALLEL_CUTOFF);
    }
}
