//! Per-layer probes of the traced pass. Each probe times calls into one
//! layer's public functions from outside, on the workload's own matrix,
//! partition and configuration:
//!
//! * `sparse.gen` — `MatrixSource::build_arc`;
//! * `core.setup` — `SharedProblem::assemble_shared`, split into
//!   `PrecondSpec::build`, `CommPlan::build`, `RowSplitSet::build` and
//!   `AspmvPlan::build`;
//! * `sparse.backend` / `precond` — one classic-PCG iteration's kernels
//!   (`spmv_rows_into`, `apply_local`, `dot`/`axpy`/`axpby`) replayed on
//!   every rank's rows at once, with the solver's subdivided backend;
//! * `cluster.spmd` — `run_spmd` with an empty body;
//! * `cluster.comm` — one iteration's messages with no compute: the halo
//!   of `CommPlan`, the ASpMV extras every T-th round, two allreduces.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use esrcg_cluster::{run_spmd, CostModel, Ctx, Payload};
use esrcg_core::aspmv::AspmvPlan;
use esrcg_core::dist::plan::CommPlan;
use esrcg_core::driver::MatrixSource;
use esrcg_core::solver::{SharedProblem, SolverConfig};
use esrcg_core::Strategy;
use esrcg_precond::PrecondSpec;
use esrcg_sparse::rng::SplitMix64;
use esrcg_sparse::{KernelBackend, Partition, RowSplitSet};

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{metric, Metric};

/// The configuration the probes replay: one representative resilient run
/// of the workload.
pub struct Probe {
    /// The matrix.
    pub matrix: MatrixSource,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// An ESRP strategy (its T paces the ASpMV extras).
    pub strategy: Strategy,
    /// Redundancy level φ.
    pub phi: usize,
    /// Right-hand-side seed.
    pub rhs_seed: u64,
}

/// Calls `f` until `budget_s` seconds are spent (at least `min_reps`
/// times, at most 200) and returns the median seconds per call.
fn timed(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_reps
        || (started.elapsed().as_secs_f64() < budget_s && samples.len() < 200)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Times `iters` rounds of `round` on every rank at once, started together
/// behind a barrier; returns the slowest rank's µs per round.
fn replay<F>(n_ranks: usize, iters: usize, round: F) -> f64
where
    F: Fn(&mut Ctx, usize) + Sync,
{
    let out = run_spmd(n_ranks, CostModel::default(), |ctx| {
        ctx.barrier();
        let t = Instant::now();
        for k in 0..iters {
            round(ctx, k);
        }
        t.elapsed().as_secs_f64()
    });
    1e6 * out.results.into_iter().fold(0.0, f64::max) / iters as f64
}

/// [`replay`] with the round count sized to about a quarter second.
fn replay_sized<F>(n_ranks: usize, round: F) -> f64
where
    F: Fn(&mut Ctx, usize) + Sync,
{
    let estimate_us = replay(n_ranks, 5, &round);
    let iters = (0.25e6 / estimate_us.max(1e-3)).clamp(5.0, 20_000.0) as usize;
    replay(n_ranks, iters, &round)
}

/// Per-layer timings of one probe.
pub struct LayerTimes {
    /// Everything as metrics, in report order.
    pub metrics: Vec<Metric>,
    /// SpMV + preconditioner + vector kernels per iteration (µs).
    pub kernel_us: f64,
    /// One message round per iteration (µs).
    pub round_us: f64,
}

/// Halo payload tag of the message replay.
const HALO_TAG: u64 = 1;
/// ASpMV extra-copy tag of the message replay.
const EXTRA_TAG: u64 = 2;

fn send_f64s(ctx: &mut Ctx, to: usize, tag: u64, len: usize) {
    let mut v = ctx.take_f64s();
    v.resize(len, 0.0);
    ctx.send(to, tag, Payload::F64s(v));
}

/// Runs every probe of `p`, inside spans under the current one.
pub fn probe_layers(p: &Probe, spans: &mut Spans) -> LayerTimes {
    let mut m = Vec::new();
    let a = p.matrix.build_arc().expect("probe matrix builds");
    let n = a.nrows();
    let gen_s = spans.time("sparse.gen", 0, |_| {
        timed(1.0, 3, || {
            black_box(p.matrix.build_arc().expect("probe matrix builds"));
        })
    });
    m.push(metric("sparse.gen.wall_s", gen_s, "s"));

    let mut rng = SplitMix64::new(p.rhs_seed);
    let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let cfg = SolverConfig::new(p.strategy, p.phi);
    let setup_s = spans.time("core.setup", 0, |_| {
        timed(1.0, 3, || {
            let (a, b, x0) = (a.clone(), b.clone(), vec![0.0; n]);
            let t = PrecondSpec::paper_default();
            black_box(
                SharedProblem::assemble_shared(a, b, x0, p.n_ranks, t, cfg.clone())
                    .expect("probe problem assembles"),
            );
        })
    });
    m.push(metric("core.setup.wall_s", setup_s, "s"));
    let part = Partition::balanced(n, p.n_ranks);
    let plan = CommPlan::build(&a, &part);
    let steps: [(&str, &dyn Fn()); 4] = [
        ("precond.build", &|| {
            black_box(PrecondSpec::paper_default().build(&a, &part).expect("SPD"));
        }),
        ("core.dist.plan", &|| {
            black_box(CommPlan::build(&a, &part));
        }),
        ("sparse.split", &|| {
            black_box(RowSplitSet::build(&a, &part));
        }),
        ("core.aspmv.plan", &|| {
            black_box(AspmvPlan::build(&plan, &part, p.phi));
        }),
    ];
    spans.time("core.setup.split", 0, |spans| {
        for (layer, step) in steps {
            let wall_s = spans.time(layer, 0, |_| timed(0.5, 3, step));
            m.push(metric(format!("{layer}.wall_s"), wall_s, "s"));
        }
    });

    // --- kernels: one classic-PCG iteration on every rank's rows ----------
    let shared = SharedProblem::assemble_shared(
        a.clone(),
        b,
        vec![0.0; n],
        p.n_ranks,
        PrecondSpec::paper_default(),
        cfg,
    )
    .expect("probe problem assembles");
    let be = KernelBackend::default().subdivided(p.n_ranks);
    let x = vec![1.0; n];
    // Per-rank operands and outputs, allocated once outside the timing.
    let locals: Vec<Vec<f64>> = (0..p.n_ranks)
        .map(|r| vec![0.5; part.local_len(r)])
        .collect();
    let outs: Vec<Mutex<[Vec<f64>; 2]>> = locals
        .iter()
        .map(|l| Mutex::new([l.clone(), l.clone()]))
        .collect();
    let out_of = |ctx: &Ctx| outs[ctx.rank()].lock().expect("no rank panicked");
    let spmv_us = spans.time("sparse.backend.spmv", 0, |_| {
        replay_sized(p.n_ranks, |ctx, _| {
            let mut out = out_of(ctx);
            be.spmv_rows_into(&a, part.range(ctx.rank()), &x, &mut out[0]);
            black_box(&out[0]);
        })
    });
    let precond_us = spans.time("precond.apply", 0, |_| {
        replay_sized(p.n_ranks, |ctx, _| {
            let r = ctx.rank();
            let mut out = out_of(ctx);
            shared
                .precond
                .apply_local(part.range(r), &locals[r], &mut out[0]);
            black_box(&out[0]);
        })
    });
    let vecops_us = spans.time("sparse.backend.vecops", 0, |_| {
        replay_sized(p.n_ranks, |ctx, _| {
            let r = &locals[ctx.rank()];
            let mut out = out_of(ctx);
            let [u, w] = &mut *out;
            let d = be.dot(r, u) + be.dot(u, w) + be.dot(r, r);
            be.axpy(1e-3, r, u);
            be.axpy(-1e-3, r, w);
            be.axpby(1.0, r, 0.5, u);
            black_box(d);
        })
    });
    let nnz = a.nnz() as f64;
    let kernel_us = spmv_us + precond_us + vecops_us;
    m.push(metric("sparse.spmv.us_per_iter", spmv_us, "us"));
    m.push(metric("precond.apply.us_per_iter", precond_us, "us"));
    m.push(metric("sparse.vecops.us_per_iter", vecops_us, "us"));
    m.push(metric(
        "sparse.spmv.gflops",
        2.0 * nnz / (spmv_us * 1e3),
        "GFLOP/s",
    ));
    // CSR bytes one SpMV must touch at least: values and column indices,
    // row pointers, one x read per entry and one y write per row
    // (computed, not measured: cache misses are not counted).
    let bytes = 16.0 * nnz + 8.0 * (n as f64 + 1.0) + 8.0 * nnz + 8.0 * n as f64;
    m.push(metric("sparse.spmv.bytes_computed", bytes, "B"));

    // --- runtime: spawn and one message round --------------------------------
    let spawn_us = spans.time("cluster.spawn", 0, |_| {
        1e6 * timed(0.5, 20, || {
            black_box(run_spmd(p.n_ranks, CostModel::default(), |_| ()));
        })
    });
    m.push(metric("cluster.spawn_us", spawn_us, "us"));
    let aspmv = AspmvPlan::build(&plan, &part, p.phi);
    let t = p.strategy.interval().unwrap_or(1);
    let round_us = spans.time("cluster.comm", 0, |_| {
        replay_sized(p.n_ranks, |ctx, k| {
            let rank = ctx.rank();
            let extras = k % t == 0;
            for (dst, idx) in plan.sends_of(rank) {
                send_f64s(ctx, *dst, HALO_TAG, idx.len());
            }
            if extras {
                for (dst, idx) in aspmv.extras_of(rank) {
                    send_f64s(ctx, *dst, EXTRA_TAG, idx.len());
                }
            }
            for (src, _) in plan.recvs_of(rank) {
                let got = ctx.recv(*src, HALO_TAG);
                ctx.recycle(got);
            }
            if extras {
                for &src in aspmv.extra_sources_of(rank) {
                    let got = ctx.recv(src, EXTRA_TAG);
                    ctx.recycle(got);
                }
            }
            black_box(ctx.allreduce_sum_scalar(1.0));
            black_box(ctx.allreduce_sum(&[1.0, 2.0]));
        })
    });
    m.push(metric("cluster.round_us", round_us, "us"));
    LayerTimes {
        metrics: m,
        kernel_us,
        round_us,
    }
}
