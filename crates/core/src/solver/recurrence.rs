//! The per-recurrence half of the resilient PCG loop.
//!
//! [`solve_node`](crate::solver::solve_node) runs one driver loop that owns
//! the resilience protocol every recurrence shares: the exit tests, the
//! iteration mark, IMCR checkpoint rounds, the ESRP star stage, failure
//! detection, recovery, re-tuning and the drift epilogue. A [`Recurrence`]
//! supplies only what really differs between the classic, pipelined and
//! s-step PCG recurrences: how the state is initialized, how the search
//! direction is protected before the failure check, where a failure rolls
//! back to, how one trip advances the iterate, and what must be rebuilt
//! after a rollback. The driver is generic over the trait, so the hot loop
//! is monomorphised per recurrence and has no dynamic dispatch.

use std::ops::Range;

use esrcg_cluster::{Ctx, InstantKind, Phase, Tag};
use esrcg_sparse::KernelBackend;

use super::state::{NodeState, SStepAux};
use super::tuning::IntervalSchedule;
use super::{
    aspmv_extras, capture_direction, dist_spmv, dist_spmv_hooked, SharedProblem, INIT_TAG,
    INIT_TAG_G, INIT_TAG_W, RECOVERY_TAG_G, RECOVERY_TAG_S, RECOVERY_TAG_W,
};

const PIPELINED_AUX: &str = "pipelined state carries its auxiliary vectors";

/// One PCG recurrence, as seen by the resilient driver loop.
///
/// A loop trip covers the iteration window `j..j + window_len()` (clipped
/// to `max_iters`). Protection data always describes the state at the
/// window start, where every recurrence holds the classic-shaped
/// `[x, r, z, p, β]` that recovery reconstructs or restores.
pub(crate) trait Recurrence {
    /// What a trip that ends in a failure adds to `total_loop_trips`. The
    /// per-iteration recurrences count loop trips, failed ones included
    /// (1); s-step counts committed CG iterations (0).
    const TRIPS_ON_FAILURE: usize;

    /// Iterations one loop trip covers: 1, or the s-step block size.
    fn window_len(&self) -> usize {
        1
    }

    /// Fresh, pre-initialization state for a node owning `nloc` indices.
    fn new_state(&self, nloc: usize) -> NodeState {
        NodeState::new(nloc)
    }

    /// Length of this recurrence's IMCR checkpoint blob on a node owning
    /// `nloc` indices (the layout is [`NodeState::checkpoint_blob_into`]'s).
    fn checkpoint_blob_len(&self, nloc: usize) -> usize {
        NodeState::checkpoint_blob_len(nloc, false)
    }

    /// (Re)initializes the state from the static data; returns
    /// `(‖b‖₂², r·r)`. Also the full-restart path of recovery. Default:
    /// the classic-shaped state of [`init_classic`].
    fn init(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
    ) -> (f64, f64) {
        init_classic(ctx, shared, st, full)
    }

    /// The trip's work before the failure check. Returns true when it
    /// captured redundant copies of the search direction (an ESR round, or
    /// the capture an ESRP star stage in this window relies on).
    fn protect(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
        sched: &IntervalSchedule,
        window: Range<usize>,
    ) -> bool;

    /// Where a failure at `j_f` rolls back to. `last_protect` is the last
    /// trip start whose state was protected.
    fn rollback_target(
        &self,
        sched: &IntervalSchedule,
        j_f: usize,
        _last_protect: Option<usize>,
    ) -> Option<usize> {
        sched.rollback_target(j_f)
    }

    /// Runs the trip's window after a clean failure check. Returns the CG
    /// iterations committed (≥ 1) and the relative residual reached.
    fn advance(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
        window: Range<usize>,
        bnorm2: f64,
    ) -> (usize, f64);

    /// Completes a rollback inside the recovery window. ESR/ESRP
    /// reconstruction restores `[x, r, z, p, β]` only; an IMCR restore
    /// (`from_checkpoint`) restores the recurrence's whole blob. Default:
    /// re-reduce `r·z`, which a classic-shaped state does not carry — after
    /// an IMCR restore from bitwise-restored `r` and `z`, so it is the
    /// checkpoint-time value.
    fn resync(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        _full: &mut [f64],
        _from_checkpoint: bool,
    ) {
        let rz_loc = backend(ctx, shared).dot(&st.r, &st.z);
        ctx.charge_flops(2 * st.r.len() as u64);
        st.rz = ctx.allreduce_sum_scalar(rz_loc);
    }

    /// Runs after the recovery window and the re-tune, with the state at
    /// iteration `j`. Default: nothing.
    fn after_recovery(
        &mut self,
        _ctx: &mut Ctx,
        _shared: &SharedProblem,
        _st: &NodeState,
        _j: usize,
    ) {
    }
}

/// The rank's kernel backend: each rank runs on its own OS thread, so the
/// kernel thread budget is divided and the ranks together use the machine
/// once over, not `n_ranks` times.
fn backend(ctx: &Ctx, shared: &SharedProblem) -> KernelBackend {
    shared.cfg.backend.subdivided(ctx.size())
}

/// The initialization prefix every recurrence shares: `x = x0`,
/// `r = b − A x`, `z = M⁻¹r`. Compute charges to the surrounding phase.
fn init_residual(ctx: &mut Ctx, shared: &SharedProblem, st: &mut NodeState, full: &mut [f64]) {
    let be = backend(ctx, shared);
    let range = shared.part.range(ctx.rank());
    st.x.copy_from_slice(&shared.x0[range.clone()]);
    let NodeState { x, q, .. } = st;
    dist_spmv(ctx, shared, be, x, INIT_TAG, full, q, None);
    for i in 0..range.len() {
        st.r[i] = shared.b[range.start + i] - st.q[i];
    }
    ctx.charge_flops(range.len() as u64);
    shared.precond.apply_local(range.clone(), &st.r, &mut st.z);
    ctx.charge_flops(shared.precond.apply_flops(range));
}

/// Initializes the classic-shaped state: [`init_residual`], `p = z`, and
/// one fused vector allreduce of all init scalars (b·b, r·z, r·r), so
/// startup pays a single tree latency. Element-wise tree sums are
/// component-independent, so each fused value is bitwise identical to a
/// separate reduction. The reduction is attributed to [`Phase::Reduction`].
fn init_classic(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    st: &mut NodeState,
    full: &mut [f64],
) -> (f64, f64) {
    init_residual(ctx, shared, st, full);
    let be = backend(ctx, shared);
    let range = shared.part.range(ctx.rank());
    st.p.copy_from_slice(&st.z);

    let b_loc = &shared.b[range.clone()];
    let bb_loc = be.dot(b_loc, b_loc);
    let rz_loc = be.dot(&st.r, &st.z);
    let rr_loc = be.dot(&st.r, &st.r);
    ctx.charge_flops(6 * range.len() as u64);
    let prev = ctx.set_phase(Phase::Reduction);
    let red = ctx.allreduce_sum(&[bb_loc, rz_loc, rr_loc]);
    ctx.set_phase(prev);
    let (bnorm2, rr) = (red[0], red[2]);
    st.rz = red[1];
    st.beta_prev = 0.0;
    ctx.recycle_f64s(red);
    (bnorm2, rr)
}

/// The classic PCG recurrence (paper Alg. 3) — the bitwise-reference
/// baseline: two blocking reductions per iteration (pᵀAp, then the fused
/// r·z/r·r). Its redundant copies ride on the SpMV's own halo exchange.
pub(crate) struct Classic;

impl Recurrence for Classic {
    const TRIPS_ON_FAILURE: usize = 1;

    /// The SpMV `q = A p`, augmented (ASpMV) on ESR/ESRP iterations.
    fn protect(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
        sched: &IntervalSchedule,
        window: Range<usize>,
    ) -> bool {
        let j = window.start;
        let be = backend(ctx, shared);
        let augmented = sched.augmented(j);
        ctx.set_phase(Phase::SpMV);
        let NodeState { p, q, queue, .. } = st;
        if augmented {
            // Both modes preserve the blocking capture order — halo
            // receives in source order (complete when the hook runs), then
            // the extras — so the redundancy queue is bit-identical under
            // either schedule.
            let mut captured: Vec<(usize, f64)> = Vec::new();
            let p_ref: &[f64] = p;
            let range_start = shared.part.start(ctx.rank());
            dist_spmv_hooked(
                ctx,
                shared,
                be,
                p_ref,
                j as u32,
                full,
                q,
                Some(&mut captured),
                |ctx, cap| {
                    let cap = cap.expect("augmented SpMV always captures");
                    aspmv_extras(ctx, shared, p_ref, range_start, j, cap);
                    ctx.trace_instant(InstantKind::StorageRound, j as u64);
                    ctx.set_phase(Phase::SpMV);
                },
            );
            queue.push(j, captured);
        } else {
            dist_spmv(ctx, shared, be, p, j as u32, full, q, None);
        }
        augmented
    }

    fn advance(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        _full: &mut [f64],
        _window: Range<usize>,
        bnorm2: f64,
    ) -> (usize, f64) {
        let be = backend(ctx, shared);
        let range = shared.part.range(ctx.rank());
        let nloc = range.len();

        // --- α = r·z / p·Ap ------------------------------------------------
        ctx.set_phase(Phase::Reduction);
        let pq_loc = be.dot(&st.p, &st.q);
        ctx.charge_flops(2 * nloc as u64);
        let pap = ctx.allreduce_sum_scalar(pq_loc);
        assert!(
            pap > 0.0,
            "pᵀAp = {pap} ≤ 0: matrix not SPD to working precision"
        );
        let alpha = st.rz / pap;

        // --- x += αp, r −= αq (one fused sweep) ----------------------------
        ctx.set_phase(Phase::VecOps);
        be.fused_axpy2(alpha, &st.p, &st.q, &mut st.x, &mut st.r);
        ctx.charge_flops(4 * nloc as u64);

        // --- z = P r --------------------------------------------------------
        ctx.set_phase(Phase::Precond);
        shared.precond.apply_local(range.clone(), &st.r, &mut st.z);
        ctx.charge_flops(shared.precond.apply_flops(range.clone()));

        // --- β and the convergence norm (one fused reduction) -------------
        ctx.set_phase(Phase::Reduction);
        let rz_loc = be.dot(&st.r, &st.z);
        let rr_loc = be.dot(&st.r, &st.r);
        ctx.charge_flops(4 * nloc as u64);
        let red = ctx.allreduce_sum(&[rz_loc, rr_loc]);
        let (rz_new, rr) = (red[0], red[1]);
        ctx.recycle_f64s(red);
        let beta = rz_new / st.rz;
        st.rz = rz_new;

        // --- p = z + βp -----------------------------------------------------
        ctx.set_phase(Phase::VecOps);
        be.axpby(1.0, &st.z, beta, &mut st.p);
        ctx.charge_flops(2 * nloc as u64);
        st.beta_prev = beta;
        (1, (rr / bnorm2).sqrt())
    }
}

/// The pipelined PCG recurrence (Ghysels–Vanroose): one fused γ/δ/‖r‖²
/// reduction per iteration, started before the preconditioner and SpMV
/// and finished after them. Entering a trip, the state carries
/// iteration-`j` values of `x, r, u(=z), w, p, s(=q), h, g` plus the
/// replicated γ = r·u and the recurrence pᵀAp, so α = γ/pᵀAp is known
/// immediately and the only reduction of the trip overlaps the heavy
/// kernels. See `ARCHITECTURE.md` §"Pipelined reduction pipeline".
pub(crate) struct Pipelined;

impl Recurrence for Pipelined {
    const TRIPS_ON_FAILURE: usize = 1;

    fn new_state(&self, nloc: usize) -> NodeState {
        NodeState::new_pipelined(nloc)
    }

    fn checkpoint_blob_len(&self, nloc: usize) -> usize {
        NodeState::checkpoint_blob_len(nloc, true)
    }

    /// On top of the classic prefix it establishes `w = Au`,
    /// `s ≡ q = Ap = w`, `h = M⁻¹s`, `g = Ah`, γ = r·z, and
    /// `pAp = δ = w·u`. The single fused init allreduce `[b·b, γ, δ, r·r]`
    /// is *started* before the `h`/`g` stage and finished after it, so
    /// even initialization overlaps its reduction.
    fn init(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
    ) -> (f64, f64) {
        init_residual(ctx, shared, st, full);
        let be = backend(ctx, shared);
        let range = shared.part.range(ctx.rank());
        let NodeState {
            r,
            z,
            p,
            q,
            rz,
            beta_prev,
            aux,
            ..
        } = st;
        let aux = aux.as_deref_mut().expect(PIPELINED_AUX);

        // w = A u (u lives in z).
        dist_spmv(ctx, shared, be, z, INIT_TAG_W, full, &mut aux.w, None);

        let b_loc = &shared.b[range.clone()];
        let bb_loc = be.dot(b_loc, b_loc);
        let gamma_loc = be.dot(r, z);
        let delta_loc = be.dot(&aux.w, z);
        let rr_loc = be.dot(r, r);
        ctx.charge_flops(8 * range.len() as u64);
        let prev = ctx.set_phase(Phase::Reduction);
        let pending = ctx.allreduce_sum_start(&[bb_loc, gamma_loc, delta_loc, rr_loc]);

        // h = M⁻¹w and g = Ah compute while the init reduction flies.
        ctx.set_phase(Phase::Precond);
        shared
            .precond
            .apply_local(range.clone(), &aux.w, &mut aux.h);
        ctx.charge_flops(shared.precond.apply_flops(range));
        ctx.set_phase(Phase::SpMV);
        dist_spmv(ctx, shared, be, &aux.h, INIT_TAG_G, full, &mut aux.g, None);

        ctx.set_phase(Phase::Reduction);
        let red = pending.finish(ctx);
        ctx.set_phase(prev);
        let (bnorm2, rr) = (red[0], red[3]);
        *rz = red[1]; // γ₀
        aux.pap = red[2]; // pAp₀ = δ₀ (p₀ = u₀ makes them equal)
        ctx.recycle_f64s(red);

        // β₀ = 0 collapses the first recurrences: p = u, s = w.
        p.copy_from_slice(z);
        q.copy_from_slice(&aux.w);
        *beta_prev = 0.0;
        (bnorm2, rr)
    }

    /// The pipelined SpMV communicates m = M⁻¹w, not p, so the ASpMV's
    /// free halo ride of the search direction disappears. Augmented
    /// iterations therefore ship p explicitly over the same halo + extras
    /// index sets, keeping the redundancy queue's coverage guarantee (and
    /// its contents) identical to Classic's.
    fn protect(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        _full: &mut [f64],
        sched: &IntervalSchedule,
        window: Range<usize>,
    ) -> bool {
        let j = window.start;
        let augmented = sched.augmented(j);
        if augmented {
            capture_direction(ctx, shared, &st.p, j, Tag::PipelinedP, &mut st.queue);
        }
        augmented
    }

    fn advance(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
        window: Range<usize>,
        bnorm2: f64,
    ) -> (usize, f64) {
        let be = backend(ctx, shared);
        let range = shared.part.range(ctx.rank());
        let nloc = range.len();
        let NodeState {
            x,
            r,
            z,
            p,
            q,
            rz,
            beta_prev,
            aux,
            ..
        } = st;
        let aux = aux.as_deref_mut().expect(PIPELINED_AUX);

        // --- α = γ / pᵀAp (both replicated; no reduction needed) ----------
        let pap = aux.pap;
        assert!(
            pap > 0.0,
            "pᵀAp = {pap} ≤ 0: matrix not SPD to working precision, or the \
             pipelined recurrence drifted past the attainable accuracy"
        );
        let alpha = *rz / pap;

        // --- x += αp, r −= αs, u −= αh, w −= αg ---------------------------
        ctx.set_phase(Phase::VecOps);
        be.fused_axpy2(alpha, p, q, x, r);
        be.axpby(-alpha, &aux.h, 1.0, z);
        be.axpby(-alpha, &aux.g, 1.0, &mut aux.w);
        ctx.charge_flops(8 * nloc as u64);

        // --- Fire the fused reduction [γ', δ', ‖r‖²] ----------------------
        ctx.set_phase(Phase::Reduction);
        let (gamma_loc, delta_loc, rr_loc) = (be.dot(r, z), be.dot(&aux.w, z), be.dot(r, r));
        ctx.charge_flops(6 * nloc as u64);
        let pending = ctx.allreduce_sum_start(&[gamma_loc, delta_loc, rr_loc]);

        // --- m = M⁻¹w and n = Am while the reduction flies ----------------
        ctx.set_phase(Phase::Precond);
        shared
            .precond
            .apply_local(range.clone(), &aux.w, &mut aux.m);
        ctx.charge_flops(shared.precond.apply_flops(range));
        ctx.set_phase(Phase::SpMV);
        let j = window.start;
        dist_spmv(ctx, shared, be, &aux.m, j as u32, full, &mut aux.n, None);

        // --- Complete the recurrence scalars ------------------------------
        ctx.set_phase(Phase::Reduction);
        let red = pending.finish(ctx);
        let (gamma_new, delta, rr) = (red[0], red[1], red[2]);
        ctx.recycle_f64s(red);
        let beta = gamma_new / *rz;
        aux.pap = delta - beta * beta * aux.pap;
        *rz = gamma_new;

        // --- p = u + βp, s = w + βs, h = m + βh, g = n + βg ---------------
        ctx.set_phase(Phase::VecOps);
        be.axpby(1.0, z, beta, p);
        be.axpby(1.0, &aux.w, beta, q);
        be.axpby(1.0, &aux.m, beta, &mut aux.h);
        be.axpby(1.0, &aux.n, beta, &mut aux.g);
        ctx.charge_flops(8 * nloc as u64);
        *beta_prev = beta;
        (1, (rr / bnorm2).sqrt())
    }

    /// Pipelined blobs carry γ and pᵀAp directly (pᵀAp is a running
    /// recurrence, not recomputable from the vectors), so an IMCR rollback
    /// is already complete and bitwise. The starred copies (and Alg. 2)
    /// cover only the classic state x, r, u(=z), p — deliberately, so
    /// ESRP's per-node storage is
    /// unchanged by pipelining. The auxiliary recurrence vectors are
    /// rebuilt *globally* from their definitions: three distributed SpMVs
    /// for `w = Au`, `s ≡ q = Ap` and `g = Ah`, one local preconditioner
    /// application for `h = M⁻¹s`, and one fused allreduce for γ = r·u and
    /// pᵀAp. The SpMVs need every rank anyway (halo entries of the
    /// reconstructed chunks flow to the survivors), so this costs the
    /// survivors no extra rounds. Survivor aux values are re-derived rather
    /// than bitwise-preserved; the trajectory stays within the variant's
    /// rounding tolerance.
    fn resync(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
        from_checkpoint: bool,
    ) {
        if from_checkpoint {
            return;
        }
        let be = backend(ctx, shared);
        let range = shared.part.range(ctx.rank());
        let NodeState {
            r,
            z,
            p,
            q,
            rz,
            aux,
            ..
        } = st;
        let aux = aux.as_deref_mut().expect(PIPELINED_AUX);
        dist_spmv(ctx, shared, be, z, RECOVERY_TAG_W, full, &mut aux.w, None);
        dist_spmv(ctx, shared, be, p, RECOVERY_TAG_S, full, q, None);
        shared.precond.apply_local(range.clone(), q, &mut aux.h);
        ctx.charge_flops(shared.precond.apply_flops(range.clone()));
        dist_spmv(
            ctx,
            shared,
            be,
            &aux.h,
            RECOVERY_TAG_G,
            full,
            &mut aux.g,
            None,
        );

        let rz_loc = be.dot(r, z);
        let pq_loc = be.dot(p, q);
        ctx.charge_flops(4 * range.len() as u64);
        let red = ctx.allreduce_sum(&[rz_loc, pq_loc]);
        *rz = red[0];
        aux.pap = red[1];
        ctx.recycle_f64s(red);
    }
}

/// The s-step (communication-avoiding) PCG recurrence: one fused Gram
/// reduction per outer step of up to `s` iterations. Each trip
///
/// 1. protects the **block-start** state (IMCR checkpoint round, explicit
///    redundant copies of p^(ĵ−1)/p^(ĵ), ESRP starred copies — all of
///    which land on outer-step boundaries, where the state is exactly
///    classic-shaped and the transient Krylov block is empty),
/// 2. builds the block basis V = [ρ₀…ρ_s, ζ₀…ζ_{s−1}] by a matrix-powers
///    sweep (ρ₀ = p, ζ₀ = z, each power one split-phase-halo SpMV plus one
///    local preconditioner apply; the A-images W fall out for free),
/// 3. reduces the small Gram system [VᵀW, WᵀW, Vᵀr₀, Wᵀr₀, r₀·r₀] with a
///    **single** fused allreduce,
/// 4. replays up to `s` scalar CG updates on the replicated coordinate
///    vectors (serial O(s²) arithmetic — bitwise identical on every rank
///    and across thread counts), truncating early if the monomial basis
///    runs out of accuracy, then materializes x/r/z/p at the block end.
///
/// A failure whose iteration falls anywhere inside the window is detected
/// at the block start and rolls back to the last protected block start —
/// the re-executed scalar updates are replicated, so trajectories stay
/// deterministic. See `ARCHITECTURE.md` §"s-step pipeline".
pub(crate) struct SStep {
    s: usize,
    /// Per-block workspace, allocated once: every column is fully
    /// overwritten each outer step (see [`SStepAux`]).
    aux: SStepAux,
    /// The iteration label the materialized `aux.p_prev` belongs to
    /// (`Some(j − 1)` entering a block start at j whose predecessor block
    /// completed normally; `None` right after init or a degenerate resume).
    p_prev_at: Option<usize>,
}

impl SStep {
    /// The recurrence with block size `s` on a node owning `nloc` indices.
    pub(crate) fn new(s: usize, nloc: usize) -> Self {
        SStep {
            s,
            aux: SStepAux::new(s, nloc),
            p_prev_at: None,
        }
    }
}

impl Recurrence for SStep {
    const TRIPS_ON_FAILURE: usize = 0;

    fn window_len(&self) -> usize {
        self.s
    }

    /// Redundant copies of p^(j−1), p^(j) (explicit, block-aligned). The
    /// matrix-powers sweep communicates basis columns, not p, so — as with
    /// the pipelined variant — augmented iterations ship the search
    /// directions explicitly over the halo + extras index sets. Both
    /// block-start directions are captured so the reconstruction (paper
    /// Alg. 2) finds p^(ĵ−1) and p^(ĵ) under its usual labels. ESR (T = 1)
    /// protects every block start. ESRP (T > 1) protects only block starts
    /// whose window completes a storage stage — capturing at every
    /// augmented window would push extra pairs and evict the starred pair
    /// from the depth-3 queue before a failure can use it.
    /// (`storage_second` is never true for IMCR, and `augmented` never for
    /// IMCR either, so IMCR captures nothing.)
    fn protect(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        _full: &mut [f64],
        sched: &IntervalSchedule,
        window: Range<usize>,
    ) -> bool {
        let j = window.start;
        let mut window = window;
        let capture_due = j >= 1
            && self.p_prev_at == Some(j - 1)
            && if sched.interval() == Some(1) {
                window.any(|jj| sched.augmented(jj))
            } else {
                window.any(|jj| sched.storage_second(jj))
            };
        if capture_due {
            // After a rollback the queue may still hold slots at or past
            // this block start (survivors keep everything up to the
            // recovery point); drop them so the re-executed captures leave
            // the queue identical to an undisturbed run's. No-op otherwise.
            st.queue.purge_after(j - 1);
            for (dir, label) in [(&self.aux.p_prev, j - 1), (&st.p, j)] {
                capture_direction(ctx, shared, dir, label, Tag::SStepBasis, &mut st.queue);
            }
        }
        capture_due
    }

    /// Mid-block failures resume at the enclosing protected block start.
    fn rollback_target(
        &self,
        _sched: &IntervalSchedule,
        _j_f: usize,
        last_protect: Option<usize>,
    ) -> Option<usize> {
        last_protect
    }

    fn advance(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        st: &mut NodeState,
        full: &mut [f64],
        window: Range<usize>,
        bnorm2: f64,
    ) -> (usize, f64) {
        let cfg = &shared.cfg;
        let be = backend(ctx, shared);
        let range = shared.part.range(ctx.rank());
        let nloc = range.len();
        let s = self.s;
        let nv = 2 * s + 1;
        let nw = 2 * s - 1;
        let j = window.start;
        let s_eff = window.len();
        // V-index u → W-index of A·v_u (None for ρ_s and ζ_{s−1}, whose
        // A-images the sweep never needs).
        let aimg = |u: usize| -> Option<usize> {
            match u {
                _ if u < s => Some(u),
                _ if u == s => None,
                _ if u < 2 * s => Some(u - 1),
                _ => None,
            }
        };
        // V-index u → V-index of M⁻¹A·v_u (the basis shift; same None set).
        let shift = |u: usize| -> Option<usize> {
            if u == s || u == 2 * s {
                None
            } else {
                Some(u + 1)
            }
        };

        // --- Matrix-powers sweep: the block basis and its A-images --------
        // 2s−1 SpMVs and preconditioner applies per block (≈2× the classic
        // work — the communication-avoiding trade), each over the
        // configured halo schedule. Tag subs repeat across the two chains;
        // per-(source, tag) FIFO matching keeps sequential reuse safe.
        // The ρ chain starts at V[0] = p and fills W[0..s]; the ζ chain
        // starts at V[s+1] = z and fills W[s..2s−1].
        ctx.set_phase(Phase::SpMV);
        let SStepAux { v, w, .. } = &mut self.aux;
        for (v0, w0, len, start) in [(0, 0, s, &st.p), (s + 1, s, s - 1, &st.z)] {
            v[v0].copy_from_slice(start);
            for k in 0..len {
                let tag = (j + k) as u32;
                dist_spmv(ctx, shared, be, &v[v0 + k], tag, full, &mut w[w0 + k], None);
                ctx.set_phase(Phase::Precond);
                shared
                    .precond
                    .apply_local(range.clone(), &w[w0 + k], &mut v[v0 + k + 1]);
                ctx.charge_flops(shared.precond.apply_flops(range.clone()));
                ctx.set_phase(Phase::SpMV);
            }
        }

        // --- The one fused Gram reduction of the outer step ---------------
        // [G = VᵀW | upper(H = WᵀW) | Vᵀr₀ | Wᵀr₀ | r₀·r₀] in a pooled
        // buffer; started and finished through the split-phase reduce path.
        ctx.set_phase(Phase::Reduction);
        let n_dots = nv * nw + nw * (nw + 1) / 2 + nv + nw + 1;
        let mut buf = ctx.take_f64s();
        {
            let SStepAux { v, w, .. } = &self.aux;
            for vu in v.iter() {
                for wt in w.iter() {
                    buf.push(be.dot(vu, wt));
                }
            }
            for (a, wa) in w.iter().enumerate() {
                for wb in &w[a..] {
                    buf.push(be.dot(wa, wb));
                }
            }
            for vu in v.iter() {
                buf.push(be.dot(vu, &st.r));
            }
            for wt in w.iter() {
                buf.push(be.dot(wt, &st.r));
            }
            buf.push(be.dot(&st.r, &st.r));
        }
        debug_assert_eq!(buf.len(), n_dots);
        ctx.charge_flops(2 * n_dots as u64 * nloc as u64);
        let pending = ctx.allreduce_sum_start(&buf);
        ctx.recycle_f64s(buf);
        let red = pending.finish(ctx);
        let rr0;
        {
            let SStepAux { g, h, vr, wr, .. } = &mut self.aux;
            g.copy_from_slice(&red[..nv * nw]);
            let mut idx = nv * nw;
            for a in 0..nw {
                for b in a..nw {
                    h[a * nw + b] = red[idx];
                    h[b * nw + a] = red[idx];
                    idx += 1;
                }
            }
            vr.copy_from_slice(&red[idx..idx + nv]);
            idx += nv;
            wr.copy_from_slice(&red[idx..idx + nw]);
            idx += nw;
            rr0 = red[idx];
        }
        ctx.recycle_f64s(red);

        // --- Up to s scalar CG updates from replicated coordinates --------
        // All arithmetic below is serial and replicated: every rank holds
        // the same Gram blocks, so every rank derives bitwise-identical
        // α/β/convergence decisions with no further communication. At
        // least one update always commits (the first update asserts on
        // every way it could fail), so `relres` is always set.
        ctx.set_phase(Phase::VecOps);
        let mut i_exec = 0usize;
        let mut relres = f64::INFINITY;
        let mut rz = st.rz;
        let mut beta_last = st.beta_prev;
        {
            let SStepAux {
                g,
                h,
                vr,
                wr,
                ca,
                ca_prev,
                cc,
                ce,
                cf,
                cc_t,
                ce_t,
                cf_t,
                ..
            } = &mut self.aux;
            ca.fill(0.0);
            ca[0] = 1.0; // p = ρ₀
            cc.fill(0.0);
            cc[s + 1] = 1.0; // z = ζ₀
            ce.fill(0.0);
            cf.fill(0.0);
            for i in 0..s_eff {
                // pᵀAp through the Gram block: Σ_t ca_t Σ_u ca_u·(v_u·Av_t).
                let mut pap = 0.0;
                for (t, &cat) in ca.iter().enumerate() {
                    if cat == 0.0 {
                        continue;
                    }
                    let Some(wi) = aimg(t) else {
                        debug_assert!(false, "ca support leaked past the A-image columns");
                        continue;
                    };
                    let mut acc = 0.0;
                    for (u, &cau) in ca.iter().enumerate() {
                        if cau != 0.0 {
                            acc += cau * g[u * nw + wi];
                        }
                    }
                    pap += cat * acc;
                }
                if i == 0 {
                    // The i = 0 Gram value is the exact dot p·Ap (up to
                    // reduction rounding): a violation means the matrix,
                    // not the basis.
                    assert!(
                        pap > 0.0,
                        "pᵀAp = {pap} ≤ 0: matrix not SPD to working precision"
                    );
                } else if pap <= 0.0 || pap.is_nan() {
                    // The monomial basis ran out of accuracy mid-block:
                    // truncate without committing. The state stays at
                    // iteration j + i and the next block starts a fresh
                    // basis from the materialized vectors.
                    break;
                }
                let alpha = rz / pap;
                // Tentative coordinate updates (committed only if the
                // derived scalars stay finite).
                for u in 0..nv {
                    ce_t[u] = ce[u] + alpha * ca[u];
                }
                cf_t.copy_from_slice(cf);
                cc_t.copy_from_slice(cc);
                for (t, &cat) in ca.iter().enumerate() {
                    if cat == 0.0 {
                        continue;
                    }
                    match (aimg(t), shift(t)) {
                        (Some(wi), Some(sh)) => {
                            cf_t[wi] -= alpha * cat; // r −= α·Ap
                            cc_t[sh] -= alpha * cat; // z −= α·M⁻¹Ap
                        }
                        _ => debug_assert!(false, "ca support leaked past the basis range"),
                    }
                }
                // ‖r‖² and r·z of the tentative iterate, from the Gram
                // blocks (r = r₀ + W·cf, z = V·cc).
                let mut rr_new = rr0;
                for (wi, &cfw) in cf_t.iter().enumerate() {
                    if cfw == 0.0 {
                        continue;
                    }
                    rr_new += 2.0 * cfw * wr[wi];
                    let mut acc = 0.0;
                    for (w2, &cf2) in cf_t.iter().enumerate() {
                        if cf2 != 0.0 {
                            acc += cf2 * h[wi * nw + w2];
                        }
                    }
                    rr_new += cfw * acc;
                }
                let mut rz_new = 0.0;
                for (u, &ccu) in cc_t.iter().enumerate() {
                    if ccu != 0.0 {
                        rz_new += ccu * vr[u];
                    }
                }
                for (wi, &cfw) in cf_t.iter().enumerate() {
                    if cfw == 0.0 {
                        continue;
                    }
                    let mut acc = 0.0;
                    for (u, &ccu) in cc_t.iter().enumerate() {
                        if ccu != 0.0 {
                            acc += ccu * g[u * nw + wi];
                        }
                    }
                    rz_new += cfw * acc;
                }
                if !(rr_new.is_finite() && rz_new.is_finite()) {
                    assert!(
                        i > 0,
                        "s-step Gram recurrence non-finite on the first update"
                    );
                    break;
                }
                // Commit, mirroring one classic iteration (including the
                // unconditional p-update — classic never gates on β's sign).
                std::mem::swap(ce, ce_t);
                std::mem::swap(cf, cf_t);
                std::mem::swap(cc, cc_t);
                i_exec = i + 1;
                let beta = rz_new / rz;
                for u in 0..nv {
                    ca_prev[u] = ca[u];
                    ca[u] = cc[u] + beta * ca_prev[u];
                }
                beta_last = beta;
                rz = rz_new;
                relres = (rr_new.max(0.0) / bnorm2).sqrt();
                if relres < cfg.rtol || j + i + 1 >= cfg.max_iters {
                    break;
                }
            }
        }
        ctx.charge_flops(i_exec as u64 * (4 * nv * nw + 2 * nw * nw + 8 * nv) as u64);

        // --- Materialize the block-end state ------------------------------
        // Column-by-column axpys in fixed index order: bitwise identical
        // across thread counts, dispatch modes, and formats (the backend's
        // per-vector kernels already are).
        ctx.set_phase(Phase::VecOps);
        let j_next = j + i_exec;
        {
            let SStepAux {
                v,
                w,
                ca,
                ca_prev,
                cc,
                ce,
                cf,
                p_prev,
                ..
            } = &mut self.aux;
            // out += Σ_u coef_u·basis_u, skipping zero coordinates.
            let mut axpys = 0u64;
            let mut combine = |coef: &[f64], basis: &[Vec<f64>], out: &mut [f64]| {
                for (&c, col) in coef.iter().zip(basis) {
                    if c != 0.0 {
                        be.axpby(c, col, 1.0, out);
                        axpys += 1;
                    }
                }
            };
            combine(ce, v, &mut st.x);
            combine(cf, w, &mut st.r);
            st.z.fill(0.0);
            combine(cc, v, &mut st.z);
            st.p.fill(0.0);
            combine(ca, v, &mut st.p);
            let converged_now = relres < cfg.rtol;
            if cfg.strategy.uses_aspmv() && !converged_now {
                // p^(j_next − 1) for the next block start's capture. After
                // ≥ 1 committed update ca_prev holds the previous p's
                // coordinates in *this* block's basis.
                p_prev.fill(0.0);
                combine(ca_prev, v, p_prev);
                self.p_prev_at = Some(j_next - 1);
            }
            ctx.charge_flops(axpys * 2 * nloc as u64);
        }
        st.rz = rz;
        st.beta_prev = beta_last;
        (i_exec, relres)
    }

    /// Re-materializes p^(ĵ−1) for the re-executed block-start captures:
    /// p = z + β·p_prev at the resume point inverts to (p − z)/β.
    /// Replicated arithmetic on replicated state.
    fn after_recovery(&mut self, ctx: &mut Ctx, shared: &SharedProblem, st: &NodeState, j: usize) {
        if !shared.cfg.strategy.uses_aspmv() {
            return;
        }
        if j >= 1 && st.beta_prev != 0.0 {
            ctx.set_phase(Phase::RecoveryReset);
            let beta = st.beta_prev;
            for (l, p_prev) in self.aux.p_prev.iter_mut().enumerate() {
                *p_prev = (st.p[l] - st.z[l]) / beta;
            }
            ctx.charge_flops(2 * st.p.len() as u64);
            self.p_prev_at = Some(j - 1);
        } else {
            self.p_prev_at = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tuner's analytic checkpoint-round cost sizes the blob with
    /// `checkpoint_blob_len`; it must be the blob a round actually ships.
    #[test]
    fn analytic_blob_length_matches_the_shipped_blob() {
        fn check(rec: &impl Recurrence) {
            for nloc in [0, 1, 7] {
                let mut blob = Vec::new();
                rec.new_state(nloc).checkpoint_blob_into(&mut blob);
                assert_eq!(rec.checkpoint_blob_len(nloc), blob.len(), "nloc = {nloc}");
            }
        }
        check(&Classic);
        check(&Pipelined);
        check(&SStep::new(4, 7));
    }
}
