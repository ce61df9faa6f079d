//! Golden pins of the resilient solver: every (variant × strategy ×
//! failure schedule) cell of a fixed 4-rank poisson2d problem hashes its
//! observable behaviour, and each hash is compared with a constant that
//! was recorded from a reference build of the solver.
//!
//! A cell hashes (FNV-1a, 64 bit):
//! * the bits of the solution `x` and of the modeled wall time;
//! * `iterations`, `total_loop_trips`, every recovery outcome and every
//!   interval-tuner event;
//! * separately, the `TraceConfig::Full` Perfetto JSON.
//!
//! A refactor of the solver loop that is meant to be behaviour-preserving
//! must keep every hash. A mismatch prints the whole recomputed table.

use esrcg_cluster::TraceConfig;
use esrcg_core::driver::{Experiment, MatrixSource, RhsSpec};
use esrcg_core::solver::PcgVariant;
use esrcg_core::{Resilience, RunReport, Strategy};
use esrcg_sparse::KernelBackend;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The failure schedule of one cell.
#[derive(Clone, Copy)]
enum Failures {
    /// No failure.
    Free,
    /// One failure of rank 1 at iteration 13 (inside an s = 4 block).
    One,
    /// One failure of rank 0 at iteration 3: before the first ESRP stage
    /// or IMCR checkpoint, so those strategies restart from x⁰.
    Early,
    /// The adaptive interval policy with two failures (iterations 13 and
    /// 27, ranks 1 and 2).
    AutoTwo,
}

impl Failures {
    fn name(self) -> &'static str {
        match self {
            Failures::Free => "free",
            Failures::One => "one",
            Failures::Early => "early",
            Failures::AutoTwo => "auto2",
        }
    }
}

fn run_cell(variant: PcgVariant, strategy: Strategy, failures: Failures) -> RunReport {
    let resilience: Resilience = match failures {
        Failures::AutoTwo => strategy.auto(),
        Failures::Free | Failures::One | Failures::Early => strategy.into(),
    };
    let phi = if strategy == Strategy::None { 0 } else { 1 };
    let mut exp = Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 24, ny: 24 })
        .rhs(RhsSpec::Random { seed: 7 })
        .n_ranks(4)
        .backend(KernelBackend::Sequential)
        .variant(variant)
        .strategy(resilience)
        .phi(phi)
        .trace(TraceConfig::Full);
    match failures {
        Failures::Free => {}
        Failures::One => exp = exp.failure_at(13, 1, 1),
        Failures::Early => exp = exp.failure_at(3, 0, 1),
        Failures::AutoTwo => exp = exp.failure_at(13, 1, 1).failure_at(27, 2, 1),
    }
    exp.run().expect("golden cell runs")
}

/// `(run hash, trace hash)` of one report.
fn hashes(rep: &RunReport) -> (u64, u64) {
    let mut h = Fnv::new();
    for &v in &rep.x {
        h.f64(v);
    }
    h.f64(rep.modeled_time);
    h.u64(rep.iterations as u64);
    h.u64(rep.total_loop_trips as u64);
    h.u64(rep.recoveries.len() as u64);
    for r in &rep.recoveries {
        h.u64(r.failed_at as u64);
        h.u64(r.resumed_at as u64);
        h.u64(r.wasted_iterations as u64);
        h.u64(u64::from(r.full_restart));
        h.f64(r.recovery_time);
        h.u64(r.inner_iterations as u64);
    }
    h.u64(rep.tuning.len() as u64);
    for t in &rep.tuning {
        h.u64(t.failed_at as u64);
        h.u64(t.resumed_at as u64);
        h.f64(t.mtbf_iters.unwrap_or(-1.0));
        h.u64(t.interval_before as u64);
        h.u64(t.interval_after as u64);
    }
    let mut tr = Fnv::new();
    tr.bytes(rep.trace_json().expect("Full records a trace").as_bytes());
    (h.0, tr.0)
}

/// Recorded from the reference solver: `(cell, run hash, trace hash)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("classic/none/free", 0xde2a90dd1474726a, 0xa5ee4016ae55f7cc),
    ("classic/esr/free", 0xeee6924e7acfd442, 0xe3ffcd19a18b79cb),
    ("classic/esr/one", 0x4c60c26e24860f3f, 0x266e90fc544449c2),
    ("classic/esr/early", 0xe3f0e56fb35979df, 0x3e1dcbf4a16670a6),
    ("classic/esr/auto2", 0xe3059d4ca3ad5483, 0xb586e9bca182f50c),
    ("classic/esrp5/free", 0x0e47efa12baf4d6e, 0x6f38e850eea85367),
    ("classic/esrp5/one", 0x9d2c1551efb41e28, 0xf49946c4db28537e),
    (
        "classic/esrp5/early",
        0x9960ec94498f8370,
        0xde603928848e6b74,
    ),
    (
        "classic/esrp5/auto2",
        0x95af792c061b49b3,
        0xf46104e24515e663,
    ),
    ("classic/imcr5/free", 0xd89c3475b3b91b54, 0xc9db35979aea7235),
    ("classic/imcr5/one", 0xbcde7a4864c0872b, 0xed9a4fa9df1a5911),
    (
        "classic/imcr5/early",
        0x1c477d39b413e4ef,
        0x8fe2a54bc7a10d04,
    ),
    (
        "classic/imcr5/auto2",
        0x98418675ffc240b4,
        0x48adafaec028f3f2,
    ),
    (
        "pipelined/none/free",
        0x8e8d6cc2a169f291,
        0x0ab42d3ce8364f7f,
    ),
    ("pipelined/esr/free", 0xed9a013e28e4fffa, 0x3925f9a5248aaaea),
    ("pipelined/esr/one", 0xe2cf73526c00e0b3, 0xb23f1a4f2bf32aa2),
    (
        "pipelined/esr/early",
        0xe4be8293782b20c0,
        0xd2ca4b126e2cc02d,
    ),
    (
        "pipelined/esr/auto2",
        0x1eee8e2cfb4493ec,
        0x7339a5f5a32f8c49,
    ),
    (
        "pipelined/esrp5/free",
        0x4ac02b591d423848,
        0x2ae52f3d491f9e39,
    ),
    (
        "pipelined/esrp5/one",
        0x5e234298635c1d8c,
        0xb111033c98f38dc2,
    ),
    (
        "pipelined/esrp5/early",
        0x4612fbccfdc50f25,
        0xd6ff3eb7b1e618e3,
    ),
    (
        "pipelined/esrp5/auto2",
        0xb4f588e635c4243f,
        0x8510df9abf188ea6,
    ),
    (
        "pipelined/imcr5/free",
        0xa84c1b657c2851a8,
        0x1aec17328183b8bc,
    ),
    (
        "pipelined/imcr5/one",
        0x70cebb9f2377d071,
        0x139ebe07c2f38ccc,
    ),
    (
        "pipelined/imcr5/early",
        0x08d148eb5f014807,
        0xd58d09566c3b070e,
    ),
    (
        "pipelined/imcr5/auto2",
        0xc43d62b1ceb51cff,
        0x4533b9d7fecde218,
    ),
    ("sstep4/none/free", 0x13949b9d26072a02, 0xda9f4e57356a2924),
    ("sstep4/esr/free", 0xc17bd845a8cfb498, 0x20fc9f4d248c86f3),
    ("sstep4/esr/one", 0x264630afe16ea290, 0xac68b95673137c69),
    ("sstep4/esr/early", 0xfd133a15315e2ee1, 0xfb712a5a0bea171d),
    ("sstep4/esr/auto2", 0x4ce48506bea2f10e, 0x1413b57bf80a9c31),
    ("sstep4/esrp5/free", 0xc98caac6df5c7447, 0x6610bd0732e7a467),
    ("sstep4/esrp5/one", 0xd357f6023e523964, 0x13389e2bdd934ede),
    ("sstep4/esrp5/early", 0xfda3dbb5a48c0e6c, 0x1c5671e627f37216),
    ("sstep4/esrp5/auto2", 0x7c7273ac0577508f, 0x54494b228f0729e8),
    ("sstep4/imcr5/free", 0xdc9369006be9257a, 0xb1b13c1800270c21),
    ("sstep4/imcr5/one", 0x44478ce40f606fd9, 0x242a94534652bd17),
    ("sstep4/imcr5/early", 0x51506db555c9b1ad, 0xd5daccfcc552dd19),
    ("sstep4/imcr5/auto2", 0xf9834d50152be1a1, 0x16c7ade280eb01bc),
];

#[test]
fn every_cell_matches_its_golden_hashes() {
    let variants = [
        PcgVariant::Classic,
        PcgVariant::Pipelined,
        PcgVariant::SStep { s: 4 },
    ];
    let strategies = [
        Strategy::None,
        Strategy::esr(),
        Strategy::Esrp { t: 5 },
        Strategy::Imcr { t: 5 },
    ];
    let mut table = Vec::new();
    for variant in variants {
        for strategy in strategies {
            for failures in [
                Failures::Free,
                Failures::One,
                Failures::Early,
                Failures::AutoTwo,
            ] {
                if strategy == Strategy::None && !matches!(failures, Failures::Free) {
                    continue;
                }
                let rep = run_cell(variant, strategy, failures);
                assert!(
                    rep.converged,
                    "{} {strategy} {}",
                    variant.name(),
                    failures.name()
                );
                let events = match failures {
                    Failures::Free => 0,
                    Failures::One | Failures::Early => 1,
                    Failures::AutoTwo => 2,
                };
                assert_eq!(rep.recoveries.len(), events, "every failure triggers");
                let strategy_name = strategy.to_string().replace("(T=", "").replace(')', "");
                let name = format!("{}/{strategy_name}/{}", variant.name(), failures.name());
                let (run, trace) = hashes(&rep);
                table.push((name, run, trace));
            }
        }
    }
    let rendered: String = table
        .iter()
        .map(|(n, r, t)| format!("    (\"{n}\", 0x{r:016x}, 0x{t:016x}),\n"))
        .collect();
    let matches = table.len() == GOLDEN.len()
        && table
            .iter()
            .zip(GOLDEN)
            .all(|((n, r, t), (gn, gr, gt))| n == gn && r == gr && t == gt);
    assert!(
        matches,
        "golden hashes differ; recomputed table:\n{rendered}"
    );
}
