//! Bypass self-test: at a tiny budget, each workload exercises the
//! layers it is meant to exercise and bypasses the ones it is meant to
//! bypass, and tracing changes no simulated output.
//!
//! Run with `cargo test --release` from the benchmark's directory: the
//! co-run case needs 25k instructions per core to overflow the shared
//! L3, which is slow in a debug build.

use std::path::PathBuf;

use dol_perfbench::run::{self, Options, Report};
use dol_perfbench::suite::{self, Budget, Kind, DEFAULT_SEED};

/// Small, but large enough for the co-run pairings to overflow the
/// shared L3.
const TINY: Budget = Budget {
    insts: 4_000,
    corun_insts: 25_000,
};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn traced_report(kind: Kind) -> Report {
    let opts = Options {
        kind,
        seed: DEFAULT_SEED,
        budget: TINY,
        seconds: 0.0,
        trace: true,
        out_dir: out_dir(kind.name()),
        setup_reps: 1,
    };
    let r = run::run(&opts).expect("set-up succeeds");
    assert!(r.correct, "{}: {:?}", kind.name(), r.notes);
    assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.notes);
    r
}

fn metric(r: &Report, name: &str) -> f64 {
    r.get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn tracing_wrappers_leave_every_result_bit_identical() {
    for kind in Kind::ALL {
        let dir = out_dir(&format!("identity-{}", kind.name()));
        let (mut prep, _) = suite::setup(kind, DEFAULT_SEED, TINY, &dir).expect("set-up succeeds");
        for i in 0..prep.ops() {
            let plain = prep.run_op(i, false).expect("untraced run");
            let traced = prep.run_op(i, true).expect("traced run");
            // The digest covers every `RunResult`/`MultiRunResult` field
            // and the streamed accuracy totals.
            assert_eq!(plain.digest, traced.digest, "{} op {i}", kind.name());
            assert_eq!(plain.counts, traced.counts, "{} op {i}", kind.name());
            assert_eq!(plain.insts, traced.insts, "{} op {i}", kind.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tpc_exercises_prefetcher_and_metrics_but_not_trace_or_llc() {
    let r = traced_report(Kind::Tpc);
    assert!(metric(&r, "core.requests_per_kinst") > 0.0);
    assert!(metric(&r, "metrics.events.prefetch_issued") > 0.0);
    assert!(metric(&r, "isa.next_block.self_s") > 0.0);
    assert_eq!(metric(&r, "trace.bytes"), 0.0);
    assert_eq!(metric(&r, "baselines.requests_per_kinst"), 0.0);
    assert_eq!(metric(&r, "mem.llc_cross_evictions"), 0.0);
}

#[test]
fn nopf_replay_bypasses_prefetcher_and_metrics() {
    let r = traced_report(Kind::NopfReplay);
    assert_eq!(metric(&r, "core.requests_per_kinst"), 0.0);
    assert_eq!(metric(&r, "metrics.events.prefetch_issued"), 0.0);
    assert_eq!(metric(&r, "mem.prefetches_accepted"), 0.0);
    assert!(metric(&r, "trace.bytes") > 0.0);
    assert!(metric(&r, "trace.next_block.self_s") > 0.0);
    assert_eq!(metric(&r, "mem.llc_cross_evictions"), 0.0);
}

#[test]
fn corun4_exercises_baselines_and_the_shared_llc() {
    let r = traced_report(Kind::Corun4);
    assert!(metric(&r, "core.requests_per_kinst") > 0.0);
    assert!(metric(&r, "baselines.requests_per_kinst") > 0.0);
    assert!(metric(&r, "mem.llc_cross_evictions") > 0.0);
    assert_eq!(metric(&r, "trace.bytes"), 0.0);
}

#[test]
fn layer_self_times_sum_to_simulate_time() {
    let r = traced_report(Kind::Tpc);
    let parts = [
        "core.on_retire.self_s",
        "core.on_prefetch_complete.self_s",
        "baselines.on_retire.self_s",
        "baselines.on_prefetch_complete.self_s",
        "metrics.emit.self_s",
        "isa.next_block.self_s",
        "trace.next_block.self_s",
        "cpu.self_s",
    ];
    let sum: f64 = parts.iter().map(|p| metric(&r, p)).sum();
    let sim = metric(&r, "cpu.simulate_s");
    assert!(
        (sum - sim).abs() <= sim * 1e-9,
        "layers sum to {sum}, simulate is {sim}"
    );
}
