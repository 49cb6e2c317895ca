//! The record→replay equivalence gate.
//!
//! A workload decoded from a `dol-trace-v1` file must be
//! indistinguishable from a live capture: same instruction stream, same
//! memory image, same timing results — and therefore byte-identical
//! `run_all` output. The heavy end-to-end cases are ignored in debug
//! builds (the simulator is ~20× slower there); `cargo test --release`
//! and the CI smoke step run them.

use std::fs::File;
use std::path::PathBuf;
use std::process::Command;

use dol_core::{NoPrefetcher, Tpc};
use dol_cpu::Workload;
use dol_harness::runner::single_core;
use dol_harness::{traces, RunPlan};
use dol_mem::CollectSink;
use dol_trace::{ReplaySource, TraceReader};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Loading a recorded trace gives the same workload and the same timing
/// result as capturing live, and so does streaming the file through
/// [`ReplaySource`] into the timing model.
#[test]
fn replayed_workload_matches_live_capture() {
    let dir = tmp_dir("equivalence");
    let plan = RunPlan {
        insts: 15_000,
        ..RunPlan::smoke()
    };
    for name in ["stream_sum", "listchase", "hash_probe"] {
        let spec = dol_workloads::by_name(name).expect("known workload");
        traces::record(
            &spec,
            plan.insts,
            plan.seed,
            &traces::trace_path(&dir, name),
        )
        .unwrap();
        let replayed = traces::load_workload(&dir, name, &plan).unwrap();
        let live = Workload::capture(spec.build_vm(plan.seed), plan.insts).unwrap();
        assert_eq!(
            replayed.trace.as_slice(),
            live.trace.as_slice(),
            "{name}: instruction streams differ"
        );
        let sys = single_core();
        let a = sys.run(&live, &mut NoPrefetcher);
        let b = sys.run(&replayed, &mut NoPrefetcher);
        assert_eq!(a.cycles, b.cycles, "{name}: cycles differ under replay");
        assert_eq!(
            a.stats.dram.total_traffic_lines(),
            b.stats.dram.total_traffic_lines()
        );

        let mut live_sink = CollectSink::new();
        let a = sys.run_with_sink(&live, &mut Tpc::full(), &mut live_sink);
        let file = File::open(traces::trace_path(&dir, name)).unwrap();
        let mut reader = TraceReader::new(file).unwrap();
        let memory = reader.read_memory().unwrap();
        let mut replay_sink = CollectSink::new();
        let (b, source) = sys.run_source_with_sink(
            ReplaySource::new(reader),
            &memory,
            &mut Tpc::full(),
            &mut replay_sink,
        );
        assert!(source.error().is_none(), "{name}: {:?}", source.error());
        assert_eq!(a.cycles, b.cycles, "{name}: cycles differ under streaming");
        assert_eq!(a.instructions, b.instructions, "{name}: instructions");
        assert_eq!(a.stalls, b.stalls, "{name}: stall buckets");
        assert_eq!(a.mispredicts, b.mispredicts, "{name}: mispredicts");
        assert_eq!(a.stats, b.stats, "{name}: memory stats");
        assert_eq!(live_sink.events, replay_sink.events, "{name}: event stream");
    }
}

/// `run_all --smoke` stdout is byte-identical whether workloads are
/// captured live or replayed from recorded traces.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn run_all_output_is_byte_identical_under_replay() {
    let dir = tmp_dir("run-all-replay");
    let trace_dir = dir.join("traces");

    let record = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["trace", "record", "--all", "--smoke", "--dir"])
        .arg(&trace_dir)
        .output()
        .expect("dol runs");
    assert!(
        record.status.success(),
        "record failed:\n{}",
        String::from_utf8_lossy(&record.stderr)
    );

    let verify = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["trace", "verify"])
        .args(
            std::fs::read_dir(&trace_dir)
                .unwrap()
                .map(|e| e.unwrap().path()),
        )
        .output()
        .expect("dol runs");
    assert!(
        verify.status.success(),
        "verify failed:\n{}",
        String::from_utf8_lossy(&verify.stderr)
    );

    let live = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--smoke", "--jobs", "0"])
        .output()
        .expect("run_all runs");
    assert!(live.status.success());

    let replay = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--smoke", "--jobs", "0", "--trace-dir"])
        .arg(&trace_dir)
        .output()
        .expect("run_all runs");
    assert!(
        replay.status.success(),
        "replay failed:\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );

    assert_eq!(
        String::from_utf8_lossy(&live.stdout),
        String::from_utf8_lossy(&replay.stdout),
        "replayed run_all output must be byte-identical to the live run"
    );
    // The replayed run reports its decode throughput on stderr.
    assert!(
        String::from_utf8_lossy(&replay.stderr).contains("decoded"),
        "replay must report decode throughput:\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );
}
