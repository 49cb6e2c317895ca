//! The three workloads: set-up (capture, classify, record) and one
//! simulate call ("operation") each, untraced or traced.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dol_baselines::registry::monolithic_by_name;
use dol_core::{Composite, NoPrefetcher, Tpc};
use dol_cpu::{System, SystemConfig, Workload};
use dol_harness::prefetchers::{self, extra_origin, Built};
use dol_isa::{SparseMemory, TraceCursor};
use dol_mem::{CacheLevel, MemorySystem, NullSink};
use dol_metrics::{classify_trace, Classifier, StreamingMetrics};
use dol_trace::{encode_workload, ReadAhead, ReplaySource, TraceHeader, TraceReader};
use dol_workloads::Rng64;

use crate::alloc;
use crate::counts;
use crate::digest::Digest;
use crate::layers::{Layer, TracedPf, TracedSink, TracedSource};

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 2018;

/// A seed kept out of tuning: a later performance claim must hold on it
/// as well as on [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 7;

/// Per-core prefetcher configurations of `corun4`.
pub const CORUN_CONFIGS: [&str; 4] = ["TPC", "TPC+SMS", "SPP", "BOP"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single core, TPC, classifier-attached `StreamingMetrics`, all 36
    /// kernels from in-memory traces.
    Tpc,
    /// Single core, no prefetcher, `NullSink`, all 36 kernels streamed
    /// from `.dolt` files.
    NopfReplay,
    /// Seeded 4-way mixes on four cores under TPC, TPC+SMS, SPP and BOP.
    Corun4,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::Tpc, Kind::NopfReplay, Kind::Corun4];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpc => "tpc",
            Kind::NopfReplay => "nopf-replay",
            Kind::Corun4 => "corun4",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How much each simulate call does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Instructions captured per kernel on the single-core workloads.
    pub insts: u64,
    /// Instructions captured per core in `corun4`: enough for the four
    /// cores to overflow the shared L3 and evict each other's lines.
    pub corun_insts: u64,
}

impl Budget {
    /// The benchmark's budget.
    pub const BENCH: Budget = Budget {
        insts: 40_000,
        corun_insts: 25_000,
    };
}

/// Host time and volume of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStats {
    /// Wall time of the whole set-up.
    pub total_ns: u64,
    /// Wall time inside `Workload::capture` (uop VM).
    pub capture_ns: u64,
    /// Instructions captured.
    pub captured_insts: u64,
    /// Wall time inside `classify_trace`.
    pub classify_ns: u64,
    /// Wall time encoding and writing `.dolt` files.
    pub record_ns: u64,
    /// Bytes written to `.dolt` files.
    pub recorded_bytes: u64,
}

enum Inputs {
    Tpc(Vec<(Workload, Arc<Classifier>)>),
    Replay(Vec<(&'static str, PathBuf, SparseMemory)>),
    /// Captured kernels (`None` while lent to a running mix) and each
    /// mix's four kernel indices.
    Corun {
        kernels: Vec<Option<Workload>>,
        members: Vec<[usize; 4]>,
    },
}

/// A workload's inputs, ready to simulate.
pub struct Prepared {
    names: Vec<String>,
    inputs: Inputs,
    sys: System,
}

/// What one simulate call produced.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Instructions simulated, all cores.
    pub insts: u64,
    /// Digest of every simulated output of the call.
    pub digest: u64,
    /// Wall time of the `System` call alone.
    pub sim_ns: u64,
    /// Instruction-stream bytes decoded from a `.dolt` file.
    pub trace_bytes: u64,
    /// Simulated work counts ([`counts::NAMES`]).
    pub counts: [u64; counts::COUNTS],
}

/// Builds the inputs of `kind` for `seed`. Replay traces are written
/// under `dir`.
pub fn setup(
    kind: Kind,
    seed: u64,
    budget: Budget,
    dir: &Path,
) -> Result<(Prepared, SetupStats), String> {
    // The uop cache would let a repeated set-up skip decoding.
    dol_isa::clear_uop_cache();
    let start = Instant::now();
    let mut st = SetupStats::default();
    let capture = |spec: &dol_workloads::Spec, insts: u64, st: &mut SetupStats| {
        let t = Instant::now();
        let w = Workload::capture(spec.build_vm(seed), insts)
            .map_err(|e| format!("capturing {}: {e}", spec.name))?;
        st.capture_ns += t.elapsed().as_nanos() as u64;
        st.captured_insts += w.trace.len() as u64;
        Ok::<_, String>(w)
    };
    let specs = dol_workloads::all_workloads();
    let (names, inputs, cores) = match kind {
        Kind::Tpc => {
            let mut kernels = Vec::with_capacity(specs.len());
            for spec in &specs {
                let w = capture(spec, budget.insts, &mut st)?;
                let t = Instant::now();
                let c = Arc::new(classify_trace(&w.trace));
                st.classify_ns += t.elapsed().as_nanos() as u64;
                kernels.push((w, c));
            }
            let names = specs.iter().map(|s| s.name.to_string()).collect();
            (names, Inputs::Tpc(kernels), 1)
        }
        Kind::NopfReplay => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let mut files = Vec::with_capacity(specs.len());
            for spec in &specs {
                let w = capture(spec, budget.insts, &mut st)?;
                let path = dir.join(format!("{}.dolt", spec.name));
                let t = Instant::now();
                let header = TraceHeader {
                    name: spec.name.to_string(),
                    seed,
                    insts: w.trace.len() as u64,
                };
                // The file carries the instruction stream only. Memory
                // images run to megabytes per kernel and would dominate
                // every replay, yet only value-callback prefetches read
                // them; the image stays in memory instead.
                let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let empty = SparseMemory::new();
                st.recorded_bytes +=
                    encode_workload(BufWriter::new(file), &header, &empty, w.trace.as_slice())
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                st.record_ns += t.elapsed().as_nanos() as u64;
                files.push((spec.name, path, w.memory));
            }
            let names = specs.iter().map(|s| s.name.to_string()).collect();
            (names, Inputs::Replay(files), 1)
        }
        Kind::Corun4 => {
            // Each kernel is captured once and moved into the mixes it
            // joins, never copied.
            let members = balanced_mixes(seed, specs.len());
            let mut kernels = Vec::with_capacity(specs.len());
            for spec in &specs {
                kernels.push(Some(capture(spec, budget.corun_insts, &mut st)?));
            }
            let names = members
                .iter()
                .enumerate()
                .map(|(j, ids)| {
                    let [a, b, c, d] = ids.map(|k| specs[k].name);
                    format!("mix{j:02}[{a}|{b}|{c}|{d}]")
                })
                .collect();
            (names, Inputs::Corun { kernels, members }, 4)
        }
    };
    st.total_ns = start.elapsed().as_nanos() as u64;
    let prepared = Prepared {
        names,
        inputs,
        sys: System::new(SystemConfig::isca2018(cores)),
    };
    Ok((prepared, st))
}

impl Prepared {
    /// Simulate calls per pass.
    pub fn ops(&self) -> usize {
        self.names.len()
    }

    /// Name of operation `i` (a kernel or a mix).
    pub fn op_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// A fresh memory system shaped like the one the simulations use.
    pub fn fresh_memory(&self) -> MemorySystem {
        MemorySystem::new(self.sys.config().hierarchy)
    }

    /// Runs simulate call `i`. With `traced`, the prefetchers, sink and
    /// (where `System` accepts one) the instruction source are wrapped
    /// in the layer tracers; the simulated outputs must not change.
    pub fn run_op(&mut self, i: usize, traced: bool) -> Result<OpOutcome, String> {
        let sys = &self.sys;
        let mut d = Digest::default();
        match &mut self.inputs {
            Inputs::Tpc(kernels) => {
                let (w, classifier) = &kernels[i];
                let sm = StreamingMetrics::new().with_classifier(Arc::clone(classifier));
                let p = prefetchers::build("TPC").expect("TPC is a built-in configuration");
                let ((r, sm), sim_ns) = if traced {
                    let mut p = TracedPf::top(p, Layer::Core, 0);
                    let mut sink = TracedSink { inner: sm };
                    let src = TracedSource::isa(TraceCursor::new(w.trace.as_slice()));
                    simulate(true, || {
                        let (r, _) = sys.run_source_with_sink(src, &w.memory, &mut p, &mut sink);
                        (r, sink.inner)
                    })
                } else {
                    let (mut p, mut sm) = (p, sm);
                    simulate(false, || (sys.run_with_sink(w, &mut p, &mut sm), sm))
                };
                d.run_result(&r);
                d.metrics(&sm);
                Ok(OpOutcome {
                    insts: r.instructions,
                    digest: d.finish(),
                    sim_ns,
                    trace_bytes: 0,
                    counts: counts::collect([r.cycles], &[r.stalls], &[r.mispredicts], &r.stats),
                })
            }
            Inputs::Replay(files) => {
                let (name, path, memory) = &files[i];
                let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
                let file = File::open(path).map_err(|e| err(&e))?;
                let mut reader = TraceReader::new(ReadAhead::new(file)).map_err(|e| err(&e))?;
                reader.read_memory().map_err(|e| err(&e))?;
                let header = reader.header().clone();
                let image_bytes = reader.bytes_read();
                let source = ReplaySource::new(reader);
                let ((r, source), sim_ns) = if traced {
                    let mut p = TracedPf::top(NoPrefetcher, Layer::Core, 0);
                    let mut sink = TracedSink { inner: NullSink };
                    let src = TracedSource::trace(source);
                    let ((r, src), ns) = simulate(true, || {
                        sys.run_source_with_sink(src, memory, &mut p, &mut sink)
                    });
                    ((r, src.inner), ns)
                } else {
                    simulate(false, || {
                        sys.run_source_with_sink(source, memory, &mut NoPrefetcher, &mut NullSink)
                    })
                };
                if let Some(e) = source.error() {
                    return Err(format!("{}: replay stopped early: {e}", path.display()));
                }
                if header.name != *name || r.instructions != header.insts {
                    return Err(format!(
                        "{}: replayed {} instructions of {} ({} declared)",
                        path.display(),
                        r.instructions,
                        header.name,
                        header.insts
                    ));
                }
                d.run_result(&r);
                Ok(OpOutcome {
                    insts: r.instructions,
                    digest: d.finish(),
                    sim_ns,
                    trace_bytes: source.reader().bytes_read() - image_bytes,
                    counts: counts::collect([r.cycles], &[r.stalls], &[r.mispredicts], &r.stats),
                })
            }
            Inputs::Corun { kernels, members } => {
                let ids = members[i];
                if ids.iter().any(|&id| kernels[id].is_none()) {
                    return Err("a mix member was lost to an earlier panic".into());
                }
                let members: [Workload; 4] =
                    ids.map(|id| kernels[id].take().expect("checked above"));
                let sm = StreamingMetrics::new();
                let ((r, sm), sim_ns) = if traced {
                    let mut ps: [TracedPf<Built>; 4] =
                        std::array::from_fn(|core| traced_corun_member(CORUN_CONFIGS[core], core));
                    let mut sink = TracedSink { inner: sm };
                    simulate(true, || {
                        (sys.run_corun(&members, &mut ps, &mut sink), sink.inner)
                    })
                } else {
                    let mut ps: [Built; 4] = CORUN_CONFIGS.map(|c| {
                        prefetchers::build(c).expect("co-run configurations are built-in")
                    });
                    let mut sm = sm;
                    simulate(false, || (sys.run_corun(&members, &mut ps, &mut sm), sm))
                };
                for (id, w) in ids.into_iter().zip(members) {
                    kernels[id] = Some(w);
                }
                d.run_result(&r);
                d.metrics(&sm);
                Ok(OpOutcome {
                    insts: r.total_instructions(),
                    digest: d.finish(),
                    sim_ns,
                    trace_bytes: 0,
                    counts: counts::collect(
                        r.cores.iter().map(|&(cycles, _)| cycles),
                        &r.stalls,
                        &r.mispredicts,
                        &r.stats,
                    ),
                })
            }
        }
    }
}

/// `corun4`'s mixes, as indices into the kernel list: every kernel
/// runs once on each of the four cores and never twice in one mix, and
/// the seed decides which kernels share a mix. `dol_workloads::mixes`
/// draws members with replacement, so a seed's share of the few heavy
/// kernels (four of the 36 take a third of `tpc`'s host time) changes
/// from seed to seed, and every host metric with it; the balanced
/// design leaves the seed only the pairings.
fn balanced_mixes(seed: u64, kernels: usize) -> Vec<[usize; 4]> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut columns: Vec<Vec<usize>> = Vec::with_capacity(4);
    while columns.len() < 4 {
        let mut col: Vec<usize> = (0..kernels).collect();
        for i in (1..kernels).rev() {
            col.swap(i, rng.index(i + 1));
        }
        // Redraw a column that would put a kernel twice in one mix.
        if columns
            .iter()
            .all(|c| c.iter().zip(&col).all(|(a, b)| a != b))
        {
            columns.push(col);
        }
    }
    (0..kernels)
        .map(|j| std::array::from_fn(|core| columns[core][j]))
        .collect()
}

/// `prefetchers::build(config)` for core `core`, wrapped for tracing.
/// `TPC+SMS` is assembled the way `build` does it, with the SMS extra
/// wrapped as well so the coordinator (`core`) and SMS (`baselines`)
/// are timed apart.
fn traced_corun_member(config: &str, core: usize) -> TracedPf<Built> {
    if config == "TPC+SMS" {
        let sms = monolithic_by_name("SMS", extra_origin(0), CacheLevel::L1)
            .expect("SMS is in the monolithic registry");
        let extra = Box::new(TracedPf::nested(sms, Layer::Baselines));
        let composite = Composite::with_extra(Tpc::full(), extra_origin(0), extra);
        return TracedPf::top(Built::Composite(composite), Layer::Core, core);
    }
    let layer = if config == "TPC" {
        Layer::Core
    } else {
        Layer::Baselines
    };
    let p = prefetchers::build(config).expect("co-run configurations are built-in");
    TracedPf::top(p, layer, core)
}

/// Times one `System` call; in a traced run the counting allocator
/// counts inside it.
fn simulate<R>(traced: bool, f: impl FnOnce() -> R) -> (R, u64) {
    alloc::set_counting(traced);
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    alloc::set_counting(false);
    (r, ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_mixes_put_every_kernel_once_on_each_core_and_never_twice_in_a_mix() {
        for seed in [0, 7, DEFAULT_SEED] {
            let mixes = balanced_mixes(seed, 36);
            assert_eq!(mixes.len(), 36);
            for core in 0..4 {
                let mut col: Vec<usize> = mixes.iter().map(|m| m[core]).collect();
                col.sort_unstable();
                assert_eq!(col, (0..36).collect::<Vec<_>>(), "seed {seed} core {core}");
            }
            for m in &mixes {
                for a in 0..4 {
                    assert!(!m[a + 1..].contains(&m[a]), "seed {seed}: {m:?}");
                }
            }
            assert_eq!(mixes, balanced_mixes(seed, 36));
        }
        assert_ne!(balanced_mixes(1, 36), balanced_mixes(2, 36));
    }
}
