//! One benchmark run: set-up, untraced passes, and (with tracing) a
//! traced run whose per-call spans are attributed to layers.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::counts;
use crate::digest::Digest;
use crate::layers::{self, Counters, MemReplay, Site, EVENT_NAMES};
use crate::suite::{self, Budget, Kind, OpOutcome, Prepared, SetupStats};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Passes every phase makes at least, so digests can be compared
/// across passes.
const MIN_PASSES: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Workload seed: kernel data (`Spec::build_vm`) and `corun4`'s
    /// pairings.
    pub seed: u64,
    /// Simulation budget.
    pub budget: Budget,
    /// Measured time.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where replay traces and the span file go.
    pub out_dir: PathBuf,
    /// Set-ups to make.
    pub setup_reps: usize,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every simulated output matched its reference.
    pub correct: bool,
    /// Simulate calls made.
    pub attempted: u64,
    /// Simulate calls that panicked, failed, or produced a wrong digest.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Combined digest of one pass (per-call digests in order).
    pub digest: u64,
    /// Remarks for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of `v` (sorted in place).
fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// On-CPU time of the calling thread, from the first field of
/// `/proc/thread-self/schedstat`.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One pass over every operation of a workload.
struct Pass {
    wall_ns: u64,
    cpu_ns: Option<u64>,
    insts: u64,
    /// Wall time of each call, in ms; `None` where the call failed.
    op_ms: Vec<Option<f64>>,
}

/// One traced simulate call, rolled up from its per-call spans.
struct SimSpan {
    pass: usize,
    op: usize,
    start_ns: u64,
    sim_ns: u64,
    /// Self time per layer site inside the call.
    sites: Counters,
}

impl SimSpan {
    /// `sim_ns` minus every wrapped span: the core loop plus the
    /// hierarchy. `None` if the wrapped spans exceed the call.
    fn cpu_self_ns(&self) -> Option<u64> {
        self.sim_ns.checked_sub(self.sites.wrapped_ns())
    }
}

/// The run's inputs, its set-ups, and the reference digests and
/// failure accounting shared by all phases.
struct Runner<'a> {
    opts: &'a Options,
    trace_dir: &'a Path,
    prep: Option<Prepared>,
    setups: Vec<SetupStats>,
    /// First good digest and instruction count of each call.
    reference: Vec<Option<(u64, u64)>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Runner<'_> {
    /// Builds the inputs afresh, freeing the previous ones first.
    fn set_up(&mut self) -> Result<(), String> {
        self.prep = None;
        let (p, st) = suite::setup(
            self.opts.kind,
            self.opts.seed,
            self.opts.budget,
            self.trace_dir,
        )?;
        self.reference.resize(p.ops(), None);
        self.setups.push(st);
        self.prep = Some(p);
        Ok(())
    }

    fn prep(&mut self) -> &mut Prepared {
        self.prep.as_mut().expect("set up before running")
    }

    /// Runs operation `i`, compares its digest to the first good one,
    /// and returns the outcome and its wall time if it passed.
    fn run(&mut self, i: usize, traced: bool) -> Option<(OpOutcome, u64)> {
        self.attempted += 1;
        let prep = self.prep();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| prep.run_op(i, traced)));
        let wall = start.elapsed().as_nanos() as u64;
        let name = prep.op_name(i).to_string();
        let outcome = match result {
            Ok(Ok(o)) => o,
            Ok(Err(e)) => return self.fail(format!("{name}: {e}")),
            Err(_) => return self.fail(format!("{name}: simulation panicked")),
        };
        match self.reference[i] {
            None => self.reference[i] = Some((outcome.digest, outcome.insts)),
            Some((d, _)) if d != outcome.digest => {
                let what = if traced { "traced" } else { "untraced" };
                return self.fail(format!(
                    "{name}: {what} digest {:016x} differs from {d:016x}",
                    outcome.digest
                ));
            }
            Some(_) => {}
        }
        Some((outcome, wall))
    }

    fn fail(&mut self, msg: String) -> Option<(OpOutcome, u64)> {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
        None
    }

    /// One pass, calling `each` with every successful outcome.
    fn pass(&mut self, traced: bool, mut each: impl FnMut(usize, &OpOutcome)) -> Pass {
        let ops = self.prep().ops();
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        let mut p = Pass {
            wall_ns: 0,
            cpu_ns: None,
            insts: 0,
            op_ms: vec![None; ops],
        };
        for i in 0..ops {
            if let Some((o, wall)) = self.run(i, traced) {
                p.insts += o.insts;
                p.op_ms[i] = Some(wall as f64 / 1e6);
                each(i, &o);
            }
        }
        p.wall_ns = t0.elapsed().as_nanos() as u64;
        p.cpu_ns = match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        p
    }
}

fn minst_per_s(insts: u64, ns: u64) -> f64 {
    ratio(insts as f64 * 1e3, ns as f64)
}

/// Each call's fastest successful wall time (ms) over `passes`.
fn fastest(passes: &[Pass], ops: usize) -> Vec<Option<f64>> {
    (0..ops)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.op_ms[i])
                .min_by(f64::total_cmp)
        })
        .collect()
}

/// Simulated instructions per wall second with every call at its
/// fastest: the host at its least disturbed during the run.
fn fastest_throughput(passes: &[Pass], insts: &[Option<(u64, u64)>]) -> f64 {
    let (mut n, mut ms) = (0u64, 0.0);
    for (best, r) in fastest(passes, insts.len()).into_iter().zip(insts) {
        if let (Some(t), Some((_, i))) = (best, r) {
            n += i;
            ms += t;
        }
    }
    ratio(n as f64 / 1e3, ms)
}

/// Call times for the latency percentiles: each call contributes its
/// `k` fastest times, `k` the smallest that gives at least 100 samples.
fn fastest_samples(passes: &[Pass], ops: usize) -> Vec<f64> {
    let k = 100usize.div_ceil(ops.max(1));
    (0..ops)
        .flat_map(|i| {
            let mut v: Vec<f64> = passes.iter().filter_map(|p| p.op_ms[i]).collect();
            v.sort_by(f64::total_cmp);
            v.truncate(k);
            v
        })
        .collect()
}

/// Runs passes until `budget` has elapsed (and at least
/// [`MIN_PASSES`]); with `setups_left`, the remaining set-ups are
/// spread evenly across the phase so `setup_s` samples the host at
/// several moments.
fn phase(
    r: &mut Runner<'_>,
    budget: Duration,
    traced: bool,
    setups_left: usize,
    mut each: impl FnMut(usize, usize, &OpOutcome),
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let total = r.setups.len() + setups_left;
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = out.len();
        out.push(r.pass(traced, |op, o| each(pass, op, o)));
        let due = budget.mul_f64(r.setups.len() as f64 / total as f64);
        if r.setups.len() < total && start.elapsed() >= due {
            r.set_up()?;
        }
    }
    while r.setups.len() < total {
        r.set_up()?;
    }
    Ok(out)
}

/// Runs the benchmark. `Err` only for a set-up that could not be
/// made; failed simulate calls are counted in the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let trace_dir = opts.out_dir.join(format!(
        "traces-{}-{}",
        opts.kind.name(),
        std::process::id()
    ));
    let result = run_in(opts, &trace_dir);
    if trace_dir.exists() {
        let _ = std::fs::remove_dir_all(&trace_dir);
    }
    result
}

fn run_in(opts: &Options, trace_dir: &Path) -> Result<Report, String> {
    let timer_ns = if opts.trace { layers::timer_ns() } else { 0.0 };
    let mut r = Runner {
        opts,
        trace_dir,
        prep: None,
        setups: Vec::new(),
        reference: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    r.set_up()?;
    let mut report = Report::default();

    let measured = Duration::from_secs_f64(opts.seconds.max(0.0));
    let untraced_budget = if opts.trace { measured / 2 } else { measured };
    let reps = opts.setup_reps.max(1);
    let untraced = phase(&mut r, untraced_budget, false, reps - 1, |_, _, _| {})?;
    // The median set-up (`setup_s`, and the set-up layer metrics).
    let mut setups = r.setups.clone();
    setups.sort_by_key(|s| s.total_ns);
    let setup = setups[setups.len() / 2];
    let untraced_tp = fastest_throughput(&untraced, &r.reference);
    let mut closes = true;

    if !opts.trace {
        // Per-call CPU time is not measurable (the kernel updates the
        // figure once per tick), so the fastest-of-passes throughput is
        // scaled by the whole run's wall-to-CPU ratio.
        let (wall, cpu) = untraced.iter().fold((0, 0), |(w, c), p| {
            (w + p.wall_ns, c + p.cpu_ns.unwrap_or(0))
        });
        let mut op_ms = fastest_samples(&untraced, r.reference.len());
        if op_ms.is_empty() {
            op_ms.push(0.0);
        }
        let n = op_ms.len();
        report.push("setup_s", setup.total_ns as f64 / 1e9, "s");
        report.push("sim_minst_per_s", untraced_tp, "Minst/s");
        report.push(
            "cpu_minst_per_s",
            untraced_tp * ratio(wall as f64, cpu as f64),
            "Minst/s",
        );
        report.push("run_ms_p50", percentile(&mut op_ms, 50.0), "ms");
        // The highest percentile up to p90 that leaves ten samples above.
        let p = (100.0 * (n as f64 - 10.0) / n as f64).clamp(50.0, 90.0);
        report.push("run_ms_p90", percentile(&mut op_ms, p), "ms");
        if p < 90.0 {
            report
                .notes
                .push(format!("run_ms_p90 is p{p:.1}: only {n} samples"));
        }
        report
            .notes
            .push(format!("{} passes, {n} call-time samples", untraced.len()));
        report.push("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB");
    } else {
        // Hierarchy host cost: each call once more, traced with its
        // hierarchy calls logged, then the log replayed.
        let mut mem = MemReplay::default();
        for i in 0..r.reference.len() {
            layers::start_mem_log();
            let ran = r.run(i, true);
            let log = layers::take_mem_log();
            if ran.is_some() {
                mem.add(&layers::replay_mem(&log, &mut r.prep().fresh_memory()));
            }
        }

        let before = layers::snapshot();
        let (allocs0, bytes0) = crate::alloc::totals();
        let t_start = Instant::now();
        let mut spans: Vec<SimSpan> = Vec::new();
        let mut last = before.clone();
        let mut first_pass_counts = [0u64; counts::COUNTS];
        let mut first_pass_trace_bytes = 0u64;
        let traced = phase(
            &mut r,
            measured.saturating_sub(untraced_budget),
            true,
            0,
            |pass, op, o| {
                let now = layers::snapshot();
                let sites = now.since(&last);
                last = now;
                if pass == 0 {
                    for (a, b) in first_pass_counts.iter_mut().zip(o.counts) {
                        *a += b;
                    }
                    first_pass_trace_bytes += o.trace_bytes;
                }
                spans.push(SimSpan {
                    pass,
                    op,
                    start_ns: t_start.elapsed().as_nanos() as u64,
                    sim_ns: o.sim_ns,
                    sites,
                });
            },
        )?;
        let (allocs1, bytes1) = crate::alloc::totals();
        let total = layers::snapshot().since(&before);

        report.push("bench.timer_ns", timer_ns, "ns");
        report.push(
            "bench.tracing_overhead",
            ratio(untraced_tp, fastest_throughput(&traced, &r.reference)),
            "ratio",
        );
        closes = layer_metrics(
            &mut report,
            &LayerInputs {
                setup: &setup,
                passes: &traced,
                total: &total,
                spans: &spans,
                allocs: (allocs1 - allocs0, bytes1 - bytes0),
                mem: &mem,
                counts: &first_pass_counts,
                trace_bytes: first_pass_trace_bytes,
            },
        );
        if let Err(e) = write_spans(opts, r.prep(), &spans) {
            report.notes.push(format!("span file not written: {e}"));
        }
    }

    // One pass's combined digest, against the recorded expectation.
    let mut pass_digest = Digest::default();
    pass_digest.words(r.reference.iter().map(|d| d.map_or(0, |(d, _)| d)));
    report.digest = pass_digest.finish();
    match crate::expected::lookup(opts.kind, opts.seed, opts.budget) {
        Some(want) if want != report.digest => {
            r.errors.push(format!(
                "pass digest {:016x} differs from the recorded {want:016x}",
                report.digest
            ));
            r.failed = r.attempted;
        }
        Some(_) => report
            .notes
            .push("digest matches the recorded value".into()),
        None => report.notes.push(format!(
            "no recorded digest for seed {}: checked across passes{} only",
            opts.seed,
            if opts.trace {
                " and traced vs untraced"
            } else {
                ""
            }
        )),
    }
    report.attempted = r.attempted;
    report.failed = r.failed;
    report.correct = closes && r.failed == 0 && r.attempted > 0;
    report.notes.extend(r.errors);
    Ok(report)
}

struct LayerInputs<'a> {
    setup: &'a SetupStats,
    passes: &'a [Pass],
    total: &'a Counters,
    spans: &'a [SimSpan],
    allocs: (u64, u64),
    mem: &'a MemReplay,
    counts: &'a [u64; counts::COUNTS],
    trace_bytes: u64,
}

/// The per-layer metrics, per pass (means over the traced passes).
/// Returns whether the layer attribution closes.
fn layer_metrics(report: &mut Report, x: &LayerInputs<'_>) -> bool {
    let n = x.passes.len().max(1) as f64;
    let insts: u64 = x.passes.iter().map(|p| p.insts).sum();
    let kinst = insts as f64 / 1e3;
    let t = x.total;
    let self_s = |site: Site| t.self_ns[site as usize] as f64 / 1e9 / n;
    let calls = |site: Site| t.calls[site as usize] as f64;
    let ns_per_call = |site: Site| ratio(t.self_ns[site as usize] as f64, calls(site));
    let sim_ns: u64 = x.spans.iter().map(|s| s.sim_ns).sum();
    let cpu_self: Option<u64> = x.spans.iter().map(SimSpan::cpu_self_ns).sum();

    // Closure: the per-call roll-ups must add up to the layer totals,
    // and within every call the layers must fit inside the simulate
    // span, so layers plus cpu.self equal the simulate time.
    let mut rolled = Counters::default();
    for s in x.spans {
        rolled.add(&s.sites);
    }
    let cpu_self_ns = cpu_self.unwrap_or(0);
    let closes = rolled == *t && cpu_self.is_some() && rolled.wrapped_ns() + cpu_self_ns == sim_ns;
    if !closes {
        report
            .notes
            .push("layer attribution does not close: spans disagree with totals".into());
    }

    report.push("core.on_retire.calls", calls(Site::CoreRetire) / n, "count");
    report.push("core.on_retire.self_s", self_s(Site::CoreRetire), "s");
    report.push(
        "core.on_retire.ns_per_call",
        ns_per_call(Site::CoreRetire),
        "ns",
    );
    report.push(
        "core.on_prefetch_complete.calls",
        calls(Site::CorePfComplete) / n,
        "count",
    );
    report.push(
        "core.on_prefetch_complete.self_s",
        self_s(Site::CorePfComplete),
        "s",
    );
    report.push(
        "core.requests_per_kinst",
        ratio(t.requests[0] as f64, kinst),
        "1/kinst",
    );
    let [issued, useful, dropped] = t.core_fate.map(|v| v as f64);
    report.push("core.accuracy", ratio(useful, issued), "ratio");
    report.push("core.drop_rate", ratio(dropped, issued + dropped), "ratio");

    report.push(
        "baselines.on_retire.self_s",
        self_s(Site::BaselinesRetire),
        "s",
    );
    report.push(
        "baselines.on_retire.ns_per_call",
        ns_per_call(Site::BaselinesRetire),
        "ns",
    );
    report.push(
        "baselines.on_prefetch_complete.self_s",
        self_s(Site::BaselinesPfComplete),
        "s",
    );
    report.push(
        "baselines.requests_per_kinst",
        ratio(t.requests[1] as f64, kinst),
        "1/kinst",
    );

    report.push("metrics.emit.calls", calls(Site::MetricsEmit) / n, "count");
    report.push("metrics.emit.self_s", self_s(Site::MetricsEmit), "s");
    report.push(
        "metrics.emit.ns_per_event",
        ns_per_call(Site::MetricsEmit),
        "ns",
    );
    for (name, v) in EVENT_NAMES.iter().zip(t.events) {
        report.push(&format!("metrics.events.{name}"), v as f64 / n, "count");
    }
    report.push("metrics.induced_miss.blamed", t.blamed as f64 / n, "count");
    report.push("metrics.classify_s", x.setup.classify_ns as f64 / 1e9, "s");

    let trace_s = self_s(Site::TraceSource);
    report.push("trace.next_block.self_s", trace_s, "s");
    report.push(
        "trace.decode_mb_per_s",
        ratio(x.trace_bytes as f64 / 1e6, trace_s),
        "MB/s",
    );
    report.push("trace.bytes", x.trace_bytes as f64, "B");
    report.push(
        "trace.record_mb_per_s",
        ratio(
            x.setup.recorded_bytes as f64 * 1e3,
            x.setup.record_ns as f64,
        ),
        "MB/s",
    );

    report.push("isa.next_block.self_s", self_s(Site::IsaSource), "s");
    report.push(
        "isa.capture_minst_per_s",
        minst_per_s(x.setup.captured_insts, x.setup.capture_ns),
        "Minst/s",
    );

    report.push("cpu.simulate_s", sim_ns as f64 / 1e9 / n, "s");
    report.push("cpu.self_s", cpu_self_ns as f64 / 1e9 / n, "s");
    report.push("cpu.ns_per_inst", ratio(sim_ns as f64, insts as f64), "ns");
    report.push(
        "cpu.allocs_per_kinst",
        ratio(x.allocs.0 as f64, kinst),
        "1/kinst",
    );
    report.push(
        "cpu.alloc_bytes_per_kinst",
        ratio(x.allocs.1 as f64, kinst),
        "B/kinst",
    );

    for (name, v) in counts::NAMES.iter().zip(x.counts) {
        report.push(name, *v as f64, "count");
    }
    let c = |name: &str| x.counts[counts::index(name)] as f64;
    report.push(
        "mem.dram.row_hit_rate",
        ratio(
            c("mem.dram.row_hits"),
            c("mem.dram.row_hits") + c("mem.dram.row_misses"),
        ),
        "ratio",
    );
    report.push(
        "mem.demand_access.ns_per_call",
        ratio(x.mem.demand_ns as f64, x.mem.demand_calls as f64),
        "ns",
    );
    report.push(
        "mem.prefetch.ns_per_call",
        ratio(x.mem.prefetch_ns as f64, x.mem.prefetch_calls as f64),
        "ns",
    );
    closes
}

/// Writes one line per traced simulate call to
/// `<out_dir>/spans-<workload>-seed<seed>.jsonl`.
fn write_spans(opts: &Options, prep: &Prepared, spans: &[SimSpan]) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        opts.kind.name(),
        opts.seed
    ));
    let mut s = String::new();
    for sp in spans {
        let ns = |site: Site| sp.sites.self_ns[site as usize];
        let _ = writeln!(
            s,
            "{{\"span\": \"simulate\", \"pass\": {}, \"op\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \
             \"core_ns\": {}, \"baselines_ns\": {}, \"metrics_ns\": {}, \"source_ns\": {}, \"cpu_self_ns\": {}}}",
            sp.pass,
            prep.op_name(sp.op),
            sp.start_ns,
            sp.sim_ns,
            ns(Site::CoreRetire) + ns(Site::CorePfComplete),
            ns(Site::BaselinesRetire) + ns(Site::BaselinesPfComplete),
            ns(Site::MetricsEmit),
            ns(Site::IsaSource) + ns(Site::TraceSource),
            sp.cpu_self_ns().unwrap_or(0),
        );
    }
    std::fs::write(path, s)
}
