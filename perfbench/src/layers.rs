//! Layer tracing from outside the simulator.
//!
//! `System` calls three public traits on its hot path: the prefetcher
//! (`core` for TPC and its coordinator, `baselines` for the monolithic
//! designs), the event sink (`metrics`), and the instruction source
//! (`isa` for an in-memory trace, `trace` for a streamed `.dolt` file).
//! The wrappers here implement those traits around the real objects and
//! time every call, so a traced run attributes simulate time to layers
//! without touching the simulator. Whatever a simulate call spends
//! outside the wrappers is the core loop plus the memory hierarchy:
//! `cpu.self`.
//!
//! Spans nest (the composite coordinator calls its wrapped extra), so
//! each span records its *self* time: its duration minus the time its
//! nested spans cover. Self times of all sites therefore sum to the time
//! spent inside top-level wrappers, and `cpu.self` is exact integer
//! arithmetic on the remainder.
//!
//! State is thread-local: one simulation runs at a time on the
//! benchmark thread.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use dol_core::{CompletedPrefetch, PrefetchRequest, Prefetcher, RetireInfo};
use dol_isa::{InstBlock, InstKind, InstSource, RetiredInst};
use dol_mem::{CacheLevel, EventSink, MemEvent, MemorySystem, NullSink, Origin};

/// One timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `Prefetcher::on_retire` of a `core` prefetcher.
    CoreRetire,
    /// `Prefetcher::on_prefetch_complete` of a `core` prefetcher.
    CorePfComplete,
    /// `Prefetcher::on_retire` of a `baselines` prefetcher.
    BaselinesRetire,
    /// `Prefetcher::on_prefetch_complete` of a `baselines` prefetcher.
    BaselinesPfComplete,
    /// `EventSink::emit`.
    MetricsEmit,
    /// `InstSource` calls on an in-memory `TraceCursor`.
    IsaSource,
    /// `InstSource` calls on a streaming `ReplaySource`.
    TraceSource,
}

/// Number of [`Site`]s.
pub const SITES: usize = 7;

/// Which crate a wrapped prefetcher belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dol-core`: TPC's components and the compositing coordinator
    /// (and the no-prefetch baseline).
    Core,
    /// `dol-baselines`: the monolithic prefetchers.
    Baselines,
}

impl Layer {
    fn retire_site(self) -> Site {
        match self {
            Layer::Core => Site::CoreRetire,
            Layer::Baselines => Site::BaselinesRetire,
        }
    }

    fn complete_site(self) -> Site {
        match self {
            Layer::Core => Site::CorePfComplete,
            Layer::Baselines => Site::BaselinesPfComplete,
        }
    }
}

/// Metric-event kinds in [`Counters::events`] order.
pub const EVENT_NAMES: [&str; 7] = [
    "prefetch_issued",
    "prefetch_dropped",
    "prefetch_useful",
    "prefetch_unused",
    "avoided_miss",
    "induced_miss",
    "demand_miss",
];

/// Everything the wrappers count. Plain integers, so deltas and sums
/// are exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Self time per [`Site`], in nanoseconds.
    pub self_ns: [u64; SITES],
    /// Calls per [`Site`].
    pub calls: [u64; SITES],
    /// Prefetch requests returned by wrapped prefetchers, per [`Layer`]
    /// (`[core, baselines]`).
    pub requests: [u64; 2],
    /// Metric events seen by the sink, per kind ([`EVENT_NAMES`]).
    pub events: [u64; 7],
    /// Origins carried by `InducedMiss` events.
    pub blamed: u64,
    /// `[issued, useful, dropped]` events whose origin is one of TPC's
    /// own components.
    pub core_fate: [u64; 3],
}

impl Counters {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        fn sub<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i] - b[i])
        }
        Counters {
            self_ns: sub(&self.self_ns, &earlier.self_ns),
            calls: sub(&self.calls, &earlier.calls),
            requests: sub(&self.requests, &earlier.requests),
            events: sub(&self.events, &earlier.events),
            blamed: self.blamed - earlier.blamed,
            core_fate: sub(&self.core_fate, &earlier.core_fate),
        }
    }

    /// Total self time of every wrapped call.
    pub fn wrapped_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        fn acc<const N: usize>(a: &mut [u64; N], b: &[u64; N]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        acc(&mut self.self_ns, &other.self_ns);
        acc(&mut self.calls, &other.calls);
        acc(&mut self.requests, &other.requests);
        acc(&mut self.events, &other.events);
        self.blamed += other.blamed;
        acc(&mut self.core_fate, &other.core_fate);
    }
}

/// One hierarchy call as a wrapper observed it, in call order.
#[derive(Debug, Clone, Copy)]
pub enum MemCall {
    /// A demand load or store.
    Demand {
        core: usize,
        addr: u64,
        is_write: bool,
        now: u64,
        pc: u64,
    },
    /// A prefetch request as the prefetcher returned it.
    Prefetch {
        core: usize,
        addr: u64,
        dest: CacheLevel,
        origin: Origin,
        confidence: u8,
        now: u64,
    },
}

thread_local! {
    static COUNTERS: RefCell<Counters> = RefCell::new(Counters::default());
    /// Time covered by spans nested inside the currently open span.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
    /// `Some` while hierarchy calls are being logged.
    static MEM_LOG: RefCell<Option<Vec<MemCall>>> = const { RefCell::new(None) };
}

/// The counters accumulated on this thread so far.
pub fn snapshot() -> Counters {
    COUNTERS.with(|c| c.borrow().clone())
}

/// Starts logging hierarchy calls on this thread.
pub fn start_mem_log() {
    MEM_LOG.with(|l| *l.borrow_mut() = Some(Vec::new()));
}

/// Stops logging and returns what was logged.
pub fn take_mem_log() -> Vec<MemCall> {
    MEM_LOG.with(|l| l.borrow_mut().take().unwrap_or_default())
}

fn log_mem(call: MemCall) {
    MEM_LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            log.push(call);
        }
    });
}

fn is_logging() -> bool {
    MEM_LOG.with(|l| l.borrow().is_some())
}

/// Runs `f` as one span of `site`, charging its self time.
#[inline]
fn span<R>(site: Site, f: impl FnOnce() -> R) -> R {
    let outer = NESTED_NS.with(|n| n.replace(0));
    let start = Instant::now();
    let r = f();
    let dur = start.elapsed().as_nanos() as u64;
    let nested = NESTED_NS.with(|n| n.replace(outer + dur));
    COUNTERS.with(|c| {
        let mut c = c.borrow_mut();
        c.self_ns[site as usize] += dur - nested;
        c.calls[site as usize] += 1;
    });
    r
}

/// The address the simulator presents to the shared hierarchy for
/// `core`: each core's addresses live in a private 1 TiB window. Mirrors
/// `System`'s private translation so the logged calls replay exactly.
pub fn core_address(core: usize, addr: u64) -> u64 {
    addr.wrapping_add((core as u64) << 40)
}

/// A traced prefetcher.
pub struct TracedPf<P> {
    inner: P,
    layer: Layer,
    /// The core this prefetcher serves, when it is the top-level
    /// prefetcher `System` calls (and so sees every demand access and
    /// every request the hierarchy receives); `None` for one nested
    /// inside a composite.
    core: Option<usize>,
}

impl<P: Prefetcher> TracedPf<P> {
    /// Wraps the prefetcher `System` drives on `core`.
    pub fn top(inner: P, layer: Layer, core: usize) -> Self {
        TracedPf {
            inner,
            layer,
            core: Some(core),
        }
    }

    /// Wraps a component nested inside another prefetcher.
    pub fn nested(inner: P, layer: Layer) -> Self {
        TracedPf {
            inner,
            layer,
            core: None,
        }
    }

    fn after(&self, out: &[PrefetchRequest], now: u64) {
        COUNTERS.with(|c| c.borrow_mut().requests[self.layer as usize] += out.len() as u64);
        if let Some(core) = self.core {
            if is_logging() {
                for r in out {
                    log_mem(MemCall::Prefetch {
                        core,
                        addr: core_address(core, r.addr),
                        dest: r.dest,
                        origin: r.origin,
                        confidence: r.confidence,
                        now,
                    });
                }
            }
        }
    }
}

impl<P: Prefetcher> Prefetcher for TracedPf<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        if let Some(core) = self.core {
            // `System` made this access at `ev.now` just before retiring
            // the instruction into the prefetcher.
            let (addr, is_write) = match ev.inst.kind {
                InstKind::Load { addr, .. } => (Some(addr), false),
                InstKind::Store { addr } => (Some(addr), true),
                _ => (None, false),
            };
            if let Some(addr) = addr {
                if is_logging() {
                    log_mem(MemCall::Demand {
                        core,
                        addr: core_address(core, addr),
                        is_write,
                        now: ev.now,
                        pc: ev.inst.pc,
                    });
                }
            }
        }
        let before = out.len();
        span(self.layer.retire_site(), || self.inner.on_retire(ev, out));
        self.after(&out[before..], ev.now);
    }

    fn on_prefetch_complete(&mut self, pf: &CompletedPrefetch, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        span(self.layer.complete_site(), || {
            self.inner.on_prefetch_complete(pf, out)
        });
        self.after(&out[before..], pf.now);
    }

    fn claims_pc(&self, mpc: u64) -> bool {
        self.inner.claims_pc(mpc)
    }
}

/// A traced event sink.
pub struct TracedSink<S> {
    /// The wrapped sink.
    pub inner: S,
}

impl<S: EventSink> EventSink for TracedSink<S> {
    fn emit(&mut self, ev: MemEvent) {
        let inner = &mut self.inner;
        span(Site::MetricsEmit, || {
            count_event(&ev);
            inner.emit(ev)
        });
    }
}

fn count_event(ev: &MemEvent) {
    let tpc_owned = |o: &Origin| o.0 < dol_core::origins::MONOLITHIC_BASE;
    let (kind, fate) = match ev {
        MemEvent::PrefetchIssued { origin, .. } => (0, tpc_owned(origin).then_some(0)),
        MemEvent::PrefetchDropped { origin, .. } => (1, tpc_owned(origin).then_some(2)),
        MemEvent::PrefetchUseful { origin, .. } => (2, tpc_owned(origin).then_some(1)),
        MemEvent::PrefetchUnused { .. } => (3, None),
        MemEvent::AvoidedMiss { .. } => (4, None),
        MemEvent::InducedMiss { .. } => (5, None),
        MemEvent::DemandMiss { .. } => (6, None),
    };
    COUNTERS.with(|c| {
        let mut c = c.borrow_mut();
        c.events[kind] += 1;
        if let Some(f) = fate {
            c.core_fate[f] += 1;
        }
        if let MemEvent::InducedMiss { blamed, .. } = ev {
            c.blamed += blamed.len() as u64;
        }
    });
}

/// A traced instruction source.
pub struct TracedSource<S> {
    /// The wrapped source.
    pub inner: S,
    site: Site,
}

impl<S: InstSource> TracedSource<S> {
    /// Wraps an in-memory source (`isa` layer).
    pub fn isa(inner: S) -> Self {
        TracedSource {
            inner,
            site: Site::IsaSource,
        }
    }

    /// Wraps a streaming replay source (`trace` layer).
    pub fn trace(inner: S) -> Self {
        TracedSource {
            inner,
            site: Site::TraceSource,
        }
    }
}

impl<S: InstSource> InstSource for TracedSource<S> {
    fn next_inst(&mut self) -> Option<RetiredInst> {
        span(self.site, || self.inner.next_inst())
    }

    fn next_block(&mut self, block: &mut InstBlock) {
        span(self.site, || self.inner.next_block(block))
    }
}

/// Host cost of the hierarchy's two entry points, from a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemReplay {
    /// `demand_access` calls replayed.
    pub demand_calls: u64,
    /// Their summed wall time, timer cost included.
    pub demand_ns: u64,
    /// `prefetch` calls replayed.
    pub prefetch_calls: u64,
    /// Their summed wall time, timer cost included.
    pub prefetch_ns: u64,
}

impl MemReplay {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &MemReplay) {
        self.demand_calls += other.demand_calls;
        self.demand_ns += other.demand_ns;
        self.prefetch_calls += other.prefetch_calls;
        self.prefetch_ns += other.prefetch_ns;
    }
}

/// Replays logged hierarchy calls into a fresh `MemorySystem`, timing
/// each call. `System` calls the hierarchy internally, so this is how
/// the benchmark measures the hierarchy's host cost through its public
/// API. Retried prefetches are not visible to the wrappers and are not
/// replayed.
pub fn replay_mem(log: &[MemCall], mem: &mut MemorySystem) -> MemReplay {
    let mut r = MemReplay::default();
    let mut sink = NullSink;
    for call in log {
        let start = Instant::now();
        match *call {
            MemCall::Demand {
                core,
                addr,
                is_write,
                now,
                pc,
            } => {
                std::hint::black_box(mem.demand_access(core, addr, is_write, now, pc, &mut sink));
                r.demand_ns += start.elapsed().as_nanos() as u64;
                r.demand_calls += 1;
            }
            MemCall::Prefetch {
                core,
                addr,
                dest,
                origin,
                confidence,
                now,
            } => {
                std::hint::black_box(
                    mem.prefetch(core, addr, dest, origin, confidence, now, &mut sink),
                );
                r.prefetch_ns += start.elapsed().as_nanos() as u64;
                r.prefetch_calls += 1;
            }
        }
    }
    r
}

/// Measured cost of one `Instant::now()` call, in nanoseconds.
pub fn timer_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..CALLS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(CALLS)
}
