//! Simulated work counts: deterministic and exact, reported per pass in
//! the traced run. They say how much simulated work the core loop and
//! the hierarchy did, which is what their host time scales with.

use dol_mem::{MshrStats, SystemStats};

/// Number of counts in [`NAMES`].
pub const COUNTS: usize = 32;

/// Metric names, in [`collect`] order.
pub const NAMES: [&str; COUNTS] = [
    "cpu.sim_cycles",
    "cpu.stall.rob",
    "cpu.stall.lsq",
    "cpu.stall.branch",
    "cpu.mispredicts",
    "mem.accesses",
    "mem.l1.hits",
    "mem.l1.misses",
    "mem.l2.hits",
    "mem.l2.misses",
    "mem.l1.secondary",
    "mem.l3.hits",
    "mem.dram_fills",
    "mem.prefetches_accepted",
    "mem.mshr.l1.stall_events",
    "mem.mshr.l1.stall_cycles",
    "mem.mshr.l2.stall_events",
    "mem.mshr.l2.stall_cycles",
    "mem.mshr.l3.stall_events",
    "mem.mshr.l3.stall_cycles",
    "mem.mshr.pf_l3.stall_events",
    "mem.mshr.pf_l3.stall_cycles",
    "mem.dram.demand_reads",
    "mem.dram.prefetch_reads",
    "mem.dram.writebacks",
    "mem.dram.dropped_prefetches",
    "mem.dram.row_hits",
    "mem.dram.row_misses",
    "mem.dram.bank_conflicts",
    "mem.dram.queue_full_waits",
    "mem.llc_cross_evictions",
    "mem.llc_prefetch_pollution",
];

/// Index of a count in [`NAMES`].
pub fn index(name: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown count {name}"))
}

/// The counts of one simulate call; cycles, stalls and mispredicts are
/// summed over cores.
pub fn collect(
    cycles: impl IntoIterator<Item = u64>,
    stalls: &[[u64; 3]],
    mispredicts: &[u64],
    stats: &SystemStats,
) -> [u64; COUNTS] {
    let mut c = [0u64; COUNTS];
    c[0] = cycles.into_iter().sum();
    for s in stalls {
        c[1] += s[0];
        c[2] += s[1];
        c[3] += s[2];
    }
    c[4] = mispredicts.iter().sum();
    for core in &stats.cores {
        c[5] += core.accesses;
        c[6] += core.l1_hits;
        c[7] += core.l1_misses;
        c[8] += core.l2_hits;
        c[9] += core.l2_misses;
        c[10] += core.l1_secondary;
        c[11] += core.l3_hits;
        c[12] += core.dram_fills;
        c[13] += core.prefetches;
    }
    let sh = &stats.shared;
    let sum = |files: &[MshrStats]| {
        files
            .iter()
            .fold((0, 0), |(e, y), m| (e + m.stall_events, y + m.stall_cycles))
    };
    (c[14], c[15]) = sum(&sh.core_l1_mshr);
    (c[16], c[17]) = sum(&sh.core_l2_mshr);
    (c[18], c[19]) = sum(std::slice::from_ref(&sh.l3_mshr));
    (c[20], c[21]) = sum(std::slice::from_ref(&sh.pf_l3));
    let d = &stats.dram;
    c[22] = d.demand_reads;
    c[23] = d.prefetch_reads;
    c[24] = d.writebacks;
    c[25] = d.dropped_prefetches;
    c[26] = d.row_hits;
    c[27] = d.row_misses;
    c[28] = d.bank_conflicts;
    c[29] = d.queue_full_waits;
    c[30] = sh.llc_cross_evictions.iter().sum();
    c[31] = sh.total_prefetch_pollution();
    c
}
