//! Recorded correctness digests, one per workload, seed and budget, in
//! `expected.txt` (embedded at build time).

use crate::suite::{Budget, Kind};

const TABLE: &str = include_str!("../expected.txt");

/// The table key of `kind` at `seed` and `budget`: `workload seed insts
/// corun-insts`.
pub fn key(kind: Kind, seed: u64, budget: Budget) -> String {
    format!(
        "{} {seed} {} {}",
        kind.name(),
        budget.insts,
        budget.corun_insts
    )
}

/// The recorded pass digest for `kind` at `seed` and `budget`, if any.
///
/// # Panics
///
/// Panics on a malformed line: the table is part of the benchmark.
pub fn lookup(kind: Kind, seed: u64, budget: Budget) -> Option<u64> {
    let want = key(kind, seed, budget);
    TABLE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (k, digest) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("malformed expected.txt line: {l}"));
            (k == want).then(|| {
                u64::from_str_radix(digest, 16)
                    .unwrap_or_else(|_| panic!("malformed expected.txt digest: {l}"))
            })
        })
}
