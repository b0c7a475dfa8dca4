//! The benchmark's fixed inputs: problem configurations, the verify-batch
//! catalog and its committed expected verdicts.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::synth::{OptMode, SynthOptions, DEFAULT_DISPATCH_MIN};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic_cegis::Budget;
use ccmatic_num::{int, rat, Rat, SmallRng};
use std::time::Duration;

/// Wall budget of one synthesis job or one sweep point.
const JOB_BUDGET: Duration = Duration::from_secs(120);

/// Iteration cap of a `synth-cwnd` job: the cell does not solve, and 7
/// iterations keep the job near four seconds.
const CWND_ITERATIONS: u64 = 7;

/// The Table-1 network at CI scale (`table1_rows(Scale::Ci)`).
pub fn ci_net() -> NetConfig {
    NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None }
}

/// A Table-1 search space at CI scale (lookback 3).
pub fn ci_shape(use_cwnd: bool, domain: CoeffDomain) -> TemplateShape {
    TemplateShape { lookback: 3, use_cwnd, domain }
}

/// Serial RP+WCE synthesis over `shape`, as the Table-1 harness runs a
/// cell. `seed` only seeds the SAT search's tie-breaking, which the serial
/// loop leaves off, so every seed does the same work.
pub fn synth_opts(shape: TemplateShape, max_iterations: u64, seed: u64) -> SynthOptions {
    SynthOptions {
        shape,
        net: ci_net(),
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations, max_wall: JOB_BUDGET },
        wce_precision: rat(1, 2),
        incremental: true,
        threads: 1,
        seed,
        dispatch_min: DEFAULT_DISPATCH_MIN,
        certify: false,
        region_pruning: true,
        theory_sync: true,
    }
}

/// `synth-wce`: No-cwnd/Large, RP+WCE, to the first solution.
pub fn synth_wce_opts(seed: u64) -> SynthOptions {
    synth_opts(ci_shape(false, CoeffDomain::Large), 1_000_000, seed)
}

/// `synth-cwnd`: cwnd/Small, RP+WCE, capped at [`CWND_ITERATIONS`].
pub fn synth_cwnd_opts(seed: u64) -> SynthOptions {
    synth_opts(ci_shape(true, CoeffDomain::Small), CWND_ITERATIONS, seed)
}

/// `sweep-cache`: the base problem of the §4 threshold sweeps at CI scale
/// (No-cwnd/Small).
pub fn sweep_base_opts(seed: u64) -> SynthOptions {
    synth_opts(ci_shape(false, CoeffDomain::Small), 1_000_000, seed)
}

/// The E4 delay axis and its expected solution counts.
pub fn delay_axis() -> Vec<Rat> {
    vec![int(8), int(4), rat(18, 5), int(3)]
}
pub const DELAY_COUNTS: [usize; 4] = [7, 4, 3, 3];

/// The E3 utilization axis and its expected solution counts.
pub fn util_axis() -> Vec<Rat> {
    vec![rat(1, 2), rat(13, 20), rat(7, 10)]
}
pub const UTIL_COUNTS: [usize; 3] = [4, 2, 1];

/// Thresholds the verify-batch catalog is checked against: the defaults
/// of `ccmatic verify` (util ≥ 1/2, delay ≤ 4).
pub fn catalog_thresholds() -> Thresholds {
    Thresholds::default()
}

/// The seven No-cwnd/Small solutions at util ≥ 1/2, delay ≤ 8, as
/// `[β1, β2, β3, γ]`.
const CATALOG_BASE: [[i64; 4]; 7] = [
    [1, 0, -1, 1],
    [1, -1, 0, 1],
    [0, 0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
    [0, 1, -1, 1],
    [-1, 1, 1, 1],
];

fn spec_of(flat: &[Rat]) -> CcaSpec {
    CcaSpec { alpha: Vec::new(), beta: flat[..3].to_vec(), gamma: flat[3].clone() }
}

/// The verify-batch catalog: each base solution followed by its 32
/// one-coefficient neighbours over the Large domain (231 entries; a CCA
/// that neighbours two base solutions appears once per base).
pub fn catalog() -> Vec<CcaSpec> {
    let large = CoeffDomain::Large.values();
    let mut out = Vec::new();
    for base in CATALOG_BASE {
        let base: Vec<Rat> = base.iter().map(|&c| int(c)).collect();
        out.push(spec_of(&base));
        for i in 0..base.len() {
            for v in large.iter().filter(|v| **v != base[i]) {
                let mut f = base.clone();
                f[i] = v.clone();
                out.push(spec_of(&f));
            }
        }
    }
    out
}

/// A `seed`-shuffled visiting order over `n` catalog entries.
pub fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range_usize(0, i + 1));
    }
    order
}

/// The committed expected verdicts, one `β1 β2 β3 γ pass|fail` line per
/// catalog entry.
const EXPECTED_VERDICTS: &str = include_str!("../../data/verify_batch_expected.txt");

/// Parse [`EXPECTED_VERDICTS`] into `(coefficients, passes)` pairs.
pub fn expected_verdicts() -> Vec<(Vec<Rat>, bool)> {
    EXPECTED_VERDICTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(words.len(), 5, "malformed expected-verdict line `{l}`");
            let flat = words[..4]
                .iter()
                .map(|w| Rat::from_decimal_str(w).expect("coefficient in expected verdicts"))
                .collect();
            let pass = match words[4] {
                "pass" => true,
                "fail" => false,
                other => panic!("unknown verdict `{other}`"),
            };
            (flat, pass)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic::verifier::{CcaVerifier, VerifyConfig};

    #[test]
    fn catalog_has_231_entries_in_expected_order() {
        let cat = catalog();
        let exp = expected_verdicts();
        assert_eq!(cat.len(), 231);
        assert_eq!(exp.len(), cat.len());
        for (spec, (flat, _)) in cat.iter().zip(&exp) {
            assert_eq!(&spec.flat(), flat);
        }
        let mut order = shuffled_order(cat.len(), 7);
        order.sort_unstable();
        assert_eq!(order, (0..cat.len()).collect::<Vec<_>>());
    }

    #[test]
    fn inputs_match_the_table1_ci_rows() {
        let rows = ccmatic_bench::table1_rows(ccmatic_bench::Scale::Ci);
        let wce = synth_wce_opts(0);
        assert_eq!(wce.shape, rows[1].shape);
        assert_eq!(wce.net, rows[1].net);
        let cwnd = synth_cwnd_opts(0);
        assert_eq!(cwnd.shape, rows[2].shape);
        assert_eq!(cwnd.net, rows[2].net);
        assert_eq!(sweep_base_opts(0).shape, rows[0].shape);
    }

    /// Regenerates `data/verify_batch_expected.txt`:
    /// `cargo test --release -- --ignored --nocapture print_expected_verdicts`.
    #[test]
    #[ignore]
    fn print_expected_verdicts() {
        println!("# verify-batch expected verdicts at util >= 1/2, delay <= 4 (CI net)");
        println!("# beta1 beta2 beta3 gamma verdict");
        for spec in catalog() {
            let mut v = CcaVerifier::new(VerifyConfig {
                net: ci_net(),
                thresholds: catalog_thresholds(),
                worst_case: false,
                wce_precision: rat(1, 2),
                incremental: true,
                certify: true,
                search: Default::default(),
                theory_sync: true,
            });
            let verdict = if v.verify(&spec).is_ok() { "pass" } else { "fail" };
            let flat: Vec<String> = spec.flat().iter().map(|c| c.to_string()).collect();
            println!("{} {verdict}", flat.join(" "));
        }
    }
}
