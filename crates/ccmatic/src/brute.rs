//! Brute-force synthesis: enumerate the whole template space and call the
//! verifier on each candidate.
//!
//! §4 uses this as the yardstick for the CEGIS numbers: "A brute force
//! search where the verifier is called for each candidate solution over a
//! search space with size 3⁵ would take ≈120 s, while the baseline takes
//! ≈180 s. However, such brute force would take more than 6 core-years of
//! computing time for a search space of size 9⁹." This module reproduces
//! that comparison point (see `benches/` and EXPERIMENTS.md E5).

use crate::template::{CcaSpec, TemplateShape};
use crate::verifier::{CcaVerifier, VerifyConfig};
use ccac_model::{NetConfig, Thresholds};
use ccmatic_num::Rat;
use std::time::{Duration, Instant};

/// Iterator over every candidate of a template shape, in lexicographic
/// domain order.
pub struct CandidateIter {
    shape: TemplateShape,
    domain: Vec<Rat>,
    /// Mixed-radix counter over the coefficients; `None` when exhausted.
    digits: Option<Vec<usize>>,
}

impl CandidateIter {
    /// Iterate over `shape`'s full space.
    pub fn new(shape: TemplateShape) -> Self {
        let domain = shape.domain.values();
        let digits = Some(vec![0; shape.num_coefficients()]);
        CandidateIter { shape, domain, digits }
    }

    fn spec_from(&self, digits: &[usize]) -> CcaSpec {
        let values: Vec<Rat> = digits.iter().map(|&d| self.domain[d].clone()).collect();
        let (alpha, rest) = if self.shape.use_cwnd {
            let (a, r) = values.split_at(self.shape.lookback);
            (a.to_vec(), r.to_vec())
        } else {
            (Vec::new(), values)
        };
        let (beta, gamma) = rest.split_at(self.shape.lookback);
        CcaSpec { alpha, beta: beta.to_vec(), gamma: gamma[0].clone() }
    }
}

impl Iterator for CandidateIter {
    type Item = CcaSpec;

    fn next(&mut self) -> Option<CcaSpec> {
        let snapshot = self.digits.clone()?;
        let out = self.spec_from(&snapshot);
        // Increment the mixed-radix counter.
        let digits = self.digits.as_mut().expect("checked above");
        let mut i = 0;
        loop {
            if i == digits.len() {
                self.digits = None;
                break;
            }
            digits[i] += 1;
            if digits[i] < self.domain.len() {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
        Some(out)
    }
}

/// Outcome of a brute-force run.
#[derive(Debug)]
pub struct BruteResult {
    /// First verified solution, if any was found in budget.
    pub solution: Option<CcaSpec>,
    /// Candidates tried.
    pub tried: u64,
    /// Wall-clock spent.
    pub wall: Duration,
    /// Whether the space was exhausted (no solution exists) rather than the
    /// budget running out.
    pub exhausted: bool,
}

/// Brute-force search for the first solution, bounded by `max_wall`.
pub fn brute_force_first(
    shape: &TemplateShape,
    net: &NetConfig,
    thresholds: &Thresholds,
    max_wall: Duration,
) -> BruteResult {
    let start = Instant::now();
    let mut verifier = CcaVerifier::new(VerifyConfig {
        net: net.clone(),
        thresholds: thresholds.clone(),
        worst_case: false,
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        incremental: true,
        certify: false,
        search: Default::default(),
        theory_sync: true,
    });
    let mut tried = 0;
    for spec in CandidateIter::new(shape.clone()) {
        if start.elapsed() >= max_wall {
            return BruteResult { solution: None, tried, wall: start.elapsed(), exhausted: false };
        }
        tried += 1;
        if verifier.verify(&spec).is_ok() {
            return BruteResult {
                solution: Some(spec),
                tried,
                wall: start.elapsed(),
                exhausted: false,
            };
        }
    }
    BruteResult { solution: None, tried, wall: start.elapsed(), exhausted: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::CoeffDomain;
    use ccmatic_num::int;

    #[test]
    fn iterator_covers_whole_space_once() {
        let shape = TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small };
        let all: Vec<CcaSpec> = CandidateIter::new(shape.clone()).collect();
        assert_eq!(all.len() as u128, shape.search_space_size());
        // No duplicates.
        let mut dedup = all.clone();
        dedup.sort_by_key(|s| format!("{s:?}"));
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn iterator_respects_use_cwnd() {
        let shape = TemplateShape {
            lookback: 1,
            use_cwnd: true,
            domain: CoeffDomain::Custom(vec![int(0), int(1)]),
        };
        let all: Vec<CcaSpec> = CandidateIter::new(shape).collect();
        assert_eq!(all.len(), 8); // 2^3: α1, β1, γ
        assert!(all.iter().all(|s| s.alpha.len() == 1 && s.beta.len() == 1));
    }

    #[test]
    fn brute_force_finds_solution_on_tiny_space() {
        let shape = TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small };
        let net =
            NetConfig { horizon: 5, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None };
        let r = brute_force_first(&shape, &net, &Thresholds::default(), Duration::from_secs(300));
        let sol = r.solution.expect("the 3⁴ space contains working CCAs");
        // Re-verify for soundness.
        let mut v = CcaVerifier::new(VerifyConfig {
            net,
            thresholds: Thresholds::default(),
            worst_case: false,
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            incremental: true,
            certify: false,
            search: Default::default(),
            theory_sync: true,
        });
        assert!(v.verify(&sol).is_ok());
        assert!(r.tried >= 1);
    }
}
