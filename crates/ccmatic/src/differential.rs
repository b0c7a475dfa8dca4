//! Differential comparison of two CCAs (§2's third query).
//!
//! The paper: *"given CCA A, CCA B, and some desirable properties, for all
//! networks on which CCA A ensures the desirable properties, what
//! additional network constraints are needed for CCA B"*. Our
//! concretization has two parts:
//!
//! * [`compare`] computes each CCA's guarantee frontier (tolerated jitter,
//!   provable utilization, provable queue bound — the interpretable
//!   constraints of [`crate::assumptions`]) and reports the difference:
//!   "A works up to jitter 2, B needs jitter ≤ 1" is precisely the
//!   "additional network constraint" the paper asks for.
//! * [`separating_environment`] produces a *witness*: a concrete network
//!   behaviour that breaks B, paired with a machine-checked proof that A
//!   survives **every** behaviour of the same environment class (same link
//!   rate, jitter bound, buffer) — so in particular the witness itself.
//!
//! A subtlety worth recording: one might hope to couple two copies of the
//! model on a single waste schedule `W` and ask for "one trace, two CCAs".
//! That encoding is *unsound* in the CCAC semantics: waste is caused by
//! sender behaviour (tokens are wasted only when the sender has nothing
//! queued), so two different CCAs on "the same network" necessarily induce
//! different waste processes, and pinning them equal manufactures
//! contradictions with the service-floor constraint. The per-world
//! formulation below (universal proof for A, existential break for B) is
//! the sound reading of the paper's differential query.

use crate::assumptions::{delay_guarantee, max_tolerated_jitter, utilization_guarantee};
use crate::template::CcaSpec;
use crate::verifier::{CcaVerifier, VerifyConfig};
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic_num::Rat;
use std::fmt;

/// One CCA's guarantee frontier.
#[derive(Clone, Debug)]
pub struct Frontier {
    /// Largest tolerated jitter (RTT units), `None` if it fails at `D=0`.
    pub jitter: Option<Rat>,
    /// Strongest provable utilization at the base delay bound.
    pub utilization: Option<Rat>,
    /// Tightest provable queue bound at the base utilization target.
    pub queue: Option<Rat>,
}

/// The differential report for a pair of CCAs.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Frontier of the first CCA.
    pub a: Frontier,
    /// Frontier of the second CCA.
    pub b: Frontier,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |x: &Option<Rat>| match x {
            Some(v) => format!("{:.2}", v.to_f64()),
            None => "—".into(),
        };
        writeln!(f, "{:<24} {:>10} {:>10}", "constraint", "CCA A", "CCA B")?;
        writeln!(
            f,
            "{:<24} {:>10} {:>10}",
            "jitter tolerated (RTT)",
            show(&self.a.jitter),
            show(&self.b.jitter)
        )?;
        writeln!(
            f,
            "{:<24} {:>10} {:>10}",
            "utilization ≥",
            show(&self.a.utilization),
            show(&self.b.utilization)
        )?;
        write!(f, "{:<24} {:>10} {:>10}", "queue ≤ (BDP)", show(&self.a.queue), show(&self.b.queue))
    }
}

fn frontier(spec: &CcaSpec, net: &NetConfig, th: &Thresholds, precision: &Rat) -> Frontier {
    Frontier {
        jitter: max_tolerated_jitter(spec, net, th, 3).map(|g| g.value),
        utilization: utilization_guarantee(spec, net, th, precision).map(|g| g.value),
        queue: delay_guarantee(spec, net, th, &Rat::from(16i64), precision).map(|g| g.value),
    }
}

/// Compute both frontiers.
pub fn compare(
    a: &CcaSpec,
    b: &CcaSpec,
    net: &NetConfig,
    th: &Thresholds,
    precision: &Rat,
) -> Comparison {
    Comparison { a: frontier(a, net, th, precision), b: frontier(b, net, th, precision) }
}

/// Find a separating environment: `Some(trace)` iff A is *provably safe on
/// every trace* of the environment class while B is broken by the returned
/// trace. `None` when A itself is unsafe (no universal proof exists) or
/// when B is as robust as A (no break exists).
pub fn separating_environment(
    a: &CcaSpec,
    b: &CcaSpec,
    net: &NetConfig,
    th: &Thresholds,
) -> Option<Trace> {
    let mut verifier = CcaVerifier::new(VerifyConfig {
        net: net.clone(),
        thresholds: th.clone(),
        worst_case: false,
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        incremental: true,
        certify: false,
        search: Default::default(),
        theory_sync: true,
    });
    // A must hold universally — the separator is only meaningful inside
    // A's proven envelope.
    verifier.verify(a).ok()?;
    verifier.verify(b).err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;
    use ccmatic_num::{int, rat};

    fn net() -> NetConfig {
        NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    #[test]
    fn rocc_dominates_const_window() {
        let cmp = compare(
            &known::rocc(),
            &known::const_cwnd(int(1)),
            &net(),
            &Thresholds::default(),
            &rat(1, 4),
        );
        assert!(cmp.a.jitter.is_some(), "RoCC tolerates some jitter");
        // const-1 fails at jitter 1 (the default thresholds), so either it
        // has no tolerance or strictly less than RoCC's.
        match (&cmp.a.jitter, &cmp.b.jitter) {
            (Some(ja), Some(jb)) => assert!(ja >= jb, "RoCC should tolerate ≥ jitter"),
            (Some(_), None) => {}
            _ => panic!("unexpected frontier shape: {cmp}"),
        }
        let rendered = cmp.to_string();
        assert!(rendered.contains("jitter"));
    }

    #[test]
    fn separating_environment_exists_for_rocc_vs_zero() {
        let tb = separating_environment(
            &known::rocc(),
            &known::const_cwnd(Rat::zero()),
            &net(),
            &Thresholds::default(),
        )
        .expect("a separator must exist: RoCC is proven safe, zero-cwnd starves");
        assert!(
            tb.utilization() < rat(1, 2),
            "B should starve in the witness, got {}",
            tb.utilization()
        );
    }

    #[test]
    fn no_separator_between_identical_ccas() {
        // RoCC satisfies the property on all traces, so the B-side
        // violation is unsatisfiable.
        assert!(
            separating_environment(&known::rocc(), &known::rocc(), &net(), &Thresholds::default())
                .is_none(),
            "a certified CCA admits no violating trace at all"
        );
    }

    #[test]
    fn no_separator_when_a_is_unsafe() {
        // The separator is only defined inside A's proven envelope; an
        // unsafe A yields None even though B is also broken.
        assert!(separating_environment(
            &known::const_cwnd(Rat::zero()),
            &known::const_cwnd(int(20)),
            &net(),
            &Thresholds::default()
        )
        .is_none());
    }
}
