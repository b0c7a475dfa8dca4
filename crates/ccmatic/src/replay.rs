//! Concrete counterexample replay: re-run a learned trace against a
//! candidate's rule directly, with no SMT solver.
//!
//! The generator's `learn` asserts `σ(A, τ) = feasible(A, τ) ⟹
//! desired(A, τ)` symbolically over coefficient variables. For a *concrete*
//! candidate the same formula is just exact rational arithmetic: evaluate
//! the template recursion and the sender max-rule on the trace's service
//! schedule, then check feasibility and the desired property. This module
//! mirrors [`SmtGenerator::learn`](crate::generator::SmtGenerator::learn)
//! constraint for constraint — the pair is pinned together by the
//! agreement tests below, which replay every verifier counterexample
//! against the candidate it refuted.
//!
//! The payoff is the speculative engine's prefilter: a queued candidate
//! that an already-learned trace refutes dies for a few hundred rational
//! operations instead of a solver probe. On the serial path (where the
//! generator has already digested every trace) a replay hit is impossible
//! by construction, which makes the prefilter double as a cross-check of
//! the generator encoding.

use crate::generator::FeasibilityMode;
use crate::template::CcaSpec;
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic_num::Rat;

/// Replays traces against candidates under one network/threshold/mode
/// configuration (must match the generator's).
#[derive(Clone, Debug)]
pub struct TraceReplay {
    net: NetConfig,
    thresholds: Thresholds,
    mode: FeasibilityMode,
}

impl TraceReplay {
    /// Build a replayer. `mode` must match the generator's feasibility
    /// encoding or the prefilter would disagree with `learn`.
    pub fn new(net: NetConfig, thresholds: Thresholds, mode: FeasibilityMode) -> Self {
        TraceReplay { net, thresholds, mode }
    }

    /// Rewrite `trace`'s waste schedule to the minimal one its service
    /// schedule admits under this network configuration (see
    /// [`Trace::canonicalize_waste`] for the construction and its limits).
    pub fn canonicalize(&self, trace: &mut Trace) {
        trace.canonicalize_waste(&self.net.link_rate, self.net.jitter);
    }

    /// `true` iff `cex` concretely refutes `spec`: the candidate's
    /// behaviour on the trace's schedule is feasible yet undesired —
    /// exactly `¬σ(spec, cex)` from the generator's learned constraint.
    /// Traces of a different shape (or too shallow for the candidate's
    /// lookback) make no claim and return `false`.
    pub fn refutes(&self, spec: &CcaSpec, cex: &Trace) -> bool {
        let t_end = self.net.t_max();
        if cex.t_min != self.net.t_min() || cex.t_max != t_end {
            return false;
        }
        // Deepest sample: β taps need S(t−i−2), α taps cwnd(t−i−1).
        let deepest = (spec.beta.len() as i64 + 1).max(spec.alpha.len() as i64).max(1);
        if cex.t_min > -deepest {
            return false;
        }

        // Template recursion: cwnd(t) = γ + Σᵢ βᵢ·S_τ(t−i−2)
        // + Σᵢ αᵢ·cwnd(t−i−1), with negative-index cwnd a trace constant.
        let mut cwnd: Vec<Rat> = Vec::with_capacity(t_end as usize + 1);
        let cw = |cwnd: &[Rat], t: i64| -> Rat {
            if t >= 0 {
                cwnd[t as usize].clone()
            } else {
                cex.cwnd_at(t).clone()
            }
        };
        for t in 0..=t_end {
            let mut v = spec.gamma.clone();
            for (i, b) in spec.beta.iter().enumerate() {
                v = &v + &(b * cex.s_at(t - i as i64 - 2));
            }
            for (i, a) in spec.alpha.iter().enumerate() {
                v = &v + &(a * &cw(&cwnd, t - i as i64 - 1));
            }
            cwnd.push(v);
        }

        // Sender rule: A(t) = max(A(t−1), S_τ(t−1) + cwnd(t)).
        let mut arr: Vec<Rat> = Vec::with_capacity(t_end as usize + 1);
        let av = |arr: &[Rat], t: i64| -> Rat {
            if t >= 0 {
                arr[t as usize].clone()
            } else {
                cex.a_at(t).clone()
            }
        };
        for t in 0..=t_end {
            let prev = av(&arr, t - 1);
            let window = cex.s_at(t - 1) + &cwnd[t as usize];
            arr.push(prev.max(window));
        }

        // Feasibility of the trace against this candidate's behaviour.
        let history = self.net.history as i64;
        let feasible = match self.mode {
            FeasibilityMode::Baseline => (0..=t_end).all(|t| &arr[t as usize] == cex.a_at(t)),
            FeasibilityMode::RangePruning => (0..=t_end).all(|t| {
                if &arr[t as usize] < cex.s_at(t) {
                    return false;
                }
                if cex.waste_increased(t) {
                    let tokens = &(&self.net.link_rate * &Rat::from(t + history)) - cex.w_at(t);
                    if arr[t as usize] > tokens {
                        return false;
                    }
                }
                true
            }),
        };
        if !feasible {
            return false;
        }

        // Desired property with trace-constant S and replayed A/cwnd.
        let th = &self.thresholds;
        let work = cex.s_at(t_end) - cex.s_at(0);
        let target = &(&th.util * &self.net.link_rate) * &Rat::from(t_end);
        let util_ok = work >= target;
        let cwnd_up = cw(&cwnd, t_end) > cw(&cwnd, 0);
        let cwnd_down = cw(&cwnd, t_end) < cw(&cwnd, 0);
        let queue_ok = (0..=t_end).all(|t| &arr[t as usize] - cex.s_at(t) <= th.delay);
        let q_end = &arr[t_end as usize] - cex.s_at(t_end);
        let q_start = &arr[0] - cex.s_at(0);
        let queue_down = q_end < q_start;
        let desired = (util_ok || cwnd_up) && (queue_ok || queue_down || cwnd_down);
        !desired
    }

    /// `true` iff `stronger` *subsumes* `weaker`: every candidate `weaker`
    /// refutes, `stronger` refutes too — so once `σ(·, stronger)` is
    /// asserted, asserting `σ(·, weaker)` adds nothing and the trace can be
    /// dropped from assertion sets and replay caches.
    ///
    /// This is a sound *sufficient* condition, not a complete one. Both
    /// traces must share the service schedule and the pre-history (`A`,
    /// `cwnd` at `t < 0`), which pins the candidate's response (`cwnd`
    /// recursion and sender max-rule) to be identical on both traces; the
    /// desired property and the lower feasibility bound `S_τ(t) ≤ A(t)`
    /// then coincide as well. What remains is the upper feasibility bound:
    ///
    /// * Range pruning: each waste point of `stronger` must be a waste
    ///   point of `weaker` with at least as much cumulative waste
    ///   (`W_weaker(t) ≥ W_stronger(t)` makes `weaker`'s token ceiling
    ///   `C·(t+h) − W` the tighter one, so feasibility on `weaker` implies
    ///   feasibility on `stronger`).
    /// * Baseline: exact-trace feasibility also pins `A` at `t ≥ 0`, so
    ///   the `A` schedules must match outright.
    ///
    /// Pinned by the property test below: whenever `subsumes(a, b)`, every
    /// enumerated candidate refuted by `b` is refuted by `a`.
    pub fn subsumes(&self, stronger: &Trace, weaker: &Trace) -> bool {
        if stronger.t_min != weaker.t_min || stronger.t_max != weaker.t_max {
            return false;
        }
        let (lo, hi) = (stronger.t_min, stronger.t_max);
        for t in lo..=hi {
            if stronger.s_at(t) != weaker.s_at(t) {
                return false;
            }
        }
        for t in lo..0 {
            if stronger.a_at(t) != weaker.a_at(t) || stronger.cwnd_at(t) != weaker.cwnd_at(t) {
                return false;
            }
        }
        match self.mode {
            FeasibilityMode::Baseline => (0..=hi).all(|t| stronger.a_at(t) == weaker.a_at(t)),
            FeasibilityMode::RangePruning => (0..=hi).all(|t| {
                !stronger.waste_increased(t)
                    || (weaker.waste_increased(t) && weaker.w_at(t) >= stronger.w_at(t))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;
    use crate::verifier::{CcaVerifier, VerifyConfig};
    use ccmatic_num::int;

    fn net() -> NetConfig {
        NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    fn verifier(worst_case: bool) -> CcaVerifier {
        CcaVerifier::new(VerifyConfig {
            net: net(),
            thresholds: Thresholds::default(),
            worst_case,
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            incremental: true,
            certify: false,
            search: Default::default(),
            theory_sync: true,
        })
    }

    /// Every counterexample the verifier produces must replay as a
    /// refutation of the candidate it broke — in both feasibility modes
    /// (the verifier's trace satisfies the full network model, which
    /// implies both encodings' feasibility).
    #[test]
    fn verifier_counterexamples_replay_as_refutations() {
        let broken =
            [known::const_cwnd(Rat::zero()), known::const_cwnd(int(20)), known::copy_cwnd()];
        for worst_case in [false, true] {
            let mut v = verifier(worst_case);
            for spec in &broken {
                let cex = v.verify(spec).expect_err("known-broken candidate");
                for mode in [FeasibilityMode::Baseline, FeasibilityMode::RangePruning] {
                    let replay = TraceReplay::new(net(), Thresholds::default(), mode);
                    assert!(
                        replay.refutes(spec, &cex),
                        "replay missed its own counterexample: {spec} (wce={worst_case}, {mode:?})"
                    );
                }
            }
        }
    }

    /// A certified candidate must never be refuted by any trace.
    #[test]
    fn replay_never_refutes_a_solution() {
        let rocc = known::rocc();
        let mut v = verifier(true);
        assert!(v.verify(&rocc).is_ok());
        let replay = TraceReplay::new(net(), Thresholds::default(), FeasibilityMode::RangePruning);
        // Collect traces by refuting other candidates, then replay them
        // against RoCC.
        for broken in [known::const_cwnd(Rat::zero()), known::const_cwnd(int(20))] {
            let cex = v.verify(&broken).expect_err("broken");
            assert!(
                !replay.refutes(&rocc, &cex),
                "replay refuted a verified solution on {broken}'s counterexample"
            );
        }
    }

    /// Shape-mismatched traces make no refutation claim.
    #[test]
    fn mismatched_trace_shape_is_not_a_refutation() {
        let mut v = verifier(false);
        let cex = v.verify(&known::const_cwnd(Rat::zero())).expect_err("broken");
        let other =
            NetConfig { horizon: 4, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None };
        let replay = TraceReplay::new(other, Thresholds::default(), FeasibilityMode::RangePruning);
        assert!(!replay.refutes(&known::const_cwnd(Rat::zero()), &cex));
    }

    /// RangePruning feasibility at the `waste_increased` boundary: the
    /// token ceiling `A(t) ≤ C·(t+h) − W(t)` must be applied exactly at
    /// the flagged steps — including the first (`t = 0`) and last
    /// (`t = t_end`) enforced steps — and nowhere else. Synthetic traces
    /// where the candidate's replayed `A` breaks the ceiling *only* at
    /// the boundary step flip `refutes` from true (no waste anywhere: the
    /// trace is feasible and undesired) to false (boundary waste point:
    /// the trace is infeasible for this candidate, so it makes no claim).
    #[test]
    fn range_pruning_ceiling_applies_at_waste_boundaries() {
        let net =
            NetConfig { horizon: 3, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None };
        let t_end = net.t_max();
        let replay = TraceReplay::new(net, Thresholds::default(), FeasibilityMode::RangePruning);
        // Constant-window candidate: cwnd(t) = 10, no α/β taps beyond a
        // zero β (deepest sample S(t−2) stays within t_min = −2).
        let spec = CcaSpec { alpha: vec![], beta: vec![Rat::zero()], gamma: int(10) };
        // S(t) = t, A(−1) = 0 ⇒ replayed A = [9, 10, 11, 12] over 0..=3:
        // feasible w.r.t. the lower bound, queue-undesired (A−S > 4
        // everywhere, queue not falling, cwnd flat).
        let base = Trace {
            t_min: -2,
            t_max: t_end,
            a: vec![Rat::zero(); 6],
            s: (-2..=3).map(int).collect(),
            w: vec![Rat::zero(); 6],
            l: vec![Rat::zero(); 6],
            cwnd: vec![int(10); 6],
        };
        assert!(replay.refutes(&spec, &base), "waste-free trace must refute the candidate");

        // Waste increasing exactly at t = 0 (W(−1) = 0 < W(0) = 1, flat
        // after): ceiling A(0) ≤ C·(0+h) − W(0) = 1 < 9 ⇒ infeasible.
        let mut waste_at_start = base.clone();
        waste_at_start.w = vec![int(0), int(0), int(1), int(1), int(1), int(1)];
        assert!(waste_at_start.waste_increased(0) && !waste_at_start.waste_increased(1));
        assert!(
            !replay.refutes(&spec, &waste_at_start),
            "ceiling at t=0 must make the trace infeasible for this candidate"
        );

        // Waste increasing exactly at t = t_end: ceiling A(3) ≤ 5 − 1 = 4
        // < 12 ⇒ infeasible; every earlier step has no waste point.
        let mut waste_at_end = base.clone();
        waste_at_end.w = vec![int(0), int(0), int(0), int(0), int(0), int(1)];
        assert!(waste_at_end.waste_increased(t_end) && !waste_at_end.waste_increased(t_end - 1));
        assert!(
            !replay.refutes(&spec, &waste_at_end),
            "ceiling at t=t_end must make the trace infeasible for this candidate"
        );

        // Control: the same waste steps with a slack ceiling (W small
        // enough that A stays under C·(t+h) − W) keep the trace feasible,
        // so the refutation claim comes back. A(t) = t+9 ≤ (t+2) − W(t)
        // can't hold with C = 1, so raise the link rate instead: with
        // C = 10, ceiling at t=0 is 10·2 − 1 = 19 > 9, at t=3 is
        // 10·5 − 1 = 49 > 12.
        let fast =
            NetConfig { horizon: 3, history: 2, link_rate: int(10), jitter: 1, buffer: None };
        let fast_replay =
            TraceReplay::new(fast, Thresholds::default(), FeasibilityMode::RangePruning);
        assert!(
            fast_replay.refutes(&spec, &waste_at_start),
            "slack ceiling at t=0 must keep the refutation"
        );
        assert!(
            fast_replay.refutes(&spec, &waste_at_end),
            "slack ceiling at t=t_end must keep the refutation"
        );
    }

    /// The `subsumes` contract, pinned as a property: whenever
    /// `subsumes(a, b)`, every candidate in an enumerated grid that `b`
    /// refutes, `a` refutes too — in both feasibility modes.
    ///
    /// Positive (non-reflexive) pairs are manufactured from genuine
    /// verifier counterexamples: doubling cumulative waste keeps every
    /// waste point a waste point with at least as much waste, and bumping
    /// the waste tail by one adds a fresh waste point without weakening
    /// the old ones — both dominated by the original in RangePruning and
    /// `A`-identical for Baseline.
    #[test]
    fn subsumption_implies_refutation_containment() {
        let broken =
            [known::const_cwnd(Rat::zero()), known::const_cwnd(int(20)), known::copy_cwnd()];
        let mut traces: Vec<Trace> = Vec::new();
        for worst_case in [false, true] {
            let mut v = verifier(worst_case);
            for spec in &broken {
                let cex = v.verify(spec).expect_err("known-broken candidate");
                let mut doubled = cex.clone();
                doubled.w = doubled.w.iter().map(|w| w * &int(2)).collect();
                let mut tail = cex.clone();
                let mid = tail.w.len() / 2;
                for w in &mut tail.w[mid..] {
                    *w = &*w + &Rat::one();
                }
                traces.extend([cex, doubled, tail]);
            }
        }
        // Candidate grid: lookback-1 templates over a small coefficient
        // box (deepest sample S(t−2) is well within t_min = −5).
        let mut grid = Vec::new();
        for a in [-1i64, 0, 1] {
            for b in [-1i64, 0, 1] {
                for g in [0i64, 1, 10] {
                    grid.push(CcaSpec { alpha: vec![int(a)], beta: vec![int(b)], gamma: int(g) });
                }
            }
        }
        for mode in [FeasibilityMode::Baseline, FeasibilityMode::RangePruning] {
            let replay = TraceReplay::new(net(), Thresholds::default(), mode);
            let mut positive_pairs = 0usize;
            let mut exercised = 0usize;
            for stronger in &traces {
                for weaker in &traces {
                    if !replay.subsumes(stronger, weaker) {
                        continue;
                    }
                    positive_pairs += 1;
                    for spec in &grid {
                        if replay.refutes(spec, weaker) {
                            exercised += 1;
                            assert!(
                                replay.refutes(spec, stronger),
                                "subsumption unsound ({mode:?}): {spec} refuted by the \
                                 subsumed trace but not by its subsumer"
                            );
                        }
                    }
                }
            }
            // Reflexive pairs alone would make the property vacuous.
            assert!(
                positive_pairs > traces.len(),
                "vacuous ({mode:?}): only reflexive pairs subsumed"
            );
            assert!(exercised > 0, "vacuous ({mode:?}): no candidate refuted via a subsumed trace");
        }
    }

    /// The replayed cwnd recursion matches the trace's own cwnd when the
    /// trace was generated under the same template (sanity of the
    /// recursion's indexing).
    #[test]
    fn replay_recursion_matches_trace_cwnd() {
        let spec = known::const_cwnd(int(20));
        let mut v = verifier(false);
        let cex = v.verify(&spec).expect_err("broken");
        // const_cwnd: replayed cwnd must be exactly 20 everywhere, matching
        // the trace's enforced template values.
        for t in 0..=cex.t_max {
            assert_eq!(cex.cwnd_at(t), &int(20));
        }
    }
}
