//! The four workloads. Each runs one job at a time on one thread, closed
//! loop, until the run's time is spent. Untraced runs call the program's
//! entry points directly and give the end-to-end metrics; traced runs wrap
//! each layer in spans and give the per-layer metrics. Every correctness
//! check runs outside the timed regions.

use crate::inputs::{self, DELAY_COUNTS, UTIL_COUNTS};
use crate::layers::{Counters, Recorder};
use crate::speed::{Span, SpeedLog, Speedometer};
use crate::stats::{mean, median};
use crate::traced::synthesize_traced;
use ccac_model::{check_sender_rule, check_trace, NetConfig, Thresholds, Trace};
use ccmatic::cache::{CacheStats, ResultCache};
use ccmatic::generator::FeasibilityMode;
use ccmatic::replay::TraceReplay;
use ccmatic::sweep::{sweep_with_config, SweepConfig, SweepReport};
use ccmatic::synth::{build_loop, make_replay, synthesize, SynthOptions};
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::Outcome;
use ccmatic_num::{rat, Rat};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is timed this many times before each unit.
const SETUP_REPS: usize = 21;

/// Cached sweep passes after each populate pass in `sweep-cache`.
const CACHED_PASSES: usize = 4;

/// Wall budget of one whole sweep (both axes).
const SWEEP_BUDGET: Duration = Duration::from_secs(300);

/// The workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 4] = ["synth-wce", "synth-cwnd", "verify-batch", "sweep-cache"];

/// What the harness was asked to do.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Directory for this run's scratch files (cache directories, span
    /// dumps), inside the working directory.
    pub scratch: PathBuf,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Units (jobs, catalog passes or sweep cycles) the run completed.
    pub units: usize,
    /// First failure reasons, for the log.
    pub failures: Vec<String>,
    /// Every unit's spans as tab-separated lines (traced runs only).
    pub spans_tsv: String,
    /// Per-layer metrics that differed between units (traced runs only).
    pub varying: Vec<&'static str>,
}

impl RunReport {
    /// Count one checked job.
    fn job(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// Collects one value per metric per unit; reports each metric's median.
#[derive(Default)]
struct PerUnit(BTreeMap<&'static str, Vec<f64>>);

impl PerUnit {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
    fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, median(v))).collect()
    }
    /// Metrics whose value differed between the run's units.
    fn varying(&self) -> Vec<&'static str> {
        self.0.iter().filter(|(_, v)| v.iter().any(|x| *x != v[0])).map(|(k, _)| *k).collect()
    }
}

/// Run `unit` until `seconds` are spent: after the first, a unit starts
/// only while the mean unit so far still fits.
fn run_for(seconds: f64, mut unit: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    loop {
        let spent = t0.elapsed().as_secs_f64();
        if n > 0 && spent + spent / n as f64 > seconds {
            return n;
        }
        unit(n);
        n += 1;
    }
}

/// Time `build` `SETUP_REPS` times and append every interval to `spans`,
/// between two reference bursts; each result is dropped outside the timed
/// region.
fn time_setup<T>(spans: &mut Vec<Span>, speed: &Speedometer, mut build: impl FnMut() -> T) {
    speed.paused(|| {
        speed.sample();
        for _ in 0..SETUP_REPS {
            let (built, span) = Span::time(|| black_box(build()));
            spans.push(span);
            drop(built);
        }
        speed.sample();
    });
}

/// The end-to-end metrics of an untraced run, from its unit intervals,
/// its job intervals grouped by kind of job, and its set-up intervals.
/// Every time is taken at the reference speed (see [`crate::speed`]).
///
/// `wall_ref_s` is the mean over the run's units: synth-cwnd's job takes
/// one of two paths of different cost, and a median would jump between
/// them where the mean moves with their mix. Jobs of different kinds
/// (sweep points) differ up to 3× in cost, so `job_ref_p50_s` is the
/// median of each kind averaged over the kinds; a median over the pooled
/// jobs would move with the mix. Raw times go to the detail line.
fn end_to_end(
    rep: &mut RunReport,
    speed: &SpeedLog,
    walls: &[Span],
    jobs_by_kind: &[Vec<Span>],
    setup: &[Span],
) {
    let at_ref = |spans: &[Span]| spans.iter().map(|s| speed.at_ref(s)).collect::<Vec<_>>();
    let raw = |spans: &[Span]| spans.iter().map(Span::secs).collect::<Vec<_>>();
    let per_kind = |f: &dyn Fn(&[Span]) -> Vec<f64>| {
        mean(&jobs_by_kind.iter().map(|j| median(&f(j))).collect::<Vec<_>>())
    };
    for (k, v) in [
        ("wall_ref_s", mean(&at_ref(walls))),
        ("job_ref_p50_s", per_kind(&at_ref)),
        ("setup_s", median(&at_ref(setup))),
        ("raw_wall_mean_s", mean(&raw(walls))),
        ("raw_job_p50_s", per_kind(&raw)),
        ("raw_setup_p50_s", median(&raw(setup))),
        ("ref_kernel_median_s", speed.median_kernel_s()),
        ("ref_kernel_bursts", speed.bursts() as f64),
    ] {
        rep.metrics.insert(k, v);
    }
}

/// A job that overran its wall budget by more than max(5 s, 10 %) failed,
/// whatever it answered.
fn within_budget(wall: Duration, budget: Duration) -> Result<(), String> {
    let slack = (budget / 10).max(Duration::from_secs(5));
    if wall > budget + slack {
        Err(format!(
            "wall {:.1}s overran its {:.0}s budget",
            wall.as_secs_f64(),
            budget.as_secs_f64()
        ))
    } else {
        Ok(())
    }
}

/// The verifier configuration of `ccmatic verify --certify`: no WCE, every
/// UNSAT verdict replayed through the independent proof checker.
fn certify_config(net: NetConfig, thresholds: Thresholds) -> VerifyConfig {
    VerifyConfig {
        net,
        thresholds,
        worst_case: false,
        wce_precision: rat(1, 2),
        incremental: true,
        certify: true,
        search: Default::default(),
        theory_sync: true,
    }
}

/// `spec` passes a fresh certifying verifier with a checked certificate. A
/// certificate the checker rejects panics inside the verifier; that counts
/// as a failure here.
fn certifies(cfg: VerifyConfig, spec: &CcaSpec) -> Result<(), String> {
    let mut v = CcaVerifier::new(cfg);
    match catch_unwind(AssertUnwindSafe(|| v.verify(spec))) {
        Ok(Ok(())) if v.cert_audit.checked > 0 => Ok(()),
        Ok(Ok(())) => Err(format!("{spec}: pass without a certificate")),
        Ok(Err(_)) => Err(format!("solution {spec} refuted by a fresh verifier")),
        Err(_) => Err(format!("{spec}: certificate rejected by the proof checker")),
    }
}

/// A synthesis outcome is right when it is a solution a fresh certifying
/// verifier accepts, or an iteration cap reached exactly.
fn check_synth(
    opts: &SynthOptions,
    outcome: &Outcome<CcaSpec>,
    iterations: u64,
) -> Result<(), String> {
    match outcome {
        Outcome::Solution(spec) => {
            certifies(certify_config(opts.net.clone(), opts.thresholds.clone()), spec)
        }
        Outcome::BudgetExhausted if iterations == opts.budget.max_iterations => Ok(()),
        Outcome::BudgetExhausted => Err(format!("wall budget hit after {iterations} iterations")),
        Outcome::NoSolution => Err("generator claimed an empty space".into()),
    }
}

/// A counterexample must be a behaviour the CCAC model admits, follow the
/// sender rule, and still concretely refute the candidate it broke.
fn check_cex(
    replay: &TraceReplay,
    net: &NetConfig,
    cand: &CcaSpec,
    cex: &Trace,
) -> Result<(), String> {
    check_trace(cex, net)
        .map_err(|e| format!("counterexample for {cand} fails the trace checker: {e}"))?;
    check_sender_rule(cex)
        .map_err(|e| format!("counterexample for {cand} breaks the sender rule: {e}"))?;
    if replay.refutes(cand, cex) {
        Ok(())
    } else {
        Err(format!("counterexample no longer refutes {cand}"))
    }
}

/// Resident-set high-water mark of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn synth_inputs(workload: &str, seed: u64) -> SynthOptions {
    match workload {
        "synth-wce" => inputs::synth_wce_opts(seed),
        _ => inputs::synth_cwnd_opts(seed),
    }
}

/// `synth-wce` / `synth-cwnd`, untraced: one `synthesize` call per job.
pub fn synth(workload: &str, args: &RunArgs) -> RunReport {
    let mut rep = RunReport::default();
    let opts = synth_inputs(workload, args.seed);
    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    let speed = Speedometer::start();
    rep.units = run_for(args.seconds, |_| {
        time_setup(&mut setup, &speed, || {
            let opts = synth_inputs(workload, args.seed);
            (build_loop(&opts), make_replay(&opts))
        });
        let (r, span) = Span::time(|| synthesize(&opts));
        let wall = span.end - span.start;
        walls.push(span);
        rep.job(
            within_budget(wall, opts.budget.max_wall)
                .and_then(|()| check_synth(&opts, &r.outcome, r.stats.iterations)),
        );
    });
    end_to_end(&mut rep, &speed.finish(), &walls, std::slice::from_ref(&walls), &setup);
    rep
}

/// `synth-wce` / `synth-cwnd`, traced: the mirrored loop under spans.
pub fn synth_traced(workload: &str, args: &RunArgs) -> RunReport {
    let mut rep = RunReport::default();
    let opts = synth_inputs(workload, args.seed);
    let replay = make_replay(&opts);
    let origin = Instant::now();
    let mut per = PerUnit::default();
    rep.units = run_for(args.seconds, |job| {
        let before = Counters::read();
        let t = synthesize_traced(&opts);
        let counters = Counters::read().since(before);
        let rec = &t.rec;
        let wall = rec.secs(t.root);
        let check = within_budget(Duration::from_secs_f64(wall), opts.budget.max_wall)
            .and_then(|()| check_synth(&opts, &t.outcome, t.stats.iterations))
            .and_then(|()| {
                t.learned.iter().try_for_each(|(c, x)| check_cex(&replay, &opts.net, c, x))
            });
        rep.job(check);
        let unattributed = rec.self_secs("cegis.run");
        for (k, v) in [
            ("trace.wall_s", wall),
            ("trace.unattributed_s", unattributed),
            ("trace.unattributed_share", unattributed / wall),
            ("cegis.iterations", t.stats.iterations as f64),
            ("cegis.verifier_calls", t.stats.verifier_calls as f64),
            ("cegis.replay_hits", t.stats.replay_hits as f64),
            ("cegis.setup_s", rec.self_secs("cegis.setup")),
            ("cegis.cexs_checked", t.learned.len() as f64),
            ("generator.propose_s", rec.self_secs("generator.propose")),
            ("generator.propose_calls", rec.count("generator.propose") as f64),
            ("generator.propose_share", rec.self_secs("generator.propose") / wall),
            ("generator.learn_s", rec.self_secs("generator.learn")),
            ("generator.regions_pruned", t.regions_pruned as f64),
            ("generator.cex_subsumed", t.cex_subsumed as f64),
            ("replay.refutes_s", rec.self_secs("replay.refutes")),
            ("replay.refutes_calls", rec.count("replay.refutes") as f64),
            ("verifier.verify_s", rec.self_secs("verifier.verify")),
            ("verifier.verify_calls", rec.count("verifier.verify") as f64),
            ("verifier.verify_share", rec.self_secs("verifier.verify") / wall),
            ("verifier.solver_probes", t.solver_probes as f64),
        ] {
            per.add(k, v);
        }
        for (k, v) in counters.metrics() {
            per.add(k, v);
        }
        rec.write_tsv(job, origin, &mut rep.spans_tsv);
    });
    rep.metrics = per.medians();
    rep.varying = per.varying();
    rep
}

/// `verify-batch`, untraced: every catalog entry through a fresh
/// certifying verifier, once per pass, in a seed-shuffled order.
pub fn verify_batch(args: &RunArgs) -> RunReport {
    let mut rep = RunReport::default();
    let cfg = certify_config(inputs::ci_net(), inputs::catalog_thresholds());
    let expected = inputs::expected_verdicts();
    let catalog = inputs::catalog();
    let replay =
        TraceReplay::new(cfg.net.clone(), cfg.thresholds.clone(), FeasibilityMode::RangePruning);
    let (mut setup, mut pass_walls, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
    let speed = Speedometer::start();
    rep.units = run_for(args.seconds, |pass| {
        time_setup(&mut setup, &speed, || {
            let catalog = inputs::catalog();
            let verifiers: Vec<CcaVerifier> =
                catalog.iter().map(|_| CcaVerifier::new(cfg.clone())).collect();
            (catalog, verifiers)
        });
        let order = inputs::shuffled_order(catalog.len(), args.seed.wrapping_add(pass as u64));
        let mut verdicts = Vec::with_capacity(order.len());
        let ((), pass_span) = Span::time(|| {
            speed.paused(|| {
                for &i in &order {
                    let mut v = CcaVerifier::new(cfg.clone());
                    let (r, span) =
                        Span::time(|| catch_unwind(AssertUnwindSafe(|| v.verify(&catalog[i]))));
                    jobs.push(span);
                    speed.sample();
                    verdicts.push((i, r.map(|r| (r, v.cert_audit.checked))));
                }
            })
        });
        pass_walls.push(pass_span);
        for (i, r) in verdicts {
            rep.job(check_verdict(&replay, &cfg.net, &catalog[i], &expected[i], r));
        }
    });
    end_to_end(&mut rep, &speed.finish(), &pass_walls, std::slice::from_ref(&jobs), &setup);
    rep
}

type VerifyOutcome = std::thread::Result<(Result<(), Trace>, u64)>;

/// A verify-batch verdict is right when it matches the committed one, a
/// pass carries a checked certificate, and a refutation's trace passes
/// [`check_cex`].
fn check_verdict(
    replay: &TraceReplay,
    net: &NetConfig,
    spec: &CcaSpec,
    expected: &(Vec<Rat>, bool),
    got: VerifyOutcome,
) -> Result<(), String> {
    if spec.flat() != expected.0 {
        return Err(format!("catalog entry {spec} does not match the expected-verdict file"));
    }
    let (verdict, certs) =
        got.map_err(|_| format!("{spec}: certificate rejected by the proof checker"))?;
    match (&verdict, expected.1) {
        (Ok(()), true) if certs > 0 => Ok(()),
        (Ok(()), true) => Err(format!("{spec}: pass without a certificate")),
        (Err(cex), false) => check_cex(replay, net, spec, cex),
        _ => Err(format!("{spec}: verdict {} ≠ expected {}", verdict.is_ok(), expected.1)),
    }
}

/// `verify-batch`, traced: the same passes with a span per job.
pub fn verify_batch_traced(args: &RunArgs) -> RunReport {
    let mut rep = RunReport::default();
    let cfg = certify_config(inputs::ci_net(), inputs::catalog_thresholds());
    let expected = inputs::expected_verdicts();
    let replay =
        TraceReplay::new(cfg.net.clone(), cfg.thresholds.clone(), FeasibilityMode::RangePruning);
    let origin = Instant::now();
    let mut per = PerUnit::default();
    rep.units = run_for(args.seconds, |pass| {
        let before = Counters::read();
        let mut rec = Recorder::default();
        let root = rec.enter("batch.pass");
        let catalog = inputs::catalog();
        let order = inputs::shuffled_order(catalog.len(), args.seed.wrapping_add(pass as u64));
        let (mut probes, mut certs, mut bytes) = (0, 0, 0);
        let mut verdicts = Vec::with_capacity(order.len());
        for &i in &order {
            let id = rec.enter("verifier.verify");
            let mut v = CcaVerifier::new(cfg.clone());
            let r = catch_unwind(AssertUnwindSafe(|| v.verify(&catalog[i])));
            rec.exit(id);
            rec.report(id, "proof.check", v.cert_audit.check_ns as f64 * 1e-9);
            probes += v.solver_probes;
            certs += v.cert_audit.checked;
            bytes += v.cert_audit.bytes;
            verdicts.push((i, r.map(|r| (r, v.cert_audit.checked))));
        }
        rec.exit(root);
        let counters = Counters::read().since(before);
        for (i, r) in verdicts {
            rep.job(check_verdict(&replay, &cfg.net, &catalog[i], &expected[i], r));
        }
        let wall = rec.secs(root);
        let unattributed = rec.self_secs("batch.pass");
        for (k, v) in [
            ("trace.wall_s", wall),
            ("trace.unattributed_s", unattributed),
            ("trace.unattributed_share", unattributed / wall),
            ("verifier.verify_s", rec.self_secs("verifier.verify")),
            ("verifier.verify_calls", rec.count("verifier.verify") as f64),
            ("verifier.verify_share", rec.self_secs("verifier.verify") / wall),
            ("verifier.solver_probes", probes as f64),
            ("proof.certs_checked", certs as f64),
            ("proof.cert_bytes", bytes as f64),
            ("proof.check_s", rec.self_secs("proof.check")),
        ] {
            per.add(k, v);
        }
        for (k, v) in counters.metrics() {
            per.add(k, v);
        }
        rec.write_tsv(pass, origin, &mut rep.spans_tsv);
    });
    rep.metrics = per.medians();
    rep.varying = per.varying();
    rep
}

/// A fresh, empty cache directory; removed again by [`CacheDir::drop`].
struct CacheDir {
    path: PathBuf,
    cache: ResultCache,
}

impl CacheDir {
    fn create(path: PathBuf) -> CacheDir {
        let _ = std::fs::remove_dir_all(&path);
        let cache = ResultCache::new(&path).expect("cache directory inside the scratch directory");
        CacheDir { path, cache }
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One sweep point: which axis and which value.
#[derive(Clone, Copy)]
enum Axis {
    Delay,
    Util,
}

fn set_axis(axis: Axis) -> impl Fn(&mut Thresholds, &Rat) + Sync {
    move |t: &mut Thresholds, v: &Rat| match axis {
        Axis::Delay => t.delay = v.clone(),
        Axis::Util => t.util = v.clone(),
    }
}

fn sweep_config(cache: &ResultCache) -> SweepConfig {
    SweepConfig {
        threads: 1,
        warm_start: true,
        cache: Some(cache.clone()),
        sweep_wall: Some(SWEEP_BUDGET),
    }
}

/// Every point of both axes with its expected solution count.
fn sweep_points() -> Vec<(Axis, Rat, usize)> {
    let delay =
        inputs::delay_axis().into_iter().zip(DELAY_COUNTS).map(|(v, n)| (Axis::Delay, v, n));
    let util = inputs::util_axis().into_iter().zip(UTIL_COUNTS).map(|(v, n)| (Axis::Util, v, n));
    delay.chain(util).collect()
}

/// The populate pass: the delay axis then the utilization axis, warm,
/// serial, writing every point into `cache`.
fn populate(base: &SynthOptions, cache: &ResultCache) -> [SweepReport; 2] {
    [
        sweep_with_config(base, &inputs::delay_axis(), set_axis(Axis::Delay), &sweep_config(cache)),
        sweep_with_config(base, &inputs::util_axis(), set_axis(Axis::Util), &sweep_config(cache)),
    ]
}

/// The populate pass answered every point completely with the expected
/// count, inside its budget.
fn check_populate(reports: &[SweepReport; 2], wall: Duration) -> Result<Vec<Vec<CcaSpec>>, String> {
    within_budget(wall, SWEEP_BUDGET)?;
    let rows: Vec<_> = reports.iter().flat_map(|r| &r.rows).collect();
    let mut out = Vec::new();
    for ((axis, v, want), row) in sweep_points().iter().zip(rows) {
        let name = match axis {
            Axis::Delay => "delay",
            Axis::Util => "util",
        };
        if !row.result.complete || row.result.solutions.len() != *want {
            return Err(format!(
                "{name} {v}: {} solutions (complete: {}), expected {want}",
                row.result.solutions.len(),
                row.result.complete
            ));
        }
        out.push(row.result.solutions.clone());
    }
    Ok(out)
}

/// One cached answer: the point must be a validated hit whose solutions
/// equal the populate pass's.
fn check_hit(rep: &SweepReport, want: &[CcaSpec]) -> Result<(), String> {
    let s = rep.cache_stats;
    if s.hits != 1 || s.misses + s.rejected + s.stores != 0 {
        return Err(format!("cached pass was not a clean hit: {s:?}"));
    }
    if rep.rows[0].result.solutions != want {
        return Err("cached answer differs from the populate pass".into());
    }
    Ok(())
}

/// `sweep-cache`, untraced: cycles of one populate pass into a fresh cache
/// directory followed by [`CACHED_PASSES`] passes answered from it, one
/// point at a time.
pub fn sweep_cache(args: &RunArgs) -> RunReport {
    let mut rep = RunReport::default();
    let setup_dir = args.scratch.join("setup");
    let base = inputs::sweep_base_opts(args.seed);
    let points = sweep_points();
    let (mut setup, mut populate_walls) = (Vec::new(), Vec::new());
    let mut hits = vec![Vec::new(); points.len()];
    let speed = Speedometer::start();
    rep.units = run_for(args.seconds, |cycle| {
        time_setup(&mut setup, &speed, || {
            (CacheDir::create(setup_dir.clone()), inputs::sweep_base_opts(args.seed))
        });
        let dir = CacheDir::create(args.scratch.join(format!("cache-{cycle}")));
        let (reports, span) = Span::time(|| populate(&base, &dir.cache));
        let wall = span.end - span.start;
        populate_walls.push(span);
        let want = match check_populate(&reports, wall) {
            Ok(w) => w,
            Err(e) => return rep.job(Err(e)),
        };
        rep.job(Ok(()));
        speed.paused(|| {
            for _ in 0..CACHED_PASSES {
                for (((axis, v, _), want), hits) in points.iter().zip(&want).zip(&mut hits) {
                    let (r, span) = Span::time(|| {
                        sweep_with_config(
                            &base,
                            std::slice::from_ref(v),
                            set_axis(*axis),
                            &sweep_config(&dir.cache),
                        )
                    });
                    hits.push(span);
                    speed.sample();
                    rep.job(check_hit(&r, want));
                }
            }
        });
    });
    end_to_end(&mut rep, &speed.finish(), &populate_walls, &hits, &setup);
    rep
}

fn add_cache_stats(total: &mut CacheStats, s: &CacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.stores += s.stores;
    total.rejected += s.rejected;
}

/// `sweep-cache`, traced: the same cycles with a span around the populate
/// pass and around each cached answer, the checker's own time reported
/// inside each hit.
pub fn sweep_cache_traced(args: &RunArgs) -> RunReport {
    let mut rep = RunReport::default();
    let base = inputs::sweep_base_opts(args.seed);
    let points = sweep_points();
    let origin = Instant::now();
    let mut per = PerUnit::default();
    rep.units = run_for(args.seconds, |cycle| {
        let before = Counters::read();
        let mut rec = Recorder::default();
        let root = rec.enter("sweep.cycle");
        let dir = CacheDir::create(args.scratch.join(format!("cache-{cycle}")));
        let id = rec.enter("sweep.populate");
        let reports = populate(&base, &dir.cache);
        rec.exit(id);
        let populated = check_populate(&reports, Duration::from_secs_f64(rec.secs(id)));
        let mut answers = Vec::new();
        if populated.is_ok() {
            for _ in 0..CACHED_PASSES {
                for (axis, v, _) in &points {
                    let id = rec.enter("cache.hit");
                    let r = sweep_with_config(
                        &base,
                        std::slice::from_ref(v),
                        set_axis(*axis),
                        &sweep_config(&dir.cache),
                    );
                    rec.exit(id);
                    rec.report(id, "proof.check", r.cache_stats.cert_ms * 1e-3);
                    answers.push(r);
                }
            }
        }
        rec.exit(root);
        let counters = Counters::read().since(before);

        let mut cache = CacheStats::default();
        let (mut iterations, mut solutions, mut seeded, mut confirmed, mut calls, mut probes) =
            (0, 0, 0, 0, 0, 0);
        for r in &reports {
            add_cache_stats(&mut cache, &r.cache_stats);
            for row in &r.rows {
                let s = &row.result.stats;
                iterations += s.iterations;
                solutions += row.result.solutions.len() as u64;
                seeded += s.warm_traces_seeded;
                confirmed += s.warm_solutions_confirmed;
                calls += s.verifier_calls;
                probes += row.result.solver_probes;
            }
        }
        let (mut certs, mut bytes) = (0u64, 0u64);
        match populated {
            Err(e) => rep.job(Err(e)),
            Ok(want) => {
                rep.job(Ok(()));
                // Bytes of each point's stored entry: what a hit reads and
                // re-checks.
                let entry_bytes: Vec<u64> = points
                    .iter()
                    .map(|(axis, v, _)| {
                        let mut opts = base.clone();
                        set_axis(*axis)(&mut opts.thresholds, v);
                        std::fs::metadata(dir.cache.entry_path(&opts)).map_or(0, |m| m.len())
                    })
                    .collect();
                for (k, r) in answers.iter().enumerate() {
                    rep.job(check_hit(r, &want[k % points.len()]));
                    add_cache_stats(&mut cache, &r.cache_stats);
                    // A hit re-checks one certificate per solution plus the
                    // exhaustion certificate.
                    certs += r.rows[0].result.solutions.len() as u64 + 1;
                    bytes += entry_bytes[k % points.len()];
                }
            }
        }
        drop(dir);
        let wall = rec.secs(root);
        let unattributed = rec.self_secs("sweep.cycle");
        let lookup = rec.self_secs("cache.hit");
        let check = rec.self_secs("proof.check");
        for (k, v) in [
            ("trace.wall_s", wall),
            ("trace.unattributed_s", unattributed),
            ("trace.unattributed_share", unattributed / wall),
            ("verifier.verify_calls", calls as f64),
            ("verifier.solver_probes", probes as f64),
            ("proof.certs_checked", certs as f64),
            ("proof.cert_bytes", bytes as f64),
            ("proof.check_s", check),
            ("proof.hit_share", check / (check + lookup)),
            ("cache.hits", cache.hits as f64),
            ("cache.misses", cache.misses as f64),
            ("cache.stores", cache.stores as f64),
            ("cache.rejected", cache.rejected as f64),
            ("cache.lookup_s", lookup),
            ("enumerate.iterations", iterations as f64),
            ("enumerate.solutions", solutions as f64),
            ("sweep.populate_s", rec.self_secs("sweep.populate")),
            ("sweep.warm_traces_seeded", seeded as f64),
            ("sweep.warm_solutions_confirmed", confirmed as f64),
        ] {
            per.add(k, v);
        }
        for (k, v) in counters.metrics() {
            per.add(k, v);
        }
        rec.write_tsv(cycle, origin, &mut rep.spans_tsv);
    });
    rep.metrics = per.medians();
    rep.varying = per.varying();
    rep
}
