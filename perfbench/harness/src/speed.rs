//! A reference for the speed of the core the benchmark runs on.
//!
//! On a shared host the core this process runs on is sometimes about 1.5×
//! slower than at other times, for tens of seconds at a stretch, because of
//! what other tenants run beside it. A 55-second run can fall wholly in a
//! slow or a fast stretch, so raw times of the same code differ by up to a
//! quarter from run to run, whatever statistic the run reports.
//!
//! [`Speedometer`] runs a fixed reference kernel in short bursts beside
//! the workload: on a second thread during long jobs, and on the workload's
//! own thread right after each short one ([`Speedometer::sample`]), with
//! the second thread paused ([`Speedometer::paused`]). `perfbench/run.py`
//! pins the whole process to one CPU, so the bursts share the workload's
//! core and see the same slowdowns at the same moments. A time measured on
//! the workload is then scaled by `REF_KERNEL_S / k`, where `k` is the
//! median CPU time of the bursts made during (and just around) the
//! measured interval: a time at the reference speed. Bursts right after a
//! short job track its slowdown more closely than bursts that preempt it.
//! The kernel is code of the standard library only (a `BTreeMap` of small
//! `Vec`s under inserts and removes, which allocates and chases pointers
//! like the program does), so no change to the program changes it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's CPU time at the reference speed. On the machine the
/// README's figures come from, its median over a run was 1.9–2.4 ms.
pub const REF_KERNEL_S: f64 = 2.0e-3;

/// Pause between two bursts.
const PERIOD: Duration = Duration::from_millis(40);

/// Bursts made this long before or after an interval also count for it,
/// so that a short job also gets the bursts taken around its neighbours.
const PAD_S: f64 = 0.05;

/// Operations per burst (about 2 ms on an idle core).
const KERNEL_OPS: u64 = 8_000;

const POISONED: &str = "the reference-speed thread panicked while recording";

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    /// From the C library that the standard library already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// This thread's CPU time in seconds (`CLOCK_THREAD_CPUTIME_ID`); `None`
/// where it cannot be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> Option<f64> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// One burst of the reference kernel; returns its CPU time (its wall time
/// where CPU time cannot be read), so that being preempted by the workload
/// does not count.
fn burst() -> f64 {
    let (cpu0, t0) = (thread_cpu_s(), Instant::now());
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..KERNEL_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, vec![i; (x % 7) as usize]);
        if x & 1 == 0 {
            map.remove(&((x >> 8) % 50_000));
        }
    }
    black_box(map.len());
    let wall = t0.elapsed().as_secs_f64();
    match (cpu0, thread_cpu_s()) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => wall,
    }
}

/// The reference kernel running beside the workload; see the module docs.
pub struct Speedometer {
    origin: Instant,
    stop: Arc<AtomicBool>,
    pause: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

impl Speedometer {
    /// Start the bursts.
    pub fn start() -> Speedometer {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let pause = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, pause, samples) = (stop.clone(), pause.clone(), samples.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if !pause.load(Ordering::Relaxed) {
                        let at = origin.elapsed().as_secs_f64();
                        let k = burst();
                        samples.lock().expect(POISONED).push((at, k));
                    }
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Speedometer { origin, stop, pause, samples, thread: Some(thread) }
    }

    /// Run `f` with the second thread's bursts paused; `f` takes its own
    /// with [`Speedometer::sample`].
    pub fn paused<T>(&self, f: impl FnOnce() -> T) -> T {
        self.pause.store(true, Ordering::Relaxed);
        let out = f();
        self.pause.store(false, Ordering::Relaxed);
        out
    }

    /// One burst on the calling thread.
    pub fn sample(&self) {
        let at = self.origin.elapsed().as_secs_f64();
        let k = burst();
        self.samples.lock().expect(POISONED).push((at, k));
    }

    /// Stop the bursts, wait for the thread to end, and return what it
    /// measured.
    pub fn finish(mut self) -> SpeedLog {
        if let Err(panic) = self.stop_thread() {
            std::panic::resume_unwind(panic);
        }
        let samples = std::mem::take(&mut *self.samples.lock().expect(POISONED));
        SpeedLog { origin: self.origin, samples }
    }

    fn stop_thread(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

/// Stops and joins the thread on every way out of a run, unwinding too.
impl Drop for Speedometer {
    fn drop(&mut self) {
        let _ = self.stop_thread();
    }
}

/// A measured interval of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    /// Run `f` and return its result with the interval it took.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Span) {
        let start = Instant::now();
        let out = f();
        (out, Span { start, end: Instant::now() })
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The bursts of one run: (start in seconds since the run began, CPU time).
pub struct SpeedLog {
    origin: Instant,
    samples: Vec<(f64, f64)>,
}

impl SpeedLog {
    /// The median burst time around `span`; `None` if no burst was made
    /// near it.
    pub fn kernel_s(&self, span: &Span) -> Option<f64> {
        let t0 = span.start.saturating_duration_since(self.origin).as_secs_f64() - PAD_S;
        let t1 = span.end.saturating_duration_since(self.origin).as_secs_f64() + PAD_S;
        let near: Vec<f64> =
            self.samples.iter().filter(|(at, _)| (t0..=t1).contains(at)).map(|s| s.1).collect();
        (!near.is_empty()).then(|| crate::stats::median(&near))
    }

    /// `span`'s wall time at the reference speed.
    pub fn at_ref(&self, span: &Span) -> f64 {
        let k = self.kernel_s(span).unwrap_or_else(|| self.median_kernel_s());
        span.secs() * REF_KERNEL_S / k
    }

    /// The median of every burst of the run (the reference time itself
    /// if there was none).
    pub fn median_kernel_s(&self) -> f64 {
        if self.samples.is_empty() {
            return REF_KERNEL_S;
        }
        crate::stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    pub fn bursts(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span is scaled by the bursts made during and right around it.
    #[test]
    fn spans_scale_by_the_bursts_near_them() {
        let origin = Instant::now();
        let at = |s: f64| origin + Duration::from_secs_f64(s);
        let log = SpeedLog {
            origin,
            samples: vec![
                (0.0, 1.0e-3),
                (1.0, 4.0e-3),
                (1.5, 4.0e-3),
                (1.9, 8.0e-3),
                (3.0, 1.0e-3),
            ],
        };
        // Bursts at 1.0, 1.5 and 1.9: median 4 ms, twice the reference.
        let span = Span { start: at(0.98), end: at(1.96) };
        assert_eq!(log.kernel_s(&span), Some(4.0e-3));
        assert!((log.at_ref(&span) - span.secs() / 2.0).abs() < 1e-12);
        // No burst near: the run's median (4 ms) stands in.
        let lone = Span { start: at(2.2), end: at(2.3) };
        assert_eq!(log.kernel_s(&lone), None);
        assert!((log.at_ref(&lone) - lone.secs() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn bursts_take_cpu_time_and_the_thread_stops() {
        let speed = Speedometer::start();
        speed.paused(|| speed.sample());
        let log = speed.finish();
        assert!(log.bursts() >= 1);
        assert!(log.median_kernel_s() > 0.0);
    }
}
