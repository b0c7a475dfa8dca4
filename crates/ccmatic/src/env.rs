//! Environment-variable knobs: `CCMATIC_SWEEP_THREADS`, the sweep
//! worker-pool size.
//!
//! A misspelt `CCMATIC_SWEEP_THREADS=fourty` used to be silently ignored,
//! quietly running the sweep at a different width than the operator asked
//! for. Unparsable values — including a set-but-empty one, which usually
//! means a shell substitution came up blank — warn once (per variable, per
//! process) on stderr and fall back to the default.

use std::sync::Mutex;

/// Variables already warned about, so a sweep spawning hundreds of runs
/// complains once rather than per run.
static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Warn once per variable per process.
fn warn_once(var: &'static str, msg: &str) {
    let mut warned = WARNED.lock().unwrap();
    if !warned.contains(&var) {
        warned.push(var);
        eprintln!("{msg}");
    }
}

/// `true` iff `var` has been warned about in this process (test hook for
/// the warn-once contract on malformed and empty values).
#[cfg(test)]
fn has_warned(var: &'static str) -> bool {
    WARNED.lock().unwrap().contains(&var)
}

/// Read a positive thread count from `var`. Unset returns `None`; set but
/// empty, unparsable, or zero warns once to stderr and returns `None`.
pub fn env_threads(var: &'static str) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    if raw.trim().is_empty() {
        warn_once(var, &format!("warning: {var} is set but empty; using the default"));
        return None;
    }
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            warn_once(
                var,
                &format!(
                    "warning: ignoring {var}={raw:?}: expected a positive integer thread count"
                ),
            );
            None
        }
    }
}

/// `var` if set and valid, else the machine's available parallelism.
pub fn env_threads_or_cores(var: &'static str) -> usize {
    env_threads(var)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name: the process environment is
    // global and tests run concurrently.
    #[test]
    fn unset_is_none() {
        assert_eq!(env_threads("CCMATIC_TEST_THREADS_UNSET"), None);
        assert!(env_threads_or_cores("CCMATIC_TEST_THREADS_UNSET") >= 1);
    }

    #[test]
    fn valid_value_parses() {
        std::env::set_var("CCMATIC_TEST_THREADS_VALID", "3");
        assert_eq!(env_threads("CCMATIC_TEST_THREADS_VALID"), Some(3));
        assert_eq!(env_threads_or_cores("CCMATIC_TEST_THREADS_VALID"), 3);
    }

    #[test]
    fn garbage_and_zero_fall_back() {
        std::env::set_var("CCMATIC_TEST_THREADS_BAD", "fourty");
        assert_eq!(env_threads("CCMATIC_TEST_THREADS_BAD"), None);
        std::env::set_var("CCMATIC_TEST_THREADS_ZERO", "0");
        assert_eq!(env_threads("CCMATIC_TEST_THREADS_ZERO"), None);
        assert!(env_threads_or_cores("CCMATIC_TEST_THREADS_ZERO") >= 1);
    }

    #[test]
    fn empty_value_warns_like_malformed_ones() {
        // A set-but-empty value must not be treated as quietly unset: it
        // falls back AND registers a warning, same as garbage.
        std::env::set_var("CCMATIC_TEST_THREADS_EMPTY", "  ");
        assert!(!has_warned("CCMATIC_TEST_THREADS_EMPTY"));
        assert_eq!(env_threads("CCMATIC_TEST_THREADS_EMPTY"), None);
        assert!(has_warned("CCMATIC_TEST_THREADS_EMPTY"));
        assert!(env_threads_or_cores("CCMATIC_TEST_THREADS_EMPTY") >= 1);

        // Genuinely unset variables stay silent.
        assert_eq!(env_threads("CCMATIC_TEST_THREADS_NEVER_SET"), None);
        assert!(!has_warned("CCMATIC_TEST_THREADS_NEVER_SET"));
    }
}
