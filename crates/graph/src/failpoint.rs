//! Deterministic, dependency-free fault-injection registry.
//!
//! Production code sprinkles named *failpoint sites* over its I/O edges
//! (`failpoint::check("journal.append")`, `"reactor.read"`,
//! `"store.mmap_open"`, …). With the registry disarmed — the default —
//! a site is one relaxed atomic load and `None`. Armed (via
//! [`configure`] in tests, or the `FS_FAILPOINTS` environment variable
//! through [`configure_from_env`] for whole-process chaos runs), each
//! hit of a site draws from a **seeded, per-site deterministic stream**
//! and returns the fault to inject, if any. The same spec + seed +
//! per-site hit sequence therefore reproduces the same fault schedule,
//! which is what lets the chaos suite pin "no injected fault aborts the
//! process or corrupts a journal" as an ordinary deterministic test.
//!
//! ## Spec grammar
//!
//! ```text
//! spec  := site '=' fault ':' prob (',' fault ':' prob)* (';' spec)?
//! fault := eintr | eagain | short_read | short_write | enospc | error
//! ```
//!
//! Example: `reactor.read=eintr:0.2,short_read:0.1;journal.append=enospc:0.05`.
//! Probabilities are per-hit and summed per site (must total ≤ 1).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The fault kinds sites know how to inject.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Interrupted syscall (`EINTR`) — retryable.
    Eintr,
    /// Spurious would-block (`EAGAIN`) — retryable for level-triggered
    /// reactors.
    Eagain,
    /// Deliver/accept only part of the buffer.
    ShortRead,
    /// Write only part of the buffer.
    ShortWrite,
    /// Out of space (`ENOSPC`) — a persistent, non-retryable append
    /// failure.
    Enospc,
    /// Generic hard error (used for mmap-open and store-write faults).
    Error,
}

impl Fault {
    /// The spec-grammar name of this fault kind (also what trip hooks
    /// report as the decision).
    pub fn name(&self) -> &'static str {
        match self {
            Fault::Eintr => "eintr",
            Fault::Eagain => "eagain",
            Fault::ShortRead => "short_read",
            Fault::ShortWrite => "short_write",
            Fault::Enospc => "enospc",
            Fault::Error => "error",
        }
    }

    fn parse(name: &str) -> Result<Fault, String> {
        Ok(match name {
            "eintr" => Fault::Eintr,
            "eagain" => Fault::Eagain,
            "short_read" => Fault::ShortRead,
            "short_write" => Fault::ShortWrite,
            "enospc" => Fault::Enospc,
            "error" => Fault::Error,
            other => return Err(format!("unknown fault kind '{other}'")),
        })
    }
}

struct Site {
    /// `(fault, probability)` in spec order; drawn by cumulative sum.
    faults: Vec<(Fault, f64)>,
    /// Hits so far — the per-site deterministic stream position.
    hits: u64,
    /// Faults actually injected at this site.
    injected: u64,
}

struct Registry {
    seed: u64,
    sites: HashMap<String, Site>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
static TRIP_HOOK: Mutex<Option<TripHook>> = Mutex::new(None);

/// A trip observer: `(site, seed, hit index, injected fault)`. Invoked
/// only when a fault is actually injected — together with the spec,
/// these four values replay the exact fault schedule, which is what
/// makes a chaos run reconstructible from telemetry alone.
pub type TripHook = Box<dyn Fn(&str, u64, u64, Fault) + Send + Sync>;

/// Installs the process-wide trip observer (e.g. an `fs-obs` trace
/// ring), replacing any previous one. The hook runs on the failing
/// thread *outside* the registry lock but must not call back into
/// [`set_trip_hook`]/[`clear_trip_hook`].
pub fn set_trip_hook(hook: impl Fn(&str, u64, u64, Fault) + Send + Sync + 'static) {
    *TRIP_HOOK.lock().expect("failpoint trip hook poisoned") = Some(Box::new(hook));
}

/// Removes the trip observer.
pub fn clear_trip_hook() {
    *TRIP_HOOK.lock().expect("failpoint trip hook poisoned") = None;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parses a failpoint spec (see the [module docs](self) grammar).
fn parse_spec(spec: &str) -> Result<HashMap<String, Site>, String> {
    let mut sites = HashMap::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (site, faults_str) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry '{entry}' is missing '='"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err("empty failpoint site name".into());
        }
        let mut faults = Vec::new();
        let mut total = 0.0f64;
        for part in faults_str.split(',') {
            let (name, prob) = part
                .split_once(':')
                .ok_or_else(|| format!("fault '{part}' is missing ':probability'"))?;
            let fault = Fault::parse(name.trim())?;
            let p: f64 = prob
                .trim()
                .parse()
                .map_err(|_| format!("bad probability '{prob}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0, 1]"));
            }
            total += p;
            faults.push((fault, p));
        }
        if total > 1.0 + 1e-9 {
            return Err(format!("site '{site}' probabilities sum to {total} > 1"));
        }
        sites.insert(
            site.to_string(),
            Site {
                faults,
                hits: 0,
                injected: 0,
            },
        );
    }
    Ok(sites)
}

/// Arms the registry with `spec` and a base `seed`. Replaces any
/// previous configuration and resets all counters.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let sites = parse_spec(spec)?;
    let any = !sites.is_empty();
    *REGISTRY.lock().expect("failpoint registry poisoned") = Some(Registry { seed, sites });
    INJECTED_TOTAL.store(0, Ordering::Relaxed);
    ARMED.store(any, Ordering::Release);
    Ok(())
}

/// Parses `spec` and refuses any site outside `sites`, naming it. This
/// is the pure half of [`configure_from_env`]: it arms nothing.
pub fn validate_spec(spec: &str, sites: &[&str]) -> Result<(), String> {
    let parsed = parse_spec(spec)?;
    match parsed.keys().filter(|s| !sites.contains(&s.as_str())).min() {
        Some(site) => Err(format!(
            "failpoint site '{site}' is never consulted (known sites: {})",
            sites.join(", ")
        )),
        None => Ok(()),
    }
}

/// Arms the registry from `FS_FAILPOINTS` (spec) and `FS_FAILPOINT_SEED`
/// (decimal u64, default 0). Returns whether anything was armed; a
/// malformed spec, or one naming a site outside `sites` (the sites the
/// calling binary consults), is reported as `Err` so servers can refuse
/// to start half-armed.
pub fn configure_from_env(sites: &[&str]) -> Result<bool, String> {
    // fs-lint: allow(determinism) — chaos injection is explicitly opt-in; deterministic runs leave FS_FAILPOINTS unset
    match std::env::var("FS_FAILPOINTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            validate_spec(&spec, sites)?;
            // fs-lint: allow(determinism) — seed for the opt-in chaos schedule, not for sampling
            let seed = std::env::var("FS_FAILPOINT_SEED")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0u64);
            configure(&spec, seed)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Disarms the registry and clears all sites/counters.
pub fn clear() {
    ARMED.store(false, Ordering::Release);
    *REGISTRY.lock().expect("failpoint registry poisoned") = None;
    INJECTED_TOTAL.store(0, Ordering::Relaxed);
}

/// Whether any failpoint is armed (one relaxed load — the hot-path
/// guard).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Consults the registry at `site`. Disarmed or unconfigured sites
/// return `None` (no fault). Armed sites deterministically map their
/// hit index through `splitmix64(seed ⊕ fnv(site) ⊕ hit)` to a uniform
/// draw and pick a fault by cumulative probability.
#[inline]
pub fn check(site: &str) -> Option<Fault> {
    if !armed() {
        return None;
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> Option<Fault> {
    let (seed, hit, decision) = {
        let mut guard = REGISTRY.lock().expect("failpoint registry poisoned");
        let reg = guard.as_mut()?;
        let seed = reg.seed;
        let entry = reg.sites.get_mut(site)?;
        let hit = entry.hits;
        entry.hits += 1;
        let mut state = seed ^ fnv1a64(site.as_bytes()) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let word = splitmix64(&mut state);
        let mut u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut decision = None;
        for &(fault, p) in &entry.faults {
            if u < p {
                entry.injected += 1;
                INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
                decision = Some(fault);
                break;
            }
            u -= p;
        }
        (seed, hit, decision)
    };
    // The trip observer runs outside the registry lock so it can do
    // real work (render a trace event) without serializing other sites.
    if let Some(fault) = decision {
        if let Some(hook) = TRIP_HOOK
            .lock()
            .expect("failpoint trip hook poisoned")
            .as_ref()
        {
            hook(site, seed, hit, fault);
        }
    }
    decision
}

/// Total faults injected since the registry was last configured.
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Faults injected at one site (0 for unknown sites).
pub fn injected_at(site: &str) -> u64 {
    REGISTRY
        .lock()
        .expect("failpoint registry poisoned")
        .as_ref()
        .and_then(|reg| reg.sites.get(site))
        .map_or(0, |s| s.injected)
}

/// Test helper: arms `spec`/`seed` for the guard's lifetime, then
/// disarms. Tests that arm failpoints must not run concurrently with
/// other failpoint tests (the registry is process-global); serialize
/// them behind a shared mutex or `RUST_TEST_THREADS=1`.
pub struct ArmedGuard(());

impl ArmedGuard {
    /// Arms the registry, panicking on a malformed spec.
    pub fn new(spec: &str, seed: u64) -> Self {
        configure(spec, seed).expect("valid failpoint spec");
        ArmedGuard(())
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Registry state is process-global; serialize these tests.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_is_free_and_silent() {
        let _guard = lock();
        clear();
        assert!(!armed());
        assert_eq!(check("anything"), None);
        assert_eq!(injected_total(), 0);
    }

    #[test]
    fn deterministic_schedule() {
        let _guard = lock();
        let schedule: Vec<Option<Fault>> = {
            let _armed = ArmedGuard::new("io=eintr:0.3,short_read:0.2", 42);
            (0..200).map(|_| check("io")).collect()
        };
        let replay: Vec<Option<Fault>> = {
            let _armed = ArmedGuard::new("io=eintr:0.3,short_read:0.2", 42);
            (0..200).map(|_| check("io")).collect()
        };
        assert_eq!(schedule, replay);
        let injected = schedule.iter().filter(|f| f.is_some()).count();
        assert!(
            (40..160).contains(&injected),
            "~50% expected, got {injected}/200"
        );
        assert!(schedule.contains(&Some(Fault::Eintr)));
        assert!(schedule.contains(&Some(Fault::ShortRead)));
    }

    #[test]
    fn different_seeds_differ_and_unknown_sites_pass() {
        let _guard = lock();
        let a: Vec<Option<Fault>> = {
            let _armed = ArmedGuard::new("io=error:0.5", 1);
            (0..64).map(|_| check("io")).collect()
        };
        let b: Vec<Option<Fault>> = {
            let _armed = ArmedGuard::new("io=error:0.5", 2);
            assert_eq!(check("not.configured"), None);
            (0..64).map(|_| check("io")).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn certain_fault_always_fires_and_counts() {
        let _guard = lock();
        let _armed = ArmedGuard::new("journal.append=enospc:1.0", 7);
        for _ in 0..10 {
            assert_eq!(check("journal.append"), Some(Fault::Enospc));
        }
        assert_eq!(injected_at("journal.append"), 10);
        assert_eq!(injected_total(), 10);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = lock();
        clear();
        assert!(configure("nosep", 0).is_err());
        assert!(configure("a=weird:0.5", 0).is_err());
        assert!(configure("a=eintr:1.5", 0).is_err());
        assert!(configure("a=eintr:0.6,eagain:0.6", 0).is_err());
        assert!(configure("a=eintr:nan?", 0).is_err());
        // A rejected spec must not leave the registry half-armed.
        assert!(!armed());
    }

    #[test]
    fn spec_naming_an_unconsulted_site_is_refused() {
        let sites = ["io.read", "io.write"];
        assert_eq!(
            validate_spec("io.read=eintr:0.5;io.write=enospc:0.1", &sites),
            Ok(())
        );
        let err = validate_spec("io.read=eintr:0.5;io.raed=error:1.0", &sites).unwrap_err();
        assert!(err.contains("'io.raed'"), "{err}");
        // Grammar errors still surface first.
        assert!(validate_spec("io.read=weird:0.5", &sites)
            .unwrap_err()
            .contains("unknown fault kind"));
    }
}
