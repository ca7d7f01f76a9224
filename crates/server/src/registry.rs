//! The system registry: parse/compile each system **once**, share the
//! compiled [`Oracle`] across every connection.
//!
//! Systems are keyed by [`SystemDesc::content_key`] — a stable hash of
//! the registration content — so re-registering an identical
//! description (any client, any connection) returns the existing entry
//! without recompiling. Registration holds the registry lock across the
//! build: a second client registering the same system concurrently
//! blocks until the first build finishes and then observes the entry,
//! which is exactly the compile-once guarantee the e2e tests assert via
//! telemetry (`CompileFinish` count stays 1).
//!
//! Entries live for the life of the process: the [`System`] is leaked
//! into `&'static` so the borrowed `Oracle<'static>` needs no
//! self-referential tricks (core forbids `unsafe`). The registry is
//! therefore *capacity-capped* rather than evicting — registration past
//! the cap is refused as an admission-control decision, not silently
//! absorbed as an unbounded leak.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sd_core::{examples, CompileBudget, Engine, Oracle, Sink, System};

use crate::proto::{ErrorKind, SystemDesc, WireError};

/// One registered system: the leaked [`System`] and its compile-once
/// [`Oracle`], shared (the Oracle is `Sync`) by every worker.
pub struct SystemEntry {
    /// The registry key ([`SystemDesc::content_key`]).
    pub key: u64,
    /// Human-readable description for scrapes and logs.
    pub desc: String,
    /// The system, alive for the life of the process.
    pub system: &'static System,
    /// The shared compiled query session.
    pub oracle: Oracle<'static>,
}

impl std::fmt::Debug for SystemEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemEntry")
            .field("key", &self.key)
            .field("desc", &self.desc)
            .finish_non_exhaustive()
    }
}

/// The registry. See the module docs for the sharing model.
pub struct Registry {
    entries: Mutex<HashMap<u64, Arc<SystemEntry>>>,
    cap: usize,
    budget: CompileBudget,
    sink: Option<Arc<dyn Sink>>,
}

fn build_example(name: &str, params: &[i64]) -> Result<System, WireError> {
    let arity_err = |want: usize| {
        WireError::new(
            ErrorKind::Invalid,
            format!("example `{name}` takes {want} integer parameter(s)"),
        )
    };
    let p = |i: usize, want: usize| params.get(i).copied().ok_or_else(|| arity_err(want));
    let built = match name {
        "copy" => examples::copy_system(p(0, 1)?),
        "threshold" => examples::threshold_system(p(0, 1)?),
        "guarded_copy" => examples::guarded_copy_system(p(0, 1)?),
        "flag_copy" => examples::flag_copy_system(p(0, 1)?),
        "nontransitive" => examples::nontransitive_system(p(0, 1)?),
        "left_right" => examples::left_right_system(p(0, 1)?),
        "m1m2" => examples::m1m2_system(p(0, 1)?),
        "oscillator" => examples::oscillator_system(p(0, 1)?),
        "mod_adder" => {
            let bits = u32::try_from(p(0, 1)?)
                .map_err(|_| WireError::new(ErrorKind::Invalid, "mod_adder bits must be ≥ 0"))?;
            examples::mod_adder_system(bits)
        }
        "pointer_chain" => {
            let n = usize::try_from(p(0, 2)?)
                .map_err(|_| WireError::new(ErrorKind::Invalid, "pointer_chain n must be ≥ 0"))?;
            examples::pointer_chain_system(n, p(1, 2)?)
        }
        other => {
            return Err(WireError::new(
                ErrorKind::Invalid,
                format!("unknown example `{other}`"),
            ))
        }
    };
    built.map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))
}

fn build_system(desc: &SystemDesc) -> Result<System, WireError> {
    match desc {
        SystemDesc::Example { name, params } => build_example(name, params),
        SystemDesc::Program { source } => {
            let prog = sd_lang::parse(source)
                .map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))?;
            let compiled = sd_lang::compile(&prog)
                .map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))?;
            Ok(compiled.system)
        }
    }
}

impl Registry {
    /// A registry holding at most `cap` systems, compiling with
    /// `budget`. When `sink` is present every compile reports telemetry
    /// through it (and so do all queries run on the shared Oracles).
    pub fn new(cap: usize, budget: CompileBudget, sink: Option<Arc<dyn Sink>>) -> Registry {
        Registry {
            entries: Mutex::new(HashMap::new()),
            cap,
            budget,
            sink,
        }
    }

    /// Registers (or looks up) the system described by `desc`. Same
    /// content ⇒ same entry, compiled exactly once. The returned flag is
    /// `true` when this call actually built the system (a *cold*
    /// registration) and `false` when it found an existing entry — the
    /// server labels registration latency with it.
    pub fn register(&self, desc: &SystemDesc) -> Result<(Arc<SystemEntry>, bool), WireError> {
        let key = desc.content_key();
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(entry) = entries.get(&key) {
            return Ok((Arc::clone(entry), false));
        }
        if entries.len() >= self.cap {
            return Err(WireError::new(
                ErrorKind::Overloaded,
                format!("registry full ({} systems); not accepting more", self.cap),
            ));
        }
        let system: &'static System = Box::leak(Box::new(build_system(desc)?));
        let oracle = Oracle::with_engine(system, Engine::Auto, &self.budget, self.sink.clone())
            .map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))?;
        let entry = Arc::new(SystemEntry {
            key,
            desc: desc.describe(),
            system,
            oracle,
        });
        entries.insert(key, Arc::clone(&entry));
        Ok((entry, true))
    }

    /// Looks up a registered system by key.
    pub fn get(&self, key: u64) -> Option<Arc<SystemEntry>> {
        self.entries
            .lock()
            .expect("registry lock")
            .get(&key)
            .cloned()
    }

    /// `(key, description)` of every registered system, sorted by key
    /// (deterministic scrape output).
    pub fn list(&self) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = self
            .entries
            .lock()
            .expect("registry lock")
            .values()
            .map(|e| (e.key, e.desc.clone()))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Number of registered systems.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock").len()
    }

    /// Maximum number of systems the registry admits.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether no system is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(k: i64) -> SystemDesc {
        SystemDesc::Example {
            name: "guarded_copy".into(),
            params: vec![k],
        }
    }

    #[test]
    fn same_content_compiles_once() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (a, fresh_a) = reg.register(&desc(2)).unwrap();
        let (b, fresh_b) = reg.register(&desc(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(fresh_a, "first registration builds");
        assert!(!fresh_b, "second registration reuses");
        assert_eq!(a.oracle.stats().compiles, 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_content_distinct_entries() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (a, _) = reg.register(&desc(2)).unwrap();
        let (b, _) = reg.register(&desc(3)).unwrap();
        assert_ne!(a.key, b.key);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.cap(), 4);
    }

    #[test]
    fn cap_refuses_further_registrations() {
        let reg = Registry::new(1, CompileBudget::default(), None);
        reg.register(&desc(2)).unwrap();
        let err = reg.register(&desc(3)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Overloaded);
        // The existing entry is still servable.
        assert!(reg.register(&desc(2)).is_ok());
    }

    #[test]
    fn unknown_example_is_invalid() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let err = reg
            .register(&SystemDesc::Example {
                name: "no_such".into(),
                params: vec![],
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
    }

    #[test]
    fn program_registration_compiles() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (entry, _) = reg
            .register(&SystemDesc::Program {
                source: "var x: bool; var y: bool;\ny := x;".into(),
            })
            .unwrap();
        assert!(entry.system.universe().obj("x").is_ok());
    }

    #[test]
    fn bad_program_is_structured_error() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let err = reg
            .register(&SystemDesc::Program {
                source: "var x bool".into(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
    }
}
