//! Cross-process artifact keys: what a compiled module's identity is.
//!
//! The compile-service daemon (`sxed`, in `sxe-serve`) caches whole
//! compiled modules on disk and across process restarts. A cached
//! artifact may be served *instead of* compiling only if the key
//! captures everything the compiled text depends on:
//!
//! * **the input functions** — folded in as each
//!   [`Function::fingerprint`] in module order (the same
//!   structural fingerprint the [`sxe_analysis::AnalysisCache`]
//!   validates its facts against, extended here from per-function
//!   analysis facts to whole compiled functions). Because step-2
//!   inlining can splice one function's body into another, a single
//!   function's compiled form depends on its callees; combining *every*
//!   function fingerprint makes the key sound in the presence of
//!   inlining at the cost of caching per module rather than per
//!   function;
//! * **the pipeline configuration** — the step-3 [`SxeConfig`] and the
//!   step-2 [`GeneralOpts`] ([`config_key`]), which are the only
//!   compiler knobs that change the emitted text;
//! * **the execution backend** — the [`Backend`] the artifact is
//!   compiled for;
//! * **the pipeline revision** — [`ARTIFACT_VERSION`], bumped whenever
//!   a change to the optimizer can alter output for an unchanged input,
//!   so a cache directory written by an older build misses instead of
//!   serving stale code.
//!
//! Deliberately *excluded* from the key — and therefore part of the
//! caller's contract:
//!
//! * `threads`, `cache`, `verify`, `telemetry` — proven byte-identical
//!   by the tier-1 determinism gates, so they cannot change the artifact;
//! * `fuel` / `time_limit` / `fault_plan` — these *can* change the
//!   output (budget salvage, contained rollbacks), so **callers must
//!   only cache artifacts from clean compilations**
//!   ([`CompileReport::clean`] and no fault plan). A clean report means
//!   every pass ran to completion, which is exactly the case where the
//!   output equals an unlimited-budget run.
//!
//! [`SxeConfig`]: sxe_core::SxeConfig
//! [`GeneralOpts`]: sxe_opt::GeneralOpts
//! [`CompileReport::clean`]: crate::CompileReport::clean
//! [`Function::fingerprint`]: sxe_ir::Function::fingerprint

use sxe_ir::hash::{fnv1a, FNV_OFFSET};
use sxe_ir::Module;

use crate::Compiler;

/// Revision of the compiled-artifact format and of the pipeline's
/// output-affecting behavior. Mixed into every [`artifact_key`]; bump it
/// when an optimizer change can alter the compiled text for an
/// unchanged input + configuration.
///
/// History: `2` introduced the [`Backend`] dimension — older caches
/// hold keys that never name a backend, and the bump retires them
/// wholesale rather than letting a VM-era artifact answer a native-era
/// request.
pub const ARTIFACT_VERSION: u32 = 2;

/// The execution backend an artifact is compiled *for*. The emitted IR
/// text is backend-independent today, but the artifact contract is not:
/// a consumer asking for a native-backend artifact must never be served
/// an entry recorded under the VM backend (and vice versa), so the
/// backend is part of the cache identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// The interpreting engines (`decoded`/`tree`) — the default.
    #[default]
    Vm,
    /// The `sxe-native` x86-64 code generator.
    Native,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Vm => "vm",
            Backend::Native => "native",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "vm" => Ok(Backend::Vm),
            "native" => Ok(Backend::Native),
            other => Err(format!("unknown backend `{other}` (expected `vm` or `native`)")),
        }
    }
}

/// Fingerprint of the output-affecting compiler configuration: the
/// step-3 [`sxe_core::SxeConfig`] and step-2 [`sxe_opt::GeneralOpts`],
/// plus [`ARTIFACT_VERSION`] and the [`Backend`]. Budget, fault-plan,
/// thread-count, and telemetry knobs are excluded (see the
/// [module docs](self)).
#[must_use]
pub fn config_key(compiler: &Compiler, backend: Backend) -> u64 {
    // Debug formatting enumerates every field of both config structs, so
    // a new output-affecting option cannot silently escape the key.
    let desc = format!(
        "v{ARTIFACT_VERSION}|{backend:?}|{:?}|{:?}",
        compiler.sxe, compiler.general
    );
    fnv1a(FNV_OFFSET, desc.as_bytes())
}

/// Fingerprint of a module's functions: each
/// [`Function::fingerprint`](sxe_ir::Function::fingerprint)
/// folded in module order (order matters — it is the merge order of the
/// sharded pipeline and the emission order of the compiled text).
#[must_use]
pub fn module_key(module: &Module) -> u64 {
    let mut h = FNV_OFFSET;
    for (_, f) in module.iter() {
        h = fnv1a(h, &f.fingerprint().to_le_bytes());
    }
    h
}

/// The cross-process cache key for compiling `module` with `compiler`
/// for `backend`: [`config_key`] and [`module_key`] combined.
#[must_use]
pub fn artifact_key(compiler: &Compiler, backend: Backend, module: &Module) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &config_key(compiler, backend).to_le_bytes());
    h = fnv1a(h, &module_key(module).to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_core::Variant;
    use sxe_ir::{parse_module, Target};

    const A: &str = "func @f(i32) -> i32 {\nb0:\n    r1 = const.i32 2\n    r2 = add.i32 r0, r1\n    ret r2\n}\n";
    const B: &str = "func @f(i32) -> i32 {\nb0:\n    r1 = const.i32 3\n    r2 = add.i32 r0, r1\n    ret r2\n}\n";

    #[test]
    fn key_is_deterministic_and_body_sensitive() {
        let c = Compiler::for_variant(Variant::All);
        let a = parse_module(A).unwrap();
        let b = parse_module(B).unwrap();
        assert_eq!(artifact_key(&c, Backend::Vm, &a), artifact_key(&c, Backend::Vm, &a));
        assert_ne!(
            artifact_key(&c, Backend::Vm, &a),
            artifact_key(&c, Backend::Vm, &b),
            "same name, different body must miss"
        );
    }

    #[test]
    fn key_is_config_sensitive() {
        let a = parse_module(A).unwrap();
        let all = Compiler::for_variant(Variant::All);
        let base = Compiler::for_variant(Variant::Baseline);
        let ppc = Compiler::builder(Variant::All).target(Target::Ppc64).build();
        let key = |c: &Compiler| artifact_key(c, Backend::Vm, &a);
        assert_ne!(key(&all), key(&base));
        assert_ne!(key(&all), key(&ppc));
        // Every target pair keys distinctly: a mips64 artifact (built
        // under canonical-form folding) must never answer another
        // target's request, and vice versa.
        let keys: Vec<u64> = Target::ALL
            .iter()
            .map(|&t| key(&Compiler::builder(Variant::All).target(t).build()))
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "{:?} vs {:?}", Target::ALL[i], Target::ALL[j]);
            }
        }
    }

    #[test]
    fn key_ignores_output_neutral_knobs() {
        let a = parse_module(A).unwrap();
        let plain = Compiler::for_variant(Variant::All);
        let tuned = Compiler::builder(Variant::All)
            .threads(8)
            .cache(false)
            .budget(Some(10), None)
            .build();
        assert_eq!(
            artifact_key(&plain, Backend::Vm, &a),
            artifact_key(&tuned, Backend::Vm, &a),
            "threads/cache/budget are not part of the artifact identity"
        );
    }

    #[test]
    fn backend_is_part_of_the_identity() {
        let c = Compiler::for_variant(Variant::All);
        let a = parse_module(A).unwrap();
        assert_ne!(
            artifact_key(&c, Backend::Vm, &a),
            artifact_key(&c, Backend::Native, &a),
            "a VM-era artifact must never answer a native-era request"
        );
    }

    /// Keys already written to on-disk caches under `ARTIFACT_VERSION`
    /// 2 must keep hitting: these values are pinned, not recomputed.
    #[test]
    fn key_values_are_stable() {
        assert_eq!(ARTIFACT_VERSION, 2);
        let a = parse_module(A).unwrap();
        assert_eq!(module_key(&a), 0xb6be_f7fe_bb23_d1ae);
        let all = Compiler::for_variant(Variant::All);
        assert_eq!(config_key(&all, Backend::Vm), 0xe29b_96b6_0ced_9d3f);
        assert_eq!(artifact_key(&all, Backend::Vm, &a), 0x5b24_ac9a_5941_d56d);
        assert_eq!(artifact_key(&all, Backend::Native, &a), 0x5d3f_280e_f3fc_6470);
        let base = Compiler::for_variant(Variant::Baseline);
        assert_eq!(artifact_key(&base, Backend::Vm, &a), 0x2fbb_f7d2_5762_fb64);
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("vm".parse::<Backend>(), Ok(Backend::Vm));
        assert_eq!("native".parse::<Backend>(), Ok(Backend::Native));
        assert!("jit".parse::<Backend>().is_err());
        assert_eq!(Backend::Vm.to_string(), "vm");
        assert_eq!(Backend::Native.to_string(), "native");
        assert_eq!(Backend::default(), Backend::Vm);
    }
}
