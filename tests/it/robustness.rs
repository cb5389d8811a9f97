//! Robustness properties across the stack: printer/parser round trips,
//! optimizer-only differentials, idempotence, and narrow-width
//! (8/16-bit) extension handling.

use sxe_core::Variant;
use sxe_ir::{parse_module, Target, TrapKind};
use sxe_jit::Compiler;
use sxe_vm::Vm;
use xelim_integration_tests::gen;

const FUEL: u64 = 2_000_000;

fn run_key(m: &sxe_ir::Module) -> (Option<i64>, Option<u64>, Option<TrapKind>) {
    let mut vm = Vm::builder(m).target(Target::Ia64).fuel(FUEL).build();
    match vm.run("main", &[]) {
        Ok(o) => (o.ret, Some(o.heap_checksum), None),
        Err(e) => (None, None, e.trap_kind()),
    }
}

const CASES: usize = 96;

/// Printing and reparsing is the identity on generated programs, and
/// the *textual* form is a fixed point for compiled output too (the
/// parser infers `reg_count` from the registers it sees, so a module
/// holding unused high registers after DCE differs structurally but
/// prints identically).
#[test]
fn print_parse_round_trip() {
    for (i, p) in gen::program_corpus(0x0b57_0001, CASES) {
        let m = gen::lower(&p);
        let text = m.to_string();
        let reparsed = parse_module(&text).expect("printed IR parses");
        assert_eq!(&m, &reparsed, "case {i}");
        let compiled = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
        let text2 = compiled.module.to_string();
        let reparsed2 = parse_module(&text2).expect("compiled IR parses");
        assert_eq!(reparsed2.to_string(), text2, "case {i}");
    }
}

/// The general optimizer alone (step 2, no extension machinery)
/// preserves semantics of raw 32-bit-form programs.
#[test]
fn general_opts_alone_preserve_semantics() {
    for (i, p) in gen::program_corpus(0x0b57_0002, CASES) {
        let m = gen::lower(&p);
        let reference = run_key(&m);
        let mut optimized = m.clone();
        sxe_opt::run_module(&mut optimized, &sxe_opt::GeneralOpts::default(), Target::Ia64);
        sxe_ir::verify_module(&optimized).expect("optimizer output verifies");
        assert_eq!(reference, run_key(&optimized), "case {i}: {p:?}");
    }
}

/// Compiling the compiler's own output again preserves behaviour.
/// (Static extension counts need not shrink further: the conversion
/// step legitimately regenerates extensions after definitions whose
/// original extensions the theorems discharged — the pipeline's
/// contract is 32-bit-form input, not its own output.)
#[test]
fn recompilation_preserves_semantics() {
    for (i, p) in gen::program_corpus(0x0b57_0003, CASES) {
        let m = gen::lower(&p);
        let once = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
        let twice = Compiler::for_variant(Variant::All)
            .try_compile(&once.module)
            .expect("compiles");
        sxe_ir::verify_module(&twice.module).expect("verifies");
        assert_eq!(run_key(&once.module), run_key(&twice.module), "case {i}: {p:?}");
    }
}

#[test]
fn byte_cast_elimination_full_pipeline() {
    // (byte)(x & 0x7f) is already sign-extended-from-8; the full pipeline
    // removes the 8-bit extension.
    let m = parse_module(
        "func @main(i32) -> i32 {\n\
         b0:\n    r1 = const.i32 127\n    r2 = and.i32 r0, r1\n    r3 = extend.8 r2\n    ret r3\n}\n",
    )
    .unwrap();
    let c = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    assert_eq!(c.module.count_extends(Some(sxe_ir::Width::W8)), 0, "{}", c.module);
    let mut vm = Vm::new(&c.module, Target::Ia64);
    assert_eq!(vm.run("main", &[100]).unwrap().ret, Some(100));
}

#[test]
fn byte_cast_kept_when_needed() {
    // (byte)x with unknown x must keep its extension when the value is
    // returned (calling convention reads the full register).
    let m = parse_module(
        "func @main(i32) -> i32 {\n\
         b0:\n    r1 = extend.8 r0\n    ret r1\n}\n",
    )
    .unwrap();
    let c = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    assert_eq!(c.module.count_extends(Some(sxe_ir::Width::W8)), 1);
    let mut vm = Vm::new(&c.module, Target::Ia64);
    assert_eq!(vm.run("main", &[0x1FF]).unwrap().ret, Some(-1)); // low byte 0xFF
}

#[test]
fn short_width_pipeline_roundtrip() {
    // 16-bit casts in a loop; all variants agree dynamically.
    let m = parse_module(
        "func @main(i32) -> i32 {\n\
         b0:\n    r1 = const.i32 0\n    br b1\n\
         b1:\n    r2 = const.i32 1\n    r0 = sub.i32 r0, r2\n    r3 = extend.16 r0\n    r1 = add.i32 r1, r3\n    condbr gt.i32 r0, r2, b1, b2\n\
         b2:\n    r1 = extend.32 r1\n    ret r1\n}\n",
    )
    .unwrap();
    let mut reference = None;
    for v in Variant::ALL {
        let c = Compiler::for_variant(v).try_compile(&m).expect("compiles");
        let mut vm = Vm::new(&c.module, Target::Ia64);
        let out = vm.run("main", &[1000]).unwrap().ret;
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v}"),
        }
    }
}

#[test]
fn call_depth_limit_traps_cleanly() {
    let m = parse_module(
        "func @main(i32) -> i32 {\n\
         b0:\n    r1 = call @main(r0)\n    ret r1\n}\n",
    )
    .unwrap();
    let mut vm = Vm::new(&m, Target::Ia64);
    assert_eq!(
        vm.run("main", &[1]).unwrap_err().trap_kind(),
        Some(TrapKind::ResourceExhausted)
    );
}

#[test]
fn parser_rejects_malformed_inputs() {
    for (src, what) in [
        ("func @f() {\nb0:\n    r0 = add.i32 r1\n}\n", "missing operand"),
        ("func @f() {\nb1:\n    ret\n}\n", "out-of-order block"),
        ("func @f() -> wat {\nb0:\n    ret\n}\n", "bad type"),
        ("func @f() {\nb0:\n    br b9\n    ret\n}\n", "verifies but... parse ok"),
        ("func @f() {\n    ret\n}\n", "inst before label"),
        ("nonsense\n", "no func"),
    ] {
        let r = parse_module(src);
        if what.contains("parse ok") {
            // This one parses but must fail verification.
            let m = r.expect("parses");
            assert!(sxe_ir::verify_module(&m).is_err());
        } else {
            assert!(r.is_err(), "{what}: {src}");
        }
    }
}

#[test]
fn max_array_len_extremes() {
    // Degenerate Theorem 4 bounds must not crash or mis-eliminate.
    let m = parse_module(
        "func @main(i32, i32) -> i32 {\n\
         b0:\n    r2 = newarray.i32 r0\n    br b1\n\
         b1:\n    r3 = const.i32 1\n    r1 = sub.i32 r1, r3\n    r4 = aload.i32 r2, r1\n    condbr gt.i32 r1, r3, b1, b2\n\
         b2:\n    ret r4\n}\n",
    )
    .unwrap();
    for maxlen in [1u32, 2, 0x7fff_ffff] {
        let mut compiler = Compiler::for_variant(Variant::All);
        compiler.sxe.max_array_len = maxlen;
        let c = compiler.try_compile(&m).expect("compiles");
        let mut vm = Vm::new(&c.module, Target::Ia64);
        let out = vm.run("main", &[8, 7]).unwrap();
        assert_eq!(out.ret, Some(0), "maxlen={maxlen}");
    }
}
