//! The mirrored pipeline must reproduce `try_compile` byte for byte, and
//! the workload inputs must follow from the seed alone.

use std::time::Instant;

use perfbench::trace::{check_nesting, check_self_within_op, Tracer};
use perfbench::{compiler, kernels, mirror, seeded_order, serve_mixed};

#[test]
fn mirror_matches_try_compile_on_kernels_and_misses() {
    let c = compiler();
    let mut texts: Vec<String> = kernels().into_iter().map(|k| k.text).collect();
    texts.extend((0..8).map(|n| serve_mixed::miss_source(42, 0, n)));
    let mut t = Tracer::new(Instant::now());
    for text in &texts {
        let m = sxe_ir::parse_module(text).unwrap();
        let want = c.try_compile(&m).unwrap();
        let op = t.begin_op("op");
        let got = mirror::compile(&c, &m, &mut t).unwrap();
        t.end(op);
        assert_eq!(got.module.to_string(), want.module.to_string());
        assert_eq!(got.stats.generated, want.stats.generated);
        assert_eq!(got.stats.eliminated, want.stats.eliminated);
        assert_eq!(got.rewrites, want.opt_stats.total());
    }
    check_nesting(t.spans()).unwrap();
    check_self_within_op(t.spans()).unwrap();
}

#[test]
fn inputs_follow_from_the_seed() {
    let a = seeded_order(17, 7);
    assert_eq!(a, seeded_order(17, 7));
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..17).collect::<Vec<_>>());
    assert_ne!(a, seeded_order(17, 8));
    assert_eq!(
        serve_mixed::miss_source(3, 1, 5),
        serve_mixed::miss_source(3, 1, 5)
    );
    assert_ne!(
        serve_mixed::miss_source(3, 1, 5),
        serve_mixed::miss_source(3, 1, 6)
    );
    assert_ne!(
        serve_mixed::miss_source(3, 0, 5),
        serve_mixed::miss_source(3, 1, 5)
    );
}
