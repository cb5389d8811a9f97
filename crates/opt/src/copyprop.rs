//! Block-local copy propagation.

use std::collections::HashMap;

use sxe_ir::{Function, Inst, Reg};

/// Rewrite uses of copied registers to their sources within each block;
/// returns the number of operands rewritten.
pub fn run(f: &mut Function) -> usize {
    let mut changed = 0;
    let mut uses: Vec<Reg> = Vec::new();
    for b in 0..f.blocks.len() {
        // dst -> src mappings still valid at the cursor.
        let mut copies: HashMap<Reg, Reg> = HashMap::new();
        let insts = &mut f.blocks[b].insts;
        for inst in insts.iter_mut() {
            if matches!(inst, Inst::Nop) {
                continue;
            }
            // Rewrite uses through the valid mappings.
            uses.clear();
            inst.collect_uses(&mut uses);
            for &u in &uses {
                if let Some(&s) = copies.get(&u) {
                    if s != u {
                        inst.replace_uses(u, s);
                        changed += 1;
                    }
                }
            }
            // A def invalidates mappings involving the defined register.
            if let Some(d) = inst.dst() {
                copies.retain(|&k, &mut v| k != d && v != d);
            }
            // Record fresh copies (after invalidation, so `r = copy r` is
            // harmless).
            if let Inst::Copy { dst, src, .. } = *inst {
                if dst != src {
                    // Chase chains: if src is itself a copy of s0, map to s0.
                    let root = copies.get(&src).copied().unwrap_or(src);
                    copies.insert(dst, root);
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, BlockId, InstId};

    #[test]
    fn propagates_within_block() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = copy.i32 r0\n    r2 = add.i32 r1, r1\n    ret r2\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f), 2);
        match f.inst(InstId::new(BlockId(0), 1)) {
            Inst::Bin { lhs, rhs, .. } => {
                assert_eq!(*lhs, Reg(0));
                assert_eq!(*rhs, Reg(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalidated_by_redefinition() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = copy.i32 r0\n    r0 = add.i32 r0, r0\n    r2 = add.i32 r1, r1\n    ret r2\n}\n",
        )
        .unwrap();
        // r1 maps to r0, but r0 is redefined: the use of r1 must stay.
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn chains_are_chased() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = copy.i32 r0\n    r2 = copy.i32 r1\n    r3 = add.i32 r2, r2\n    ret r3\n}\n",
        )
        .unwrap();
        run(&mut f);
        match f.inst(InstId::new(BlockId(0), 2)) {
            Inst::Bin { lhs, rhs, .. } => {
                assert_eq!(*lhs, Reg(0));
                assert_eq!(*rhs, Reg(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn does_not_cross_blocks() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = copy.i32 r0\n    br b1\n\
             b1:\n    r2 = add.i32 r1, r1\n    ret r2\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f), 0);
    }
}
