//! The VM heap: arrays with Java-style semantics.

use sxe_ir::{Target, Ty};

/// One heap-allocated array.
#[derive(Debug, Clone)]
pub struct ArrayObj {
    elem: Ty,
    /// Elements in canonical form: narrow integers stored sign-extended,
    /// `f64` stored as raw bits.
    data: Vec<i64>,
}

impl ArrayObj {
    fn canonicalize(elem: Ty, v: i64) -> i64 {
        match elem {
            Ty::I8 => v as i8 as i64,
            Ty::I16 => v as i16 as i64,
            Ty::I32 => v as i32 as i64,
            Ty::I64 | Ty::F64 => v,
        }
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// Whether the array has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element type.
    #[must_use]
    pub fn elem(&self) -> Ty {
        self.elem
    }

    /// Load element `i`, applying the target's extension behaviour for
    /// narrow elements: `i8`/`i16` load sign-extended on every target
    /// (Java `baload`/`saload`); `i32` loads zero-extend on IA64 and
    /// sign-extend on PPC64 (`lwa`) and MIPS64 (`lw`).
    ///
    /// # Panics
    /// Panics if `i` is out of range (the caller performs the bounds
    /// check, which is part of the machine model).
    #[must_use]
    pub fn load(&self, i: u32, target: Target) -> i64 {
        let v = self.data[i as usize];
        match (self.elem, target) {
            (Ty::I32, Target::Ia64) => (v as u32) as i64,
            // Canonical form is sign-extended; elements are stored that way.
            (Ty::I32, Target::Ppc64 | Target::Mips64) => v,
            _ => v,
        }
    }

    /// Store `v` into element `i`; only the low `elem` bits are kept.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn store(&mut self, i: u32, v: i64) {
        self.data[i as usize] = Self::canonicalize(self.elem, v);
    }

    /// Raw canonical contents (for checksums and test assertions).
    #[must_use]
    pub fn raw(&self) -> &[i64] {
        &self.data
    }
}

/// The heap: a bump-allocated arena of arrays. References are dense ids,
/// starting at 1 (0 is reserved so a zero-initialized register is not a
/// valid reference).
#[derive(Debug, Clone, Default)]
pub struct Heap {
    arrays: Vec<ArrayObj>,
    total_elems: u64,
}

/// Maximum total elements across all arrays (memory cap).
pub const HEAP_LIMIT_ELEMS: u64 = 1 << 28;

impl Heap {
    /// Create an empty heap.
    #[must_use]
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Allocate a zero-initialized array; returns its reference value, or
    /// `None` if the memory cap would be exceeded.
    pub fn alloc(&mut self, elem: Ty, len: u32) -> Option<i64> {
        if self.total_elems + len as u64 > HEAP_LIMIT_ELEMS {
            return None;
        }
        self.total_elems += len as u64;
        self.arrays.push(ArrayObj { elem, data: vec![0; len as usize] });
        Some(self.arrays.len() as i64)
    }

    /// Resolve a reference; `None` for null or dangling references.
    #[must_use]
    pub fn get(&self, reference: i64) -> Option<&ArrayObj> {
        let idx = usize::try_from(reference).ok()?.checked_sub(1)?;
        self.arrays.get(idx)
    }

    /// Mutable variant of [`Heap::get`].
    pub fn get_mut(&mut self, reference: i64) -> Option<&mut ArrayObj> {
        let idx = usize::try_from(reference).ok()?.checked_sub(1)?;
        self.arrays.get_mut(idx)
    }

    /// The §3 machine model's address check, shared by both engines:
    /// bounds check on the **low 32 bits** of the index (IA64
    /// `cmp4.ltu`), effective address from the **full register**
    /// (`shladd`). If the check passes but the full value differs (upper
    /// bits were garbage), the access is a wild address.
    pub(crate) fn check_index(&self, aref: i64, raw_index: i64) -> Result<u32, sxe_ir::TrapKind> {
        let a = self.get(aref).ok_or(sxe_ir::TrapKind::WildAddress)?;
        checked_low(a, raw_index)
    }

    /// [`Heap::check_index`] + [`ArrayObj::load`] in a single array
    /// lookup — the decoded engine's fast path (the tree engine keeps
    /// the two-step reference shape; the semantics are identical).
    #[inline]
    pub(crate) fn load_checked(
        &self,
        aref: i64,
        raw_index: i64,
        target: Target,
    ) -> Result<i64, sxe_ir::TrapKind> {
        let a = self.get(aref).ok_or(sxe_ir::TrapKind::WildAddress)?;
        let low = checked_low(a, raw_index)?;
        Ok(a.load(low, target))
    }

    /// [`Heap::check_index`] + [`ArrayObj::store`] in a single array
    /// lookup.
    #[inline]
    pub(crate) fn store_checked(
        &mut self,
        aref: i64,
        raw_index: i64,
        v: i64,
    ) -> Result<(), sxe_ir::TrapKind> {
        let idx = usize::try_from(aref)
            .ok()
            .and_then(|i| i.checked_sub(1))
            .ok_or(sxe_ir::TrapKind::WildAddress)?;
        let a = self.arrays.get_mut(idx).ok_or(sxe_ir::TrapKind::WildAddress)?;
        let low = checked_low(a, raw_index)?;
        a.store(low, v);
        Ok(())
    }

    /// FNV-1a checksum over all array contents, in allocation order. Used
    /// by the differential tests: two executions with identical observable
    /// behaviour produce identical checksums.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for a in &self.arrays {
            mix(a.data.len() as u64);
            for &v in &a.data {
                mix(v as u64);
            }
        }
        h
    }
}

/// The low-32-bit bounds check against an already-resolved array (the
/// second half of [`Heap::check_index`]).
#[inline]
fn checked_low(a: &ArrayObj, raw_index: i64) -> Result<u32, sxe_ir::TrapKind> {
    let low = raw_index as u32; // cmp4.ltu low, len
    if low >= a.len() {
        return Err(sxe_ir::TrapKind::IndexOutOfBounds);
    }
    // shladd uses the full register: valid only if it equals the
    // zero-extended checked index.
    if raw_index as u64 != low as u64 {
        return Err(sxe_ir::TrapKind::WildAddress);
    }
    Ok(low)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let r = h.alloc(Ty::I32, 4).unwrap();
        assert_eq!(r, 1);
        assert!(h.get(0).is_none()); // null
        assert!(h.get(2).is_none()); // dangling
        let a = h.get_mut(r).unwrap();
        a.store(0, -7);
        assert_eq!(a.raw()[0], -7);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn i32_load_extension_by_target() {
        let mut h = Heap::new();
        let r = h.alloc(Ty::I32, 1).unwrap();
        h.get_mut(r).unwrap().store(0, -1);
        let a = h.get(r).unwrap();
        assert_eq!(a.load(0, Target::Ia64), 0xFFFF_FFFF); // zero-extended
        assert_eq!(a.load(0, Target::Ppc64), -1); // lwa sign-extends
        assert_eq!(a.load(0, Target::Mips64), -1); // lw sign-extends
    }

    #[test]
    fn narrow_store_truncates() {
        let mut h = Heap::new();
        let r = h.alloc(Ty::I8, 1).unwrap();
        h.get_mut(r).unwrap().store(0, 0x1FF);
        // 0x1FF truncated to 8 bits = -1 as i8.
        assert_eq!(h.get(r).unwrap().load(0, Target::Ia64), -1);
        let r16 = h.alloc(Ty::I16, 1).unwrap();
        h.get_mut(r16).unwrap().store(0, 0x1_8000);
        assert_eq!(h.get(r16).unwrap().load(0, Target::Ia64), -32768);
    }

    #[test]
    fn checksums_differ_on_content() {
        let mut h1 = Heap::new();
        let r = h1.alloc(Ty::I32, 2).unwrap();
        let mut h2 = h1.clone();
        assert_eq!(h1.checksum(), h2.checksum());
        h2.get_mut(r).unwrap().store(1, 42);
        assert_ne!(h1.checksum(), h2.checksum());
    }

    #[test]
    fn heap_limit() {
        let mut h = Heap::new();
        assert!(h.alloc(Ty::I64, u32::MAX).is_none() || HEAP_LIMIT_ELEMS > u32::MAX as u64);
    }
}
