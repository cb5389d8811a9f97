//! Algorithm variants and configuration — one variant per row of the
//! paper's Tables 1 and 2.

use sxe_ir::{Target, Width};

/// The twelve measured configurations (Tables 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variant {
    /// Disable the sign-extension optimizations of Fig 5 step 3 entirely;
    /// extensions are generated after definitions and left in place.
    Baseline,
    /// Reference: generate a sign extension before every use point at
    /// code-generation time instead of after definitions (Fig 6(c)).
    GenUse,
    /// The authors' first algorithm: elimination by backward dataflow
    /// analysis only.
    FirstAlgorithm,
    /// The new UD/DU-chain algorithm with insertion, order determination,
    /// and array-subscript elimination all disabled.
    BasicUdDu,
    /// Enable sign-extension insertion only.
    Insert,
    /// Enable order determination only.
    Order,
    /// Enable insertion and order determination.
    InsertOrder,
    /// Enable array-subscript elimination only.
    Array,
    /// Array-subscript elimination plus insertion.
    ArrayInsert,
    /// Array-subscript elimination plus order determination.
    ArrayOrder,
    /// All features, but with the partial-dead-code-elimination insertion
    /// variant instead of the simple insertion (reference).
    AllPde,
    /// The complete new algorithm ("new algorithm (all)").
    All,
}

impl Variant {
    /// All variants in table-row order.
    pub const ALL: [Variant; 12] = [
        Variant::Baseline,
        Variant::GenUse,
        Variant::FirstAlgorithm,
        Variant::BasicUdDu,
        Variant::Insert,
        Variant::Order,
        Variant::InsertOrder,
        Variant::Array,
        Variant::ArrayInsert,
        Variant::ArrayOrder,
        Variant::AllPde,
        Variant::All,
    ];

    /// The variant's command-line and wire name (`sxec --variant`, the
    /// `sxed` `variant=` header); [`FromStr`](std::str::FromStr) parses
    /// it back.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::GenUse => "gen-use",
            Variant::FirstAlgorithm => "first",
            Variant::BasicUdDu => "basic",
            Variant::Insert => "insert",
            Variant::Order => "order",
            Variant::InsertOrder => "insert-order",
            Variant::Array => "array",
            Variant::ArrayInsert => "array-insert",
            Variant::ArrayOrder => "array-order",
            Variant::AllPde => "all-pde",
            Variant::All => "all",
        }
    }

    /// The table-row label used in the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::GenUse => "gen use (reference)",
            Variant::FirstAlgorithm => "first algorithm (bwd flow)",
            Variant::BasicUdDu => "basic ud/du",
            Variant::Insert => "insert",
            Variant::Order => "order",
            Variant::InsertOrder => "insert, order",
            Variant::Array => "array",
            Variant::ArrayInsert => "array, insert",
            Variant::ArrayOrder => "array, order",
            Variant::AllPde => "all, using PDE (reference)",
            Variant::All => "new algorithm (all)",
        }
    }

    /// Whether extensions are generated before uses instead of after
    /// definitions at conversion time.
    #[must_use]
    pub fn gen_use(self) -> bool {
        self == Variant::GenUse
    }

    /// Whether the backward-dataflow first algorithm performs the
    /// elimination (instead of the UD/DU-chain algorithm).
    #[must_use]
    pub fn first_algorithm(self) -> bool {
        self == Variant::FirstAlgorithm
    }

    /// Whether the UD/DU elimination phase runs at all.
    #[must_use]
    pub fn uses_udu(self) -> bool {
        !matches!(self, Variant::Baseline | Variant::GenUse | Variant::FirstAlgorithm)
    }

    /// Whether phase (3)-1 insertion runs (simple insertion unless
    /// [`Variant::pde_insertion`]).
    #[must_use]
    pub fn insertion(self) -> bool {
        matches!(
            self,
            Variant::Insert
                | Variant::InsertOrder
                | Variant::ArrayInsert
                | Variant::AllPde
                | Variant::All
        )
    }

    /// Whether the PDE insertion variant replaces the simple one.
    #[must_use]
    pub fn pde_insertion(self) -> bool {
        self == Variant::AllPde
    }

    /// Whether phase (3)-2 order determination runs (otherwise extensions
    /// are processed in reverse depth-first-search order).
    #[must_use]
    pub fn order_determination(self) -> bool {
        matches!(
            self,
            Variant::Order
                | Variant::InsertOrder
                | Variant::ArrayOrder
                | Variant::AllPde
                | Variant::All
        )
    }

    /// Whether array-subscript elimination (Theorems 1–4) is enabled.
    #[must_use]
    pub fn array_analysis(self) -> bool {
        matches!(
            self,
            Variant::Array
                | Variant::ArrayInsert
                | Variant::ArrayOrder
                | Variant::AllPde
                | Variant::All
        )
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    /// The variant whose [`Variant::name`] is `s`.
    fn from_str(s: &str) -> Result<Variant, String> {
        Variant::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| format!("unknown variant `{s}`"))
    }
}

/// Full configuration for the sign-extension elimination pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SxeConfig {
    /// Target architecture (affects load extension behaviour).
    pub target: Target,
    /// Algorithm variant.
    pub variant: Variant,
    /// The guaranteed maximum array length (paper §3, Theorem 4). The
    /// Java language maximum `0x7fff_ffff` is always sound; smaller
    /// values assert an external guarantee about the program (Figure 10).
    pub max_array_len: u32,
    /// Extension widths to optimize, processed independently.
    pub widths: Vec<Width>,
    /// Use profile-collected block frequencies for order determination
    /// when available (otherwise the static estimate).
    pub use_profile: bool,
    /// Also eliminate provably redundant *zero* extensions (an extension
    /// beyond the paper's evaluation; see [`crate::zext`]).
    pub eliminate_zext: bool,
}

impl Default for SxeConfig {
    fn default() -> SxeConfig {
        SxeConfig {
            target: Target::Ia64,
            variant: Variant::All,
            max_array_len: 0x7fff_ffff,
            widths: vec![Width::W32, Width::W16, Width::W8],
            use_profile: false,
            eliminate_zext: false,
        }
    }
}

impl SxeConfig {
    /// A configuration for the given variant with all other fields at
    /// their defaults.
    #[must_use]
    pub fn for_variant(variant: Variant) -> SxeConfig {
        SxeConfig { variant, ..SxeConfig::default() }
    }
}

/// Static statistics from one elimination run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SxeStats {
    /// Extensions generated by the 64-bit conversion.
    pub generated: usize,
    /// Extensions inserted by phase (3)-1.
    pub inserted: usize,
    /// Dummy extensions inserted after array accesses.
    pub dummies: usize,
    /// Extension sites examined by the elimination.
    pub examined: usize,
    /// Extensions eliminated.
    pub eliminated: usize,
    /// Of those, eliminated via the array theorems.
    pub eliminated_via_array: usize,
}

impl SxeStats {
    /// Accumulate another function's statistics.
    pub fn merge(&mut self, o: SxeStats) {
        self.generated += o.generated;
        self.inserted += o.inserted;
        self.dummies += o.dummies;
        self.examined += o.examined;
        self.eliminated += o.eliminated;
        self.eliminated_via_array += o.eliminated_via_array;
    }

    /// Add these counts to a telemetry registry under the `sxe.*`
    /// labels — the Table 3 taxonomy: generated by conversion, inserted
    /// by phase (3)-1 (dummies separately), examined by the elimination,
    /// and eliminated split into the UD/DU walk versus the array
    /// theorems (`sxe.extends_eliminated.{total,udu,array}`).
    pub fn record_into(&self, registry: &mut sxe_telemetry::Registry) {
        registry.add("sxe.extends_generated", self.generated as u64);
        registry.add("sxe.extends_inserted", self.inserted as u64);
        registry.add("sxe.dummies_inserted", self.dummies as u64);
        registry.add("sxe.extends_examined", self.examined as u64);
        registry.add("sxe.extends_eliminated.total", self.eliminated as u64);
        registry.add(
            "sxe.extends_eliminated.udu",
            (self.eliminated - self.eliminated_via_array.min(self.eliminated)) as u64,
        );
        registry.add("sxe.extends_eliminated.array", self.eliminated_via_array as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_export_splits_the_elimination_taxonomy() {
        let stats = SxeStats {
            generated: 10,
            inserted: 4,
            dummies: 2,
            examined: 14,
            eliminated: 9,
            eliminated_via_array: 3,
        };
        let mut registry = sxe_telemetry::Registry::new();
        stats.record_into(&mut registry);
        assert_eq!(registry.counter("sxe.extends_generated"), 10);
        assert_eq!(registry.counter("sxe.extends_examined"), 14);
        assert_eq!(registry.counter("sxe.extends_eliminated.total"), 9);
        assert_eq!(
            registry.counter("sxe.extends_eliminated.udu")
                + registry.counter("sxe.extends_eliminated.array"),
            registry.counter("sxe.extends_eliminated.total"),
            "the taxonomy partitions the total"
        );
    }

    #[test]
    fn feature_matrix_matches_paper() {
        use Variant::*;
        // (variant, insert, order, array)
        let expect = [
            (BasicUdDu, false, false, false),
            (Insert, true, false, false),
            (Order, false, true, false),
            (InsertOrder, true, true, false),
            (Array, false, false, true),
            (ArrayInsert, true, false, true),
            (ArrayOrder, false, true, true),
            (AllPde, true, true, true),
            (All, true, true, true),
        ];
        for (v, ins, ord, arr) in expect {
            assert_eq!(v.insertion(), ins, "{v}");
            assert_eq!(v.order_determination(), ord, "{v}");
            assert_eq!(v.array_analysis(), arr, "{v}");
            assert!(v.uses_udu(), "{v}");
        }
        assert!(!Baseline.uses_udu());
        assert!(!GenUse.uses_udu());
        assert!(!FirstAlgorithm.uses_udu());
        assert!(GenUse.gen_use());
        assert!(FirstAlgorithm.first_algorithm());
        assert!(AllPde.pde_insertion());
        assert!(!All.pde_insertion());
    }

    #[test]
    fn twelve_variants() {
        assert_eq!(Variant::ALL.len(), 12);
        let labels: std::collections::BTreeSet<_> =
            Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 12, "labels are unique");
    }

    #[test]
    fn names_are_pinned_and_parse_back() {
        // `sxec --variant` values and `sxed` `variant=` headers: command
        // lines and clients already in use send exactly these.
        let names = [
            "baseline",
            "gen-use",
            "first",
            "basic",
            "insert",
            "order",
            "insert-order",
            "array",
            "array-insert",
            "array-order",
            "all-pde",
            "all",
        ];
        for (v, name) in Variant::ALL.into_iter().zip(names) {
            assert_eq!(v.name(), name);
            assert_eq!(name.parse::<Variant>(), Ok(v));
        }
        assert_eq!("bogus".parse::<Variant>(), Err("unknown variant `bogus`".to_string()));
        assert!("new algorithm (all)".parse::<Variant>().is_err(), "Display is not the name");
    }

    #[test]
    fn default_config_is_java_on_ia64() {
        let c = SxeConfig::default();
        assert_eq!(c.target, Target::Ia64);
        assert_eq!(c.max_array_len, 0x7fff_ffff);
        assert_eq!(c.variant, Variant::All);
    }
}
