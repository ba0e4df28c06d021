//! The three gate families the paper compares (Table 1 columns).

use device::TechParams;

/// A gate family: library content plus the technology implementing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateFamily {
    /// The 46-gate static ambipolar transmission-gate library of DATE'09
    /// (generalized gates with embedded XOR inputs, dual-rail signals).
    CntfetGeneralized,
    /// Conventional gate set implemented with MOSFET-like (unipolar
    /// configured) CNTFETs.
    CntfetConventional,
    /// Conventional gate set implemented in 32 nm bulk CMOS.
    Cmos,
}

impl GateFamily {
    /// All families in Table-1 column order.
    pub const ALL: [GateFamily; 3] = [
        GateFamily::CntfetGeneralized,
        GateFamily::CntfetConventional,
        GateFamily::Cmos,
    ];

    /// The technology point implementing this family.
    pub fn tech(self) -> TechParams {
        match self {
            GateFamily::CntfetGeneralized | GateFamily::CntfetConventional => {
                TechParams::cntfet_32nm()
            }
            GateFamily::Cmos => TechParams::cmos_32nm(),
        }
    }

    /// Whether complemented input literals are free (dual-rail convention of
    /// the ambipolar library) or must be realized with inverters.
    pub fn free_input_negation(self) -> bool {
        matches!(self, GateFamily::CntfetGeneralized)
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            GateFamily::CntfetGeneralized => "CNTFET generalized",
            GateFamily::CntfetConventional => "CNTFET conventional",
            GateFamily::Cmos => "CMOS",
        }
    }
}

impl std::fmt::Display for GateFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::TechKind;

    #[test]
    fn tech_assignment() {
        assert_eq!(GateFamily::CntfetGeneralized.tech().kind, TechKind::Cntfet);
        assert_eq!(GateFamily::CntfetConventional.tech().kind, TechKind::Cntfet);
        assert_eq!(GateFamily::Cmos.tech().kind, TechKind::Cmos);
    }

    #[test]
    fn only_generalized_family_has_free_negation() {
        assert!(GateFamily::CntfetGeneralized.free_input_negation());
        assert!(!GateFamily::CntfetConventional.free_input_negation());
        assert!(!GateFamily::Cmos.free_input_negation());
    }
}
