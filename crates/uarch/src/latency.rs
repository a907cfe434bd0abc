//! Instruction-class execution latencies.

use simcore::InstGroup;
use telemetry::Json;

/// Maps an instruction group to its execution latency in cycles.
pub trait LatencyModel {
    /// Execution latency of `group`, in cycles.
    fn latency(&self, group: InstGroup) -> u64;

    /// Model name for reports.
    fn name(&self) -> &str;
}

/// Every instruction takes one cycle — the paper's ideal-CPI model (§4).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitLatency;

impl LatencyModel for UnitLatency {
    fn latency(&self, _group: InstGroup) -> u64 {
        1
    }
    fn name(&self) -> &str {
        "unit"
    }
}

/// A configurable latency table (the equivalent of SimEng's yaml
/// `Latency` blocks; serialisable so experiments can ship their configs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTable {
    /// Model name.
    pub name: String,
    /// Integer ALU (add/sub/move/address generation).
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// Shifts/rotates.
    pub shift: u64,
    /// Bitwise logic.
    pub logical: u64,
    /// Branches.
    pub branch: u64,
    /// Loads (L1 hit).
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// FP add/sub.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP fused multiply-add.
    pub fp_fma: u64,
    /// FP divide.
    pub fp_div: u64,
    /// FP square root.
    pub fp_sqrt: u64,
    /// FP compare.
    pub fp_cmp: u64,
    /// FP <-> int conversion.
    pub fp_cvt: u64,
    /// FP register moves.
    pub fp_move: u64,
    /// Atomics.
    pub atomic: u64,
    /// System instructions.
    pub system: u64,
}

impl LatencyModel for LatencyTable {
    fn latency(&self, group: InstGroup) -> u64 {
        match group {
            InstGroup::IntAlu => self.int_alu,
            InstGroup::IntMul => self.int_mul,
            InstGroup::IntDiv => self.int_div,
            InstGroup::Shift => self.shift,
            InstGroup::Logical => self.logical,
            InstGroup::Branch => self.branch,
            InstGroup::Load => self.load,
            InstGroup::Store => self.store,
            InstGroup::FpAdd => self.fp_add,
            InstGroup::FpMul => self.fp_mul,
            InstGroup::FpFma => self.fp_fma,
            InstGroup::FpDiv => self.fp_div,
            InstGroup::FpSqrt => self.fp_sqrt,
            InstGroup::FpCmp => self.fp_cmp,
            InstGroup::FpCvt => self.fp_cvt,
            InstGroup::FpMove => self.fp_move,
            InstGroup::Atomic => self.atomic,
            InstGroup::System => self.system,
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// ThunderX2 (Vulcan)-derived latencies, after SimEng's `tx2` core model —
/// the table the paper's scaled critical path uses for both ISAs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tx2Latency;

impl Tx2Latency {
    /// The underlying table (for serialisation / inspection).
    pub fn table() -> LatencyTable {
        LatencyTable {
            name: "tx2".into(),
            int_alu: 1,
            int_mul: 5,
            int_div: 23,
            shift: 1,
            logical: 1,
            branch: 1,
            load: 4,
            store: 1,
            fp_add: 6,
            fp_mul: 6,
            fp_fma: 6,
            fp_div: 23,
            fp_sqrt: 31,
            fp_cmp: 5,
            fp_cvt: 7,
            fp_move: 5,
            atomic: 4,
            system: 1,
        }
    }
}

impl LatencyModel for Tx2Latency {
    fn latency(&self, group: InstGroup) -> u64 {
        Self::table().latency(group)
    }
    fn name(&self) -> &str {
        "tx2"
    }
}

/// Fujitsu A64FX-derived latencies, after SimEng's `a64fx` core model —
/// the paper names it as one of SimEng's validated cores. Useful as an
/// alternative scaling model for sensitivity studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct A64fxLatency;

impl A64fxLatency {
    /// The underlying table (for serialisation / inspection).
    pub fn table() -> LatencyTable {
        LatencyTable {
            name: "a64fx".into(),
            int_alu: 1,
            int_mul: 5,
            int_div: 41,
            shift: 1,
            logical: 1,
            branch: 1,
            load: 5,
            store: 1,
            fp_add: 9,
            fp_mul: 9,
            fp_fma: 9,
            fp_div: 43,
            fp_sqrt: 52,
            fp_cmp: 4,
            fp_cvt: 9,
            fp_move: 4,
            atomic: 5,
            system: 1,
        }
    }
}

impl LatencyModel for A64fxLatency {
    fn latency(&self, group: InstGroup) -> u64 {
        Self::table().latency(group)
    }
    fn name(&self) -> &str {
        "a64fx"
    }
}

/// The numeric fields of [`LatencyTable`] in declaration order; expands
/// `$m!(field, ...)` so the JSON code never drifts from the struct.
macro_rules! latency_fields {
    ($m:ident) => {
        $m!(
            int_alu, int_mul, int_div, shift, logical, branch, load, store, fp_add, fp_mul, fp_fma,
            fp_div, fp_sqrt, fp_cmp, fp_cvt, fp_move, atomic, system
        )
    };
}

impl LatencyTable {
    /// Serialize to the flat SimEng-style JSON object (`{"name": ...,
    /// "int_alu": 1, ...}`) the `configs/` files use.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("name".to_string(), Json::Str(self.name.clone()))];
        macro_rules! put {
            ($($f:ident),*) => {
                $( members.push((stringify!($f).to_string(), Json::Num(self.$f as f64))); )*
            };
        }
        latency_fields!(put);
        Json::Obj(members)
    }

    /// Parse the object form written by [`LatencyTable::to_json`]; every
    /// field must be present.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let field = |name: &str| -> Result<u64, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("latency table: missing or non-integer field {name:?}"))
        };
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("latency table: missing \"name\"")?
            .to_string();
        macro_rules! read {
            ($($f:ident),*) => {
                Ok(LatencyTable { name, $( $f: field(stringify!($f))?, )* })
            };
        }
        latency_fields!(read)
    }

    /// Load a latency table from a SimEng-style JSON config file.
    pub fn from_json_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
        let j = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
        Self::from_json(&j).map_err(|e| format!("{path:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_always_one() {
        for g in InstGroup::ALL {
            assert_eq!(UnitLatency.latency(g), 1);
        }
    }

    #[test]
    fn tx2_values_sane() {
        let m = Tx2Latency;
        assert_eq!(m.latency(InstGroup::IntAlu), 1);
        assert_eq!(m.latency(InstGroup::FpAdd), 6);
        assert_eq!(m.latency(InstGroup::FpSqrt), 31);
        assert!(m.latency(InstGroup::FpDiv) > m.latency(InstGroup::FpMul));
        for g in InstGroup::ALL {
            assert!(m.latency(g) >= 1, "{g:?} latency must be positive");
        }
    }

    #[test]
    fn a64fx_slower_fp_than_tx2() {
        assert!(A64fxLatency.latency(InstGroup::FpAdd) > Tx2Latency.latency(InstGroup::FpAdd));
        assert!(A64fxLatency.latency(InstGroup::FpSqrt) > Tx2Latency.latency(InstGroup::FpSqrt));
    }

    #[test]
    fn table_round_trips_through_json() {
        let t = Tx2Latency::table();
        let json = t.to_json().pretty();
        let back = LatencyTable::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let j = Json::parse(r#"{"name": "x", "int_alu": 1}"#).unwrap();
        let err = LatencyTable::from_json(&j).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
