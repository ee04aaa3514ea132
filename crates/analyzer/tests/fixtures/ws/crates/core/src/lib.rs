//! Seeded violations for the analyzer corpus test.

pub fn bad_float_eq(x: f64) -> bool {
    x == 0.0
}

pub fn waived_float_eq(x: f64) -> bool {
    x == 0.0 // pta-lint: allow(float-eq) — exact sentinel comparison
}

// pta-lint: allow(float-eq) — nothing here actually compares floats
pub fn innocent() {}

// pta-lint: allow(bogus

pub fn fires(i: usize) {
    pta_failpoints::fail_point!("a.site");
    pta_failpoints::fail_point!(format!("fan.out.{}", i));
    pta_failpoints::fail_point!("rogue.site");
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let x: f64 = 0.0;
        assert!(x == 0.0);
    }
}
