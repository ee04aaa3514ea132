//! Seeded violation inside a nested workspace: never reported.

// pta-lint: allow(bogus
pub fn outside() {}
