//! Fixture: `dead_pub` over a miniature workspace. The comment above each
//! item says whether the rule fires on it.

// No other file names them: fires, for every item kind.
pub fn orphan_fn() {}
pub const fn orphan_const_fn() {}
pub unsafe extern "C" fn orphan_extern_fn() {}
pub const ORPHAN_CONST: u32 = 0;
pub static mut ORPHAN_STATIC: u32 = 0;

// Only this file's own code names it: fires.
pub const OWN_FILE_ONLY: u32 = 1;

// Named by another library file: silent.
pub fn used() -> u32 {
    OWN_FILE_ONLY
}

// Only tests name it, here and in tests/: fires.
pub static TESTS_ONLY: u32 = 2;

// Named only from a `src/bin` file: silent.
pub fn from_bin() {}

// Named only from an example: silent.
pub fn from_example() {}

// Named only from `perfbench/src`: silent.
pub fn from_perfbench() {}

// Waived, naming the test that needs it: silent.
// tidy:allow(dead_pub): tests/it.rs holds the library to this reference
pub fn waived() {}

// Waived although another file names it: the waiver is a finding.
// tidy:allow(dead_pub): stale, crates/app now calls it
pub fn stale_waiver() {}

// Scoped visibility and types are exempt: silent.
pub(crate) fn scoped() {}
pub struct Exempt;

// Another file has an unrelated local of the same name: silent, although
// nothing calls it (matching is by name).
pub fn collision() {}

// A re-export is not a caller: `reexported_only` fires in its own file.
mod reexported;
pub use reexported::reexported_only;

#[cfg(test)]
mod tests {
    // Test code is exempt, and names nothing on other items' behalf.
    pub fn in_test_region() {}

    #[test]
    fn reads() {
        assert_eq!(super::TESTS_ONLY, 2);
    }
}
