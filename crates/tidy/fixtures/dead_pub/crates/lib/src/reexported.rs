//! Fixture: an item that only its crate root's `pub use` names fires.

pub fn reexported_only() {}
