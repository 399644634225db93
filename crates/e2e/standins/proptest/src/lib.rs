//! Empty offline stand-in: the workspace declares `proptest`, the library crates never call it.
