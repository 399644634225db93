//! Empty offline stand-in: the workspace declares `bytes`, the library crates never call it.
