//! Empty offline stand-in: the workspace declares `criterion`, the library crates never call it.
