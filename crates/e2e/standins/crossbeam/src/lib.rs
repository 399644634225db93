//! Empty offline stand-in: the workspace declares `crossbeam`, the library crates never call it.
