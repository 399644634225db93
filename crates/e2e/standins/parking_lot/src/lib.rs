//! Empty offline stand-in: the workspace declares `parking_lot`, the library crates never call it.
