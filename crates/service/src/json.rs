//! JSON value parsing for the service protocol and the on-disk bound
//! cache.
//!
//! The parser itself lives in [`xbound_core::jsonin`]; this module
//! re-exports it under the service's historical path. The writer half is
//! [`xbound_core::jsonout`]. Both sides reject non-finite numbers, so
//! parse → re-serialize stays the identity on bytes for every document
//! the workspace produces (the byte-identity contract).

pub use xbound_core::jsonin::Json;

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon parses untrusted request lines: an over-range exponent
    /// (`1e999` overflows `f64::from_str` to `+inf`) must be a parse
    /// error, not a silently non-finite knob value.
    #[test]
    fn service_parser_rejects_non_finite_numbers() {
        for bad in [
            r#"{"op": "analyze", "energy_rounds": 1e999}"#,
            r#"{"clock_hz": -1e999}"#,
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
    }
}
