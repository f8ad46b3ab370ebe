//! Property tests for the JSON string path: whatever `escape_into` writes,
//! `parse_json` reads back exactly — multibyte UTF-8, quotes, backslashes
//! and control characters included — and a long literal parses in time
//! linear in its length.

use hetchol_core::json::{escape_into, parse_json, JsonValue};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// One character of a class the string path treats differently.
fn pick_char(class: u8, code: u32) -> char {
    let from =
        |lo: u32, hi: u32| char::from_u32(lo + code % (hi - lo)).expect("range holds scalars");
    match class {
        0 => from(0x20, 0x7f), // printable ASCII
        1 => '"',
        2 => '\\',
        3 => from(0, 0x20),           // control characters
        4 => from(0x80, 0x800),       // two-byte UTF-8
        5 => from(0x800, 0xd800),     // three-byte, below the surrogates
        6 => from(0xe000, 0x10000),   // three-byte, above them
        _ => from(0x10000, 0x110000), // four-byte (surrogate pairs in UTF-16)
    }
}

fn build(chars: &[(u8, u32)]) -> String {
    chars
        .iter()
        .map(|&(class, code)| pick_char(class, code))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `escape_into` → `parse_json` is the identity on strings.
    #[test]
    fn escaped_strings_round_trip_exactly(
        chars in prop::collection::vec((0u8..8, 0u32..0x110000), 0..64),
    ) {
        let s = build(&chars);
        let mut text = String::new();
        escape_into(&s, &mut text);
        prop_assert_eq!(parse_json(&text).map_err(|e| format!("{e}: {text:?}"))?, JsonValue::Str(s.clone()));
    }

    /// The same strings as object keys and array members, next to other
    /// values, survive a render → parse round trip.
    #[test]
    fn strings_inside_documents_round_trip(
        key in prop::collection::vec((0u8..8, 0u32..0x110000), 0..16),
        item in prop::collection::vec((0u8..8, 0u32..0x110000), 0..16),
        n in 0u32..1000,
    ) {
        let v = JsonValue::Obj(vec![(
            build(&key),
            JsonValue::Arr(vec![JsonValue::Str(build(&item)), JsonValue::num(n)]),
        )]);
        prop_assert_eq!(parse_json(&v.render())?, v);
    }
}

/// A string literal of about 1 MiB parses in well under the bound even
/// in a debug build; a parser that rescans the rest of the input per
/// character takes minutes on it.
#[test]
fn a_one_mebibyte_literal_parses_in_linear_time() {
    let unit = "{\"name\":\"POTRF é\",\"ts\":12}\n";
    let s = unit.repeat((1 << 20) / unit.len());
    let mut text = String::new();
    escape_into(&s, &mut text);
    assert!(text.len() > 1 << 20);
    let start = Instant::now();
    let parsed = parse_json(&text).expect("escaped literal parses");
    let took = start.elapsed();
    assert_eq!(parsed.as_str().expect("a string"), s);
    assert!(
        took < Duration::from_secs(5),
        "a {}-byte literal took {took:?} to parse",
        text.len()
    );
}
