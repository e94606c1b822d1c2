//! Differential suite for tcp-json: [`tcp_json::parse`],
//! [`tcp_json::to_string`] and [`tcp_json::escape`] against the parser
//! and writer they replaced, which decoded strings one code point at a
//! time and escaped through a temporary `String` per value. That code is
//! kept verbatim in `tests/reference/mod.rs`. The sweep store checksums
//! a record by re-serializing its parsed payload, so both sides must
//! agree on every `Ok` value, on every `ParseError` (offset and
//! message), and on every byte the writer emits.
//!
//! Documents are drawn from a seeded `SplitMix64`: every escape, raw
//! control bytes, 1- to 4-byte UTF-8, `\u` escapes (surrogates
//! included), empty strings, numbers and nesting, in canonical and in
//! hand-written form. Every prefix of each document and random
//! single-byte mutations of it are parsed too. A failure names its seed.

use tcp_json::Json;
use tcp_mem::SplitMix64;

/// Generated values per test.
const CASES: u64 = 1000;

/// Mutations tried per document.
const MUTATIONS: usize = 48;

mod reference;

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    rng.next_below(bound as u64) as usize
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[below(rng, items.len())]
}

/// A code point from a class chosen at random: ASCII text, the
/// characters JSON escapes, control bytes, or 2-, 3- and 4-byte UTF-8.
fn gen_char(rng: &mut SplitMix64) -> char {
    let code = match below(rng, 10) {
        0..=2 => pick(rng, b"abcXYZ019 _-.:{}[],").into(),
        3 => pick(rng, b"\"\\/").into(),
        4 => below(rng, 0x20) as u32,
        5 => pick(rng, &[0x7f, 0xa0, 0xfeff, 0xfffd, 0x2028]),
        6 => 0x80 + below(rng, 0x800 - 0x80) as u32,
        // The 3-byte range without the surrogates, which are not chars.
        7 if below(rng, 2) == 0 => 0x800 + below(rng, 0xd800 - 0x800) as u32,
        7 => 0xe000 + below(rng, 0x1_0000 - 0xe000) as u32,
        _ => 0x1_0000 + below(rng, 0x11_0000 - 0x1_0000) as u32,
    };
    char::from_u32(code).expect("generated code points skip the surrogates")
}

/// A string of up to 7 code points, empty included.
fn gen_string(rng: &mut SplitMix64) -> String {
    (0..below(rng, 8)).map(|_| gen_char(rng)).collect()
}

fn gen_number(rng: &mut SplitMix64) -> f64 {
    match below(rng, 6) {
        0 => below(rng, 1000) as f64,
        1 => -(below(rng, 1 << 20) as f64),
        2 => below(rng, 1 << 30) as f64 / 1024.0,
        3 => pick(
            rng,
            &[0.0, -0.0, 5e-324, 1e300, -2.5e-7, 9007199254740993.0],
        ),
        _ => f64::from_bits(rng.next_u64() >> 2),
    }
}

fn gen_value(rng: &mut SplitMix64, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match below(rng, kinds) {
        0 => [Json::Null, Json::Bool(true), Json::Bool(false)][below(rng, 3)].clone(),
        1 => Json::Num(gen_number(rng)),
        2 | 3 => Json::Str(gen_string(rng)),
        4 => Json::Arr(
            (0..below(rng, 4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..below(rng, 4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn ws(rng: &mut SplitMix64, out: &mut String) {
    for _ in 0..below(rng, 3) {
        out.push(pick(rng, &[' ', '\t', '\n', '\r']));
    }
}

fn push_u_escape(rng: &mut SplitMix64, unit: u32, out: &mut String) {
    let hex = format!("{unit:04x}");
    out.push_str("\\u");
    out.push_str(&if below(rng, 2) == 0 {
        hex
    } else {
        hex.to_uppercase()
    });
}

/// `s` as a string literal, each code point written raw, with its short
/// escape, or as a `\u` escape (a surrogate pair above U+FFFF).
fn render_string(rng: &mut SplitMix64, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        match (below(rng, 3), short) {
            (0, Some(esc)) => out.push_str(esc),
            (1, _) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    push_u_escape(rng, u32::from(*unit), out);
                }
            }
            _ if c == '"' || c == '\\' => out.push_str(short.unwrap_or_default()),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// `v` written by hand: whitespace between tokens, every string escape
/// form, and numbers in plain or exponent notation.
fn render(rng: &mut SplitMix64, v: &Json, out: &mut String) {
    ws(rng, out);
    match v {
        Json::Null | Json::Bool(_) => out.push_str(&reference::to_string(v)),
        Json::Num(n) => out.push_str(&match below(rng, 3) {
            0 => format!("{n}"),
            1 => format!("{n:e}"),
            _ => format!("{n:E}"),
        }),
        Json::Str(s) => render_string(rng, s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (key, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                render_string(rng, key, out);
                ws(rng, out);
                out.push(':');
                render(rng, val, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// `parse` agrees with the reference on `text`: the same value (down to
/// the sign of zero) or the same error, and the same canonical output.
fn check_parse(seed: u64, text: &str) {
    let got = tcp_json::parse(text);
    let want = reference::parse(text);
    match (&got, &want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "seed {seed}: parse({text:?}) disagrees with the reference"
            );
            assert_eq!(
                tcp_json::to_string(a),
                reference::to_string(b),
                "seed {seed}: to_string of parse({text:?}) disagrees with the reference"
            );
        }
        _ => assert_eq!(
            got, want,
            "seed {seed}: parse({text:?}) disagrees with the reference"
        ),
    }
}

/// Every prefix of `text` that is a `&str`, and random single-byte
/// mutations of it that stay valid UTF-8.
fn check_damaged(seed: u64, rng: &mut SplitMix64, text: &str) {
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        check_parse(seed, &text[..end]);
    }
    let bytes = text.as_bytes();
    for _ in 0..MUTATIONS {
        if bytes.is_empty() {
            break;
        }
        let mut hurt = bytes.to_vec();
        hurt[below(rng, bytes.len())] = if below(rng, 4) == 0 {
            rng.next_u64() as u8
        } else {
            pick(rng, b"\"\\{}[]:,0-+.eEuU/bfnrtlsa \x00\x1f\x7f")
        };
        if let Ok(hurt) = std::str::from_utf8(&hurt) {
            check_parse(seed, hurt);
        }
    }
}

#[test]
fn writer_matches_the_reference_byte_for_byte() {
    for case in 0..CASES {
        let seed = 0x6a73_6f6e_0000 + case;
        let rng = &mut SplitMix64::new(seed);
        let s = gen_string(rng);
        assert_eq!(
            tcp_json::escape(&s),
            reference::escape(&s),
            "seed {seed}: escape({s:?}) disagrees with the reference"
        );
        let v = gen_value(rng, 3);
        assert_eq!(
            tcp_json::to_string(&v),
            reference::to_string(&v),
            "seed {seed}: to_string({v:?}) disagrees with the reference"
        );
    }
}

#[test]
fn every_control_byte_and_escape_is_written_as_the_reference_writes_it() {
    let all: String = (0u32..0x80).filter_map(char::from_u32).collect();
    assert_eq!(tcp_json::escape(&all), reference::escape(&all));
    assert_eq!(tcp_json::escape(""), "");
}

#[test]
fn parser_matches_the_reference_on_canonical_text_and_its_damage() {
    for case in 0..CASES {
        let seed = 0x7061_7273_0000 + case;
        let rng = &mut SplitMix64::new(seed);
        let text = reference::to_string(&gen_value(rng, 3));
        check_parse(seed, &text);
        check_damaged(seed, rng, &text);
    }
}

#[test]
fn parser_matches_the_reference_on_hand_written_text_and_its_damage() {
    for case in 0..CASES {
        let seed = 0x6861_6e64_0000 + case;
        let rng = &mut SplitMix64::new(seed);
        let v = gen_value(rng, 3);
        let mut text = String::new();
        render(rng, &v, &mut text);
        check_parse(seed, &text);
        check_damaged(seed, rng, &text);
    }
}

#[test]
fn parser_matches_the_reference_on_edge_documents() {
    for text in [
        "",
        " ",
        "\"",
        "\"\\",
        "\"\\u",
        "\"\\u12",
        "\"\\u12\"",
        "\"\\uZZZZ\"",
        "\"\\u+0e9\"",
        "\"\\u00\u{e9}\"",
        "\"\\\u{e9}\"",
        "\"\\ud83d\\ude00\"",
        "\"raw \u{1} \u{1f} \u{7f}\"",
        "\"\u{10ffff}\"",
        "[1,]",
        "{\"a\"",
        "{\"a\":1,}",
        "tru",
        "-",
        "1e",
        "01",
        "1 2",
    ] {
        check_parse(0, text);
    }
}
