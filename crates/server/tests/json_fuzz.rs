//! Fuzz-style corpus tests of the workspace's one JSON implementation
//! (`slade_json`), driven by the deterministic in-tree `rand`
//! shim:
//!
//! * **no panics** — the parser must reject, never crash, on thousands of
//!   seeded mutations of valid documents (truncations, byte flips,
//!   insertions, duplications, deep nesting wraps, pathological numbers);
//! * **exact round-trips** — every document the parser *accepts* must
//!   satisfy `parse(to_string(x)) == x`, with numbers compared by bit
//!   pattern (signed zero included) and the serialized form stable under a
//!   second round trip.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slade_json::{self as json, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Structural equality with numbers by bit pattern (plain `==` would let
/// `-0.0 == 0.0` mask a lost sign bit).
fn bits_equal(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Number(x), Json::Number(y)) => x.to_bits() == y.to_bits(),
        (Json::Array(xs), Json::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bits_equal(x, y))
        }
        (Json::Object(xs), Json::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && bits_equal(va, vb))
        }
        _ => a == b,
    }
}

/// Asserts the full round-trip contract on an accepted document.
fn assert_round_trips(value: &Json, origin: &str) {
    let printed = value.to_string();
    let back = json::parse(&printed)
        .unwrap_or_else(|e| panic!("serialized form of {origin} rejected: {e}\n{printed}"));
    assert!(
        bits_equal(value, &back),
        "{origin} did not round-trip bit-exactly:\n  value: {value}\n  back:  {back}"
    );
    // The printed form is a fixed point: printing the re-parse changes
    // nothing.
    assert_eq!(back.to_string(), printed, "{origin} print not stable");
}

/// Hand-picked corpus of valid documents covering every grammar corner the
/// protocol exercises (and several it doesn't).
fn corpus() -> Vec<String> {
    vec![
        "{}".to_string(),
        "[]".to_string(),
        "null".to_string(),
        "true".to_string(),
        "-0".to_string(),
        "0.30000000000000004".to_string(),
        "1e308".to_string(),
        "1e-999".to_string(),
        "-1.7976931348623157e308".to_string(),
        "9007199254740991".to_string(),
        r#""""#.to_string(),
        r#""a\nb\t\"c\"\\d\u00e9""#.to_string(),
        r#""π ≠ \u03c0? yes it is""#.to_string(),
        r#"[1,-2.5,"x",null,true,false,[[]],{}]"#.to_string(),
        r#"{"algorithm":"opq-based","tasks":100,"threshold":0.95,"bins":[[1,0.9,0.1],[3,0.8,0.24]],"seed":7}"#
            .to_string(),
        r#"{"op":"resubmit","id":"w","delta":{"set_thresholds":[[0,0.9],[2,0.7]]},"seq":"r-1"}"#
            .to_string(),
        r#"{"op":"batch","requests":[{"tasks":6},{"algorithm":"greedy","tasks":3}],"seq":0}"#
            .to_string(),
        format!("{}0{}", "[".repeat(120), "]".repeat(120)),
        r#"{"a":{"a":{"a":{"a":1}}},"b":[{"a":2},{"a":3}]}"#.to_string(),
        r#"{"cost":0.6799999999999999,"feasible":true,"seq":18446744073709551615}"#.to_string(),
    ]
}

/// A random JSON value tree, with numbers drawn from the awkward corners
/// (integers at the f64 edge, tiny/huge magnitudes, signed zero).
fn random_value(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth >= 5 {
        rng.random_range(0..4u32) // leaves only
    } else {
        rng.random_range(0..6u32)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.random()),
        2 => Json::Number(random_number(rng)),
        3 => Json::String(random_string(rng)),
        4 => Json::Array(
            (0..rng.random_range(0..5usize))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => {
            let mut members: Vec<(String, Json)> = Vec::new();
            for _ in 0..rng.random_range(0..5usize) {
                let key = random_string(rng);
                if members.iter().all(|(k, _)| *k != key) {
                    members.push((key, random_value(rng, depth + 1)));
                }
            }
            Json::Object(members)
        }
    }
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..6u32) {
        0 => f64::from(rng.random::<u32>()) - f64::from(u32::MAX) / 2.0,
        1 => rng.random::<f64>(),
        2 => -0.0,
        3 => 9.007_199_254_740_991e15,
        4 => rng.random::<f64>() * 1e-300,
        _ => (rng.random::<f64>() - 0.5) * 1e300,
    }
}

fn random_string(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'b', 'z', '0', '9', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', 'π', '🦀', ':', ',',
    ];
    (0..rng.random_range(0..8usize))
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

/// One seeded mutation of a document's bytes. The result may or may not be
/// valid UTF-8 / valid JSON — the parser must classify, not crash.
fn mutate(rng: &mut StdRng, doc: &str) -> Option<String> {
    const INTERESTING: &[u8] = b"{}[]\",:\\0123456789eE+-. truefalsnu\n\r\t\x00\x7f\xff";
    let mut bytes = doc.as_bytes().to_vec();
    match rng.random_range(0..6u32) {
        // Truncate at a random position.
        0 => {
            if bytes.is_empty() {
                return None;
            }
            let at = rng.random_range(0..bytes.len());
            bytes.truncate(at);
        }
        // Flip one random byte to an interesting value.
        1 => {
            if bytes.is_empty() {
                return None;
            }
            let at = rng.random_range(0..bytes.len());
            bytes[at] = INTERESTING[rng.random_range(0..INTERESTING.len())];
        }
        // Insert an interesting byte.
        2 => {
            let at = rng.random_range(0..bytes.len() + 1);
            bytes.insert(at, INTERESTING[rng.random_range(0..INTERESTING.len())]);
        }
        // Duplicate a random slice in place.
        3 => {
            if bytes.is_empty() {
                return None;
            }
            let start = rng.random_range(0..bytes.len());
            let end = rng.random_range(start..bytes.len());
            let slice: Vec<u8> = bytes[start..=end.min(bytes.len() - 1)].to_vec();
            let at = rng.random_range(0..bytes.len() + 1);
            for (i, b) in slice.into_iter().enumerate() {
                bytes.insert(at + i, b);
            }
        }
        // Wrap in many array levels (sometimes past MAX_DEPTH).
        4 => {
            let levels = rng.random_range(1..300usize);
            let mut wrapped = "[".repeat(levels).into_bytes();
            wrapped.extend_from_slice(&bytes);
            wrapped.extend_from_slice("]".repeat(levels).as_bytes());
            bytes = wrapped;
        }
        // Splice in a pathological number token.
        _ => {
            const NUMBERS: [&str; 8] = [
                "1e999",
                "-1e999",
                "1e-999",
                "-0",
                "0.0000000000000000000000001",
                "1e+",
                "-",
                "9999999999999999999999999999",
            ];
            let token = NUMBERS[rng.random_range(0..NUMBERS.len())];
            let at = rng.random_range(0..bytes.len() + 1);
            for (i, b) in token.bytes().enumerate() {
                bytes.insert(at + i, b);
            }
        }
    }
    // parse() takes &str; non-UTF-8 mutants can't reach it by construction.
    String::from_utf8(bytes).ok()
}

#[test]
fn corpus_documents_round_trip_exactly() {
    for doc in corpus() {
        let value = json::parse(&doc).unwrap_or_else(|e| panic!("corpus doc rejected: {e}\n{doc}"));
        assert_round_trips(&value, &doc);
    }
    // Signed zero specifically: the sign bit survives the trip.
    let Json::Number(zero) = json::parse("-0").unwrap() else {
        panic!("-0 must parse as a number");
    };
    assert!(zero.is_sign_negative(), "-0 lost its sign bit");
}

#[test]
fn randomly_generated_values_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for i in 0..500 {
        let value = random_value(&mut rng, 0);
        assert_round_trips(&value, &format!("random value {i}"));
    }
}

#[test]
fn seeded_mutations_never_panic_and_accepted_mutants_round_trip() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(2019);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for round in 0..4_000 {
        let base = &corpus[rng.random_range(0..corpus.len())];
        // Mutations stack: later rounds mutate already-mutated documents.
        let mut doc = base.clone();
        for _ in 0..rng.random_range(1..4u32) {
            match mutate(&mut rng, &doc) {
                Some(next) => doc = next,
                None => break,
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| json::parse(&doc)));
        match outcome {
            Err(_) => panic!("parser panicked on round {round}: {doc:?}"),
            Ok(Ok(value)) => {
                accepted += 1;
                assert_round_trips(&value, &format!("mutant (round {round})"));
            }
            Ok(Err(error)) => {
                rejected += 1;
                assert!(
                    !error.is_empty(),
                    "rejections must carry a message: {doc:?}"
                );
            }
        }
    }
    // The mutator must exercise both sides of the grammar meaningfully.
    assert!(accepted >= 100, "only {accepted} mutants accepted");
    assert!(rejected >= 1_000, "only {rejected} mutants rejected");
}
