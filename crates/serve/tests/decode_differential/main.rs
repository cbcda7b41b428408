//! Differential test of the one-pass frame decoder against the decoder it
//! replaced (text parsed into a `Value` tree, then read with
//! `from_value`), kept in [`reference`].
//!
//! Request frames, response frames and registry snapshots — random ones,
//! every pinned wire line, and hostile mutations of both (truncations,
//! stray bytes, duplicate keys, an alias ahead of its name, unknown keys,
//! integers spelled as floats, 2^64 in integer fields, nesting at and past
//! the recursion limit) — must be accepted by both decoders or by
//! neither, with the same error text, and decode to equal values. The
//! only values allowed to differ are integers above 2^53, which the
//! reference rounds through an `f64`. Mutations that cannot change a
//! value (a later duplicate key, an alias ahead of its name, an unknown
//! key, `7.0` for `7`, nesting within the limit) must decode to exactly
//! what the unmutated line decodes to.

mod reference;

use dot_core::controller::{ControllerConfig, TraceStep};
use dot_dbms::Layout;
use dot_serve::framing::parse_request;
use dot_serve::protocol::{
    DbSpec, PoolSpec, ProblemSpec, ProtocolError, Request, RequestFrame, Response, ResponseFrame,
};
use dot_serve::registry::RegistrySnapshot;
use dot_storage::ClassId;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;
use std::sync::OnceLock;

fn golden_lines() -> Vec<String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/wire_compact.jsonl"
    );
    std::fs::read_to_string(path)
        .expect("committed compact golden")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// `line`'s number tokens (outside strings), as byte ranges.
fn number_tokens(line: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = line.as_bytes();
    let mut tokens = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || matches!(bytes[i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                i += 1;
            }
            tokens.push(start..i);
        } else {
            i += 1;
        }
    }
    tokens
}

/// Whether `line` holds an integer token the reference rounds.
fn has_wide_integer(line: &str) -> bool {
    number_tokens(line).into_iter().any(|r| {
        line[r]
            .parse::<i128>()
            .is_ok_and(|n| n.unsigned_abs() > 1 << 53)
    })
}

/// `v` as the reference holds it: every integer rounded to an `f64`.
fn rounded(v: Value) -> Value {
    match v {
        Value::Integer(n) => Value::Number(n as f64),
        Value::Array(items) => Value::Array(items.into_iter().map(rounded).collect()),
        Value::Object(entries) => {
            Value::Object(entries.into_iter().map(|(k, v)| (k, rounded(v))).collect())
        }
        other => other,
    }
}

/// Both decoders on `line` as a `T`: the same acceptance, the same error
/// text, equal values (floats by their bits, through `Debug`) unless
/// `line` holds integers the reference rounds — then equal once the new
/// value's integers are rounded the same way. Answers the new decoder's
/// result.
fn agree<T: Serialize + Deserialize + Debug>(line: &str) -> Result<T, String> {
    let new = serde_json::from_str::<T>(line).map_err(|e| e.to_string());
    let old = reference::decode::<T>(line);
    match (&new, &old) {
        (Ok(n), Ok(o)) => {
            let (n_text, o_text) = (format!("{n:?}"), format!("{o:?}"));
            if n_text != o_text {
                assert!(has_wide_integer(line), "decoders disagree on {line}");
                let n_rounded = T::from_value(&rounded(n.to_value())).expect("rounded re-read");
                assert_eq!(format!("{n_rounded:?}"), o_text, "on {line}");
            }
        }
        (Err(n), Err(o)) => assert_eq!(n, o, "error texts differ on {line}"),
        _ => panic!(
            "one decoder accepts what the other rejects on {line}:\n new: {new:?}\n old: {:?}",
            old.as_ref().map(|_| "accepted")
        ),
    }
    new
}

/// [`agree`] for all three frame types, plus `parse_request`'s one-pass
/// request decode against the derived one.
fn agree_all(line: &str) -> [Result<String, String>; 3] {
    let request = agree::<RequestFrame>(line);
    match (parse_request(line), &request) {
        (Ok(frame), Ok(want)) => assert_eq!(&frame, want, "on {line}"),
        (Err(reject), Err(want)) => match reject.response {
            Response::Error {
                error: ProtocolError::Malformed { reason },
            } => assert_eq!(&reason, want, "on {line}"),
            other => panic!("{other:?}"),
        },
        (got, _) => panic!("parse_request disagrees on {line}: {got:?}"),
    }
    [
        shown(request),
        shown(agree::<ResponseFrame>(line)),
        shown(agree::<RegistrySnapshot>(line)),
    ]
}

fn shown<T: Debug>(decoded: Result<T, String>) -> Result<String, String> {
    decoded.map(|v| format!("{v:?}"))
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn pick<T: Clone>(rng: &mut TestRng, from: &[T]) -> T {
    from[below(rng, from.len())].clone()
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    rng.next_u64() % one_in == 0
}

fn text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 10] = ["a", "box2", " ", "\"", "\\", "/", "\n", "\u{1}", "é", "😀"];
    (0..rng.next_u64() % 4)
        .map(|_| pick(rng, &PIECES))
        .collect()
}

fn integer(rng: &mut TestRng) -> i128 {
    const WIDE: [i128; 8] = [
        1 << 53,
        (1 << 53) + 1,
        9_000_000_000_000_000,
        u64::MAX as i128,
        u64::MAX as i128 - 1,
        i64::MAX as i128,
        i64::MIN as i128,
        -1,
    ];
    match rng.next_u64() % 10 {
        0 => pick(rng, &WIDE),
        _ => (rng.next_u64() % 1000) as i128,
    }
}

fn float(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 6] = [0.0, -0.0, 0.5, 1.0e-7, 5.0e-324, 1.0e300];
    match rng.next_u64() % 3 {
        0 => pick(rng, &EDGES),
        1 => f64::from_bits(rng.next_u64()),
        _ => rng.next_f64() * 2.0 - 0.5,
    }
}

/// Request frames of every variant, with an inline pool and database,
/// a deployed layout and controller knobs among them.
fn request_bases() -> Vec<Value> {
    let (schema, workload) = dot_core::advisor::presets::database("tpcc:2").expect("tpcc preset");
    let inline = ProblemSpec {
        pool: PoolSpec::Custom(dot_storage::catalog::box2()),
        database: DbSpec::Custom { schema, workload },
        sla: 0.5,
        engine: Some("oltp".to_owned()),
        refinements: Some(2),
    };
    let preset = ProblemSpec {
        pool: PoolSpec::Name("box1".to_owned()),
        database: DbSpec::Preset("tpch:1:original".to_owned()),
        sla: 0.25,
        engine: None,
        refinements: None,
    };
    let requests = [
        Request::Hello { version: 1 },
        Request::Provision {
            problem: preset.clone(),
            solver: Some("es".to_owned()),
        },
        Request::AttachTenant {
            name: Some("acme".to_owned()),
            problem: inline,
            deployed: Some(Layout::from_assignment([0, 1, 2, 1].map(ClassId).to_vec())),
            controller: Some(ControllerConfig::default()),
        },
        Request::AttachTenant {
            name: None,
            problem: preset,
            deployed: None,
            controller: None,
        },
        Request::Observe {
            tenant: 3,
            step: TraceStep {
                shift: Some(0.05),
                scale: Some(1.25),
                phase: Some("analytical".to_owned()),
                repeat: Some(4),
            },
        },
        Request::Observe {
            tenant: 1,
            step: TraceStep::default(),
        },
        Request::DetachTenant { tenant: 9 },
        Request::Stats,
        Request::Shutdown,
    ];
    requests
        .into_iter()
        .enumerate()
        .map(|(id, request)| {
            RequestFrame {
                id: id as u64,
                request,
            }
            .to_value()
        })
        .collect()
}

/// What every case starts from, in four classes drawn from equally:
/// request frames, and the pinned wire lines that are response frames,
/// registry snapshots, or raw values.
fn bases() -> &'static [Vec<Value>; 4] {
    static BASES: OnceLock<[Vec<Value>; 4]> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut bases = [request_bases(), Vec::new(), Vec::new(), Vec::new()];
        for line in golden_lines() {
            let class = if serde_json::from_str::<ResponseFrame>(&line).is_ok() {
                1
            } else if serde_json::from_str::<RegistrySnapshot>(&line).is_ok() {
                2
            } else {
                3
            };
            bases[class].push(serde_json::from_str(&line).expect("golden line parses"));
        }
        bases
    })
}

/// A random variation of `v`: with probability `1 / one_in` per leaf, a
/// number becomes another of its kind, a string other text, an optional
/// value `null`.
fn vary(v: &Value, rng: &mut TestRng, one_in: u64) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(|v| vary(v, rng, one_in)).collect()),
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), vary(v, rng, one_in)))
                .collect(),
        ),
        _ if !chance(rng, one_in) => v.clone(),
        Value::Integer(_) => Value::Integer(integer(rng)),
        Value::Number(_) => Value::Number(float(rng)),
        Value::String(_) if chance(rng, 2) => Value::String(text(rng)),
        _ => Value::Null,
    }
}

/// How a case's line was derived from its base line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    None,
    Truncate,
    StrayByte,
    DuplicateKey,
    AliasFirst,
    UnknownKey,
    IntegerAsFloat,
    TwoToThe64,
    NestAtLimit,
    NestPastLimit,
}

impl Mutation {
    /// Whether the mutation leaves the decoded value as it was.
    fn neutral(self) -> bool {
        matches!(
            self,
            Mutation::None
                | Mutation::DuplicateKey
                | Mutation::AliasFirst
                | Mutation::UnknownKey
                | Mutation::IntegerAsFloat
                | Mutation::NestAtLimit
        )
    }
}

/// Every object of `v`, with the containers open inside it, in document
/// order.
fn object_paths(
    v: &Value,
    depth: usize,
    path: &mut Vec<usize>,
    out: &mut Vec<(Vec<usize>, usize)>,
) {
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i);
                object_paths(item, depth + 1, path, out);
                path.pop();
            }
        }
        Value::Object(entries) => {
            out.push((path.clone(), depth + 1));
            for (i, (_, item)) in entries.iter().enumerate() {
                path.push(i);
                object_paths(item, depth + 1, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn get<'v>(v: &'v Value, path: &[usize]) -> &'v Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Array(items) => &items[i],
        Value::Object(entries) => &entries[i].1,
        _ => unreachable!("paths lead through containers"),
    })
}

fn at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Array(items) => &mut items[i],
        Value::Object(entries) => &mut entries[i].1,
        _ => unreachable!("paths lead through containers"),
    })
}

fn nested(levels: usize) -> Value {
    (0..levels).fold(Value::Integer(1), |inner, _| Value::Array(vec![inner]))
}

/// One generated line and what it was derived from.
#[derive(Debug)]
struct Case {
    base: String,
    line: String,
    mutation: Mutation,
}

/// Random cases: a varied base, rendered, then mutated.
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let mutation = pick(
            rng,
            &[
                Mutation::None,
                Mutation::Truncate,
                Mutation::StrayByte,
                Mutation::DuplicateKey,
                Mutation::AliasFirst,
                Mutation::UnknownKey,
                Mutation::IntegerAsFloat,
                Mutation::TwoToThe64,
                Mutation::NestAtLimit,
                Mutation::NestPastLimit,
            ],
        );
        // The alias lives in a plan's `Partial` decision.
        let class = &bases()[below(rng, 4)];
        let all: Vec<&Value> = bases()
            .iter()
            .flatten()
            .filter(|v| {
                mutation != Mutation::AliasFirst
                    || serde_json::to_string(v)
                        .unwrap()
                        .contains("\"deferred_groups\"")
            })
            .collect();
        let start = match mutation {
            Mutation::AliasFirst => pick(rng, &all),
            _ => pick(rng, &class.iter().collect::<Vec<_>>()),
        };
        let rate = pick(rng, &[u64::MAX, 50, 5]);
        let mut value = vary(start, rng, rate);
        let base = serde_json::to_string(&value).expect("encodes");
        let line = match mutation {
            Mutation::None => base.clone(),
            Mutation::Truncate | Mutation::StrayByte => {
                let mut cut = below(rng, base.len());
                while !base.is_char_boundary(cut) {
                    cut -= 1;
                }
                let stray = match mutation {
                    Mutation::Truncate => return Case::new(&base, &base[..cut], mutation),
                    _ => pick(rng, &[",", "]", "}", ":", "\"", "\\", "x", "[", "{", " "]),
                };
                format!("{}{stray}{}", &base[..cut], &base[cut..])
            }
            Mutation::IntegerAsFloat | Mutation::TwoToThe64 => {
                let integers: Vec<_> = number_tokens(&base)
                    .into_iter()
                    .filter(|r| {
                        base[r.clone()]
                            .parse::<i128>()
                            .is_ok_and(|n| n.unsigned_abs() <= 1 << 53)
                    })
                    .collect();
                if integers.is_empty() {
                    return Case::new(&base, &base, Mutation::None);
                }
                let r = pick(rng, &integers);
                let n: i128 = base[r.clone()].parse().expect("an integer token");
                let spelled = match (mutation, rng.next_u64() % 3) {
                    (Mutation::TwoToThe64, _) => "18446744073709551616".to_owned(),
                    _ if n % 1000 == 0 && n != 0 => format!("{}e3", n / 1000),
                    (_, 0) => format!("{n}.0"),
                    (_, 1) => format!("{n}e0"),
                    _ => format!("{n}.000E+0"),
                };
                format!("{}{spelled}{}", &base[..r.start], &base[r.end..])
            }
            _ => {
                let mut objects = Vec::new();
                object_paths(&value, 0, &mut Vec::new(), &mut objects);
                objects.retain(|(path, _)| {
                    let Some(entries) = get(&value, path).as_object() else {
                        unreachable!("object paths lead to objects")
                    };
                    let aliased = entries.iter().any(|(k, _)| k == "deferred_groups");
                    match mutation {
                        Mutation::AliasFirst => aliased,
                        // Only structs have two keys or more.
                        _ => entries.len() >= 2,
                    }
                });
                if objects.is_empty() {
                    return Case::new(&base, &base, Mutation::None);
                }
                let (path, depth) = pick(rng, &objects);
                let filler = pick(
                    rng,
                    &[
                        Value::Null,
                        Value::String("dup".to_owned()),
                        Value::Array(vec![]),
                        Value::Integer(-1),
                    ],
                );
                let Value::Object(entries) = at(&mut value, &path) else {
                    unreachable!("object paths lead to objects")
                };
                let (key, filler, at) = match mutation {
                    Mutation::DuplicateKey => {
                        let i = below(rng, entries.len());
                        (
                            entries[i].0.clone(),
                            filler,
                            i + 1 + below(rng, entries.len() - i),
                        )
                    }
                    Mutation::AliasFirst => {
                        let name = entries.iter().position(|(k, _)| k == "deferred_groups");
                        (
                            "deferred_moves".to_owned(),
                            filler,
                            name.expect("kept above"),
                        )
                    }
                    _ => {
                        let levels = match mutation {
                            Mutation::NestAtLimit => serde_json::RECURSION_LIMIT - depth,
                            Mutation::NestPastLimit => serde_json::RECURSION_LIMIT + 1 - depth,
                            _ => below(rng, 3),
                        };
                        (
                            "zz_unknown".to_owned(),
                            nested(levels),
                            below(rng, entries.len() + 1),
                        )
                    }
                };
                entries.insert(at, (key, filler));
                serde_json::to_string(&value).expect("encodes")
            }
        };
        Case::new(&base, &line, mutation)
    }
}

impl Case {
    fn new(base: &str, line: &str, mutation: Mutation) -> Case {
        Case {
            base: base.to_owned(),
            line: line.to_owned(),
            mutation,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_one_pass_decoder_agrees_with_the_value_tree_decoder(case in Cases) {
        let decoded = agree_all(&case.line);
        if case.mutation.neutral() {
            prop_assert_eq!(decoded, agree_all(&case.base), "{:?} changed the value", case.mutation);
        }
    }
}

#[test]
fn the_cases_reach_both_verdicts_of_every_frame_type_and_the_mutations_that_matter() {
    let mut accepted = [0; 3];
    let mut rejected = [0; 3];
    let (mut aliases, mut duplicates, mut deep) = (0, 0, 0);
    for case in 0..1024 {
        let mut rng = TestRng::for_case(
            "the_one_pass_decoder_agrees_with_the_value_tree_decoder",
            case,
        );
        let case = Cases.generate(&mut rng);
        let decoded = agree_all(&case.line);
        for (i, verdict) in decoded.iter().enumerate() {
            match verdict {
                Ok(_) => accepted[i] += 1,
                Err(_) => rejected[i] += 1,
            }
        }
        let read = decoded.iter().any(Result::is_ok);
        aliases += usize::from(case.mutation == Mutation::AliasFirst && read);
        duplicates += usize::from(case.mutation == Mutation::DuplicateKey && read);
        deep += usize::from(case.mutation == Mutation::NestAtLimit && read);
    }
    for i in 0..3 {
        assert!(
            accepted[i] >= 50 && rejected[i] >= 50,
            "frame type {i}: {} accepted, {} rejected",
            accepted[i],
            rejected[i]
        );
    }
    assert!(
        aliases >= 20 && duplicates >= 20 && deep >= 20,
        "aliases {aliases}, duplicates {duplicates}, deep {deep}"
    );
}

#[test]
fn every_pinned_wire_line_decodes_alike_under_both() {
    for line in golden_lines() {
        let _ = agree_all(&line);
        let new: Value = serde_json::from_str(&line).expect("golden line parses");
        let old = reference::parse(&line).expect("golden line parses");
        assert_eq!(
            format!("{:?}", rounded(new)),
            format!("{old:?}"),
            "on {line}"
        );
    }
}

#[test]
fn pinned_hostile_lines_decode_alike_under_both() {
    let nest = |levels: usize| format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
    let limit = serde_json::RECURSION_LIMIT;
    for line in [
        String::new(),
        "{".to_owned(),
        "{\"id\":7".to_owned(),
        "{\"id\":7,\"request\":\"Stats\"} x".to_owned(),
        "{\"id\":7,\"request\":\"Stats\",\"id\":8}".to_owned(),
        "{\"id\":\"7\",\"request\":\"Stats\",\"id\":8}".to_owned(),
        "{\"request\":{\"Hello\":{\"version\":1},\"Stats\":null},\"id\":1}".to_owned(),
        "{\"request\":{},\"id\":1}".to_owned(),
        "{\"id\":1e3,\"request\":{\"DetachTenant\":{\"tenant\":1.0}}}".to_owned(),
        "{\"id\":18446744073709551616,\"request\":{\"DetachTenant\":{\"tenant\":-0}}}".to_owned(),
        "{\"id\":9007199254740993,\"request\":\"Shutdown\"}".to_owned(),
        "{\"id\":-9223372036854775809,\"request\":\"Shutdown\"}".to_owned(),
        "{\"id\":1,\"request\":{\"Hello\":{\"version\":4294967296}}}".to_owned(),
        "{\"id\":1,\"request\":{\"Observe\":{\"tenant\":1,\"step\":{\"shift\":null,\"phase\":\"\\ud83d\\ude00\"}}}}".to_owned(),
        "{\"id\":1,\"request\":{\"Observe\":{\"tenant\":1,\"step\":{\"phase\":\"\\ud83d\"}}}}".to_owned(),
        format!("{{\"id\":1,\"x\":{},\"request\":\"Stats\"}}", nest(limit - 1)),
        format!("{{\"id\":1,\"x\":{},\"request\":\"Stats\"}}", nest(limit)),
        format!("{{\"id\":1,\"request\":{}}}", nest(100_000)),
        "{\"id\":1,\"response\":{\"Event\":{\"tenant\":1,\"event\":{\"Planned\":{\"tick\":1,\"decision\":{\"Partial\":{\"deferred_moves\":5,\"deferred_groups\":3}},\"moves\":1,\"total_bytes\":1,\"total_cents\":1,\"savings_cents_per_hour\":1,\"break_even_hours\":null,\"waves\":1,\"makespan_seconds\":1}}}}}".to_owned(),
    ] {
        let _ = agree_all(&line);
    }
    // The alias yields to the name whichever comes first.
    let frame: ResponseFrame = serde_json::from_str(
        "{\"id\":1,\"response\":{\"Event\":{\"tenant\":1,\"event\":{\"Planned\":{\"tick\":1,\"decision\":{\"Partial\":{\"deferred_moves\":5,\"deferred_groups\":3}},\"moves\":1,\"total_bytes\":1,\"total_cents\":1,\"savings_cents_per_hour\":1,\"break_even_hours\":null,\"waves\":1,\"makespan_seconds\":1}}}}}",
    )
    .expect("parses");
    assert!(
        format!("{frame:?}").contains("deferred_groups: 3"),
        "{frame:?}"
    );
}
