//! Fuzz-style property tests for the hand-rolled protocol layer: the JSON
//! subset parser, `Request` decoding and the length-prefixed frame reader
//! must **never panic**, whatever bytes arrive — a serving process shares
//! its address space between all connections, so a parser panic is a
//! denial of service.  On top of the no-panic properties, every request
//! verb must survive an encode → parse round trip unchanged, and rendering
//! a parsed value must be a fixpoint.

use mrq_core::Algorithm;
use mrq_service::protocol::json::{self, Json};
use mrq_service::protocol::{read_frame, write_frame, Request};
use proptest::prelude::*;
use std::io::{BufReader, Read};

/// A reader that hands out `data` in pieces of the cycled `chunks` sizes.
struct Trickle<'a> {
    data: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunks[self.reads % self.chunks.len()]
            .min(buf.len())
            .min(self.data.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Wholly arbitrary bytes (the "line noise" regime).
fn arbitrary_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255u8, 0..max)
}

/// Bytes folded onto the JSON alphabet, so draws routinely get past the
/// first character and stress nesting, number and escape handling instead
/// of just the "unexpected leading byte" branch.
fn jsonish_string(max: usize) -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = br#"{}[]",:0123456789.eE+-truefalsn\u "#;
    prop::collection::vec(0u8..=255u8, 0..max).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| ALPHABET[(*b as usize) % ALPHABET.len()] as char)
            .collect()
    })
}

/// A valid dataset name.
fn name_strategy() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    prop::collection::vec(0u8..=255u8, 1..12).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| ALPHABET[(*b as usize) % ALPHABET.len()] as char)
            .collect()
    })
}

/// Any finite `f64`, bit-pattern uniform (subnormals, huge magnitudes,
/// negative zero included) — all must survive the decimal wire format.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("finite", |x| x.is_finite())
}

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Auto,
    Algorithm::Fca,
    Algorithm::BasicApproach,
    Algorithm::AdvancedApproach,
    Algorithm::AdvancedApproach2D,
];

fn query_strategy() -> impl Strategy<Value = Request> {
    (
        name_strategy(),
        any::<u32>(),
        0usize..ALGORITHMS.len(),
        (0usize..4, any::<bool>(), any::<bool>(), 0u64..1_000_000),
        (1usize..9, any::<bool>(), 0usize..1000),
    )
        .prop_map(
            |(
                dataset,
                focal,
                algo,
                (tau, no_cache, has_timeout, timeout),
                (threads, has_max, max),
            )| {
                Request::Query {
                    dataset,
                    focal,
                    algorithm: ALGORITHMS[algo],
                    tau,
                    timeout_ms: has_timeout.then_some(timeout),
                    no_cache,
                    max_regions: has_max.then_some(max),
                    threads,
                }
            },
        )
}

fn subscribe_strategy() -> impl Strategy<Value = Request> {
    (
        name_strategy(),
        any::<u32>(),
        0usize..ALGORITHMS.len(),
        0usize..4,
    )
        .prop_map(|(dataset, focal, algo, tau)| Request::Subscribe {
            dataset,
            focal,
            algorithm: ALGORITHMS[algo],
            tau,
        })
}

fn unsubscribe_strategy() -> impl Strategy<Value = Request> {
    // Ids ride the JSON number lane (f64), which is exact up to 2^53.
    (0u64..=(1u64 << 53)).prop_map(|subscription| Request::Unsubscribe { subscription })
}

fn update_strategy() -> impl Strategy<Value = Request> {
    (
        name_strategy(),
        (any::<bool>(), name_strategy()),
        prop::collection::vec(prop::collection::vec(finite_f64(), 0..5), 0..4),
        prop::collection::vec(any::<u32>(), 0..5),
    )
        .prop_map(|(dataset, (with_id, id), inserts, mut deletes)| {
            if inserts.is_empty() && deletes.is_empty() {
                // The wire format rejects empty batches, so keep at least
                // one operation in every generated request.
                deletes.push(0);
            }
            Request::Update {
                dataset,
                request_id: with_id.then_some(id),
                inserts,
                deletes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The JSON parser returns `Err`, never panics, on arbitrary byte soup.
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(bytes in arbitrary_bytes(256)) {
        let input = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&input);
    }

    /// Alphabet-weighted inputs reach the deep branches (nesting, escapes,
    /// numbers); whenever such an input *does* parse, rendering it is a
    /// fixpoint: parse(render(v)) renders identically.
    #[test]
    fn json_parse_render_is_a_fixpoint(input in jsonish_string(256)) {
        if let Ok(v) = json::parse(&input) {
            let rendered = v.to_string();
            let reparsed = json::parse(&rendered)
                .map_err(|e| TestCaseError::fail(format!("render not parseable: {e}\n{rendered}")))?;
            prop_assert_eq!(reparsed.to_string(), rendered);
        }
    }

    /// Request decoding never panics — on noise or on JSON-shaped noise.
    #[test]
    fn request_parse_never_panics(bytes in arbitrary_bytes(200), jsonish in jsonish_string(200)) {
        let _ = Request::parse(&String::from_utf8_lossy(&bytes));
        let _ = Request::parse(&jsonish);
    }

    /// The frame reader never panics on arbitrary bytes, even when asked to
    /// keep reading frames until the stream is exhausted.
    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(bytes in arbitrary_bytes(300)) {
        let mut stream: &[u8] = &bytes;
        for _ in 0..4 {
            match read_frame(&mut stream) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// write_frame → read_frame restores any payload byte-for-byte,
    /// including newlines, NULs and replacement characters.
    #[test]
    fn frame_round_trip(bytes in arbitrary_bytes(300)) {
        let payload = String::from_utf8_lossy(&bytes).into_owned();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut stream: &[u8] = &wire;
        let got = read_frame(&mut stream).unwrap().expect("frame present");
        prop_assert_eq!(got, payload);
        prop_assert!(read_frame(&mut stream).unwrap().is_none(), "exactly one frame");
    }

    /// A stream that arrives a few bytes per read (as a socket behind a
    /// `BufReader` delivers it) decodes to exactly the frames and the error
    /// of the same bytes read from one contiguous buffer.
    #[test]
    fn chunked_reads_decode_like_a_contiguous_buffer(
        payloads in prop::collection::vec(arbitrary_bytes(64), 0..5),
        tail in arbitrary_bytes(40),
        chunks in prop::collection::vec(1usize..=7, 1..16),
        capacity in 1usize..64,
    ) {
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, &String::from_utf8_lossy(payload)).unwrap();
        }
        wire.extend_from_slice(&tail);
        let mut contiguous: &[u8] = &wire;
        let trickle = Trickle { data: &wire, chunks: &chunks, reads: 0 };
        let mut chunked = BufReader::with_capacity(capacity, trickle);
        for _ in 0..=payloads.len() + 1 {
            let whole = read_frame(&mut contiguous).map_err(|e| (e.kind(), e.to_string()));
            let pieces = read_frame(&mut chunked).map_err(|e| (e.kind(), e.to_string()));
            prop_assert_eq!(&pieces, &whole);
            if !matches!(whole, Ok(Some(_))) {
                break;
            }
        }
    }

    /// Every verb survives encode → parse unchanged — both directly and
    /// through the frame layer.
    #[test]
    fn every_verb_round_trips(
        query in query_strategy(),
        update in update_strategy(),
        subscribe in subscribe_strategy(),
        unsubscribe in unsubscribe_strategy(),
    ) {
        for request in [
            query,
            update,
            subscribe,
            unsubscribe,
            Request::Metrics,
            Request::List,
            Request::Ping,
            Request::Shutdown,
        ] {
            let encoded = request.encode();
            let parsed = Request::parse(&encoded)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{encoded}")))?;
            prop_assert_eq!(&parsed, &request);

            let mut wire = Vec::new();
            write_frame(&mut wire, &encoded).unwrap();
            let mut stream: &[u8] = &wire;
            let payload = read_frame(&mut stream).unwrap().expect("frame present");
            let parsed = Request::parse(&payload)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{payload}")))?;
            prop_assert_eq!(&parsed, &request);
        }
    }

    /// Valid requests with random byte corruption (flips and truncation)
    /// never panic the decoder — they parse to *something* or error out.
    #[test]
    fn mutated_valid_payloads_never_panic(
        query in query_strategy(),
        update in update_strategy(),
        subscribe in subscribe_strategy(),
        unsubscribe in unsubscribe_strategy(),
        flips in prop::collection::vec((any::<usize>(), 0u8..=255u8), 1..8),
        cut in any::<usize>(),
    ) {
        for request in [query, update, subscribe, unsubscribe] {
            let mut bytes = request.encode().into_bytes();
            for (pos, val) in &flips {
                let i = pos % bytes.len();
                bytes[i] = *val;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = Request::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}

/// Directed (non-random) regressions the fuzz strategies would only hit by
/// luck: depth bombs, huge length prefixes, surrogate escapes.
#[test]
fn adversarial_inputs_error_cleanly() {
    // A nesting bomb must hit the depth cap, not the stack guard.
    let bomb = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
    assert!(json::parse(&bomb).is_err());

    // Lone surrogates are rejected; a conforming pair combines.
    assert!(json::parse(r#""\ud800""#).is_err());
    assert!(json::parse(r#""\udc00""#).is_err());
    assert!(json::parse(r#""\ud83d_""#).is_err());
    // Direct UTF-8 and an escaped surrogate pair decode to the same char.
    assert_eq!(json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
    let pair = format!(r#""{bs}ud83d{bs}ude00""#, bs = '\\');
    assert_eq!(json::parse(&pair).unwrap(), Json::Str("😀".to_string()));

    // A frame whose header promises more than the cap must error, not
    // allocate 16 GiB.
    let mut stream: &[u8] = b"17179869184\nx";
    assert!(read_frame(&mut stream).is_err());

    // A length prefix cut off by EOF before its newline is a truncated
    // frame, not an empty or a short one.
    for input in [&b"0"[..], b"12"] {
        let mut stream = input;
        let err = read_frame(&mut stream).expect_err("truncated header");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{input:?}");
    }

    // Unknown verbs and non-object payloads error without panicking.
    assert!(Request::parse("[1,2,3]").is_err());
    assert!(Request::parse("{\"cmd\":\"nope\"}").is_err());
    assert!(Request::parse("").is_err());
}
