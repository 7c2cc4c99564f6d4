//! The streaming JSON-lines record format for shard results, and the
//! list codec the campaign manifest shares.
//!
//! Each completed shard appends exactly one line to `results.jsonl` in
//! the campaign directory. The encoding is hand-rolled (the container
//! has no serde) but deliberately boring: one flat JSON object per
//! line, `u64` values as `"0x…"` hex strings (JSON numbers can't carry
//! 64 bits losslessly), finite `f64` via Rust's shortest-roundtrip
//! `Display` and non-finite `f64` (NaN/±inf, which `Display` would
//! render as tokens the parser rejects) as `"0x…"` bit-pattern hex
//! strings — so `encode ∘ decode` is exact and a durable record is
//! always re-loadable. Decoding accepts exactly what `encode` writes:
//! keys in its fixed order, no whitespace. Every record and manifest
//! ever written has that form.
//!
//! The `attempt` field is **bookkeeping, not result**: it records how
//! many tries the shard needed (fault injection, retries) and is
//! excluded from every digest, so a campaign that limped through
//! retries merges bit-identically to one that sailed through.

use crate::digest::Fnv64;
use crate::job::ShardOutput;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// One shard result as persisted to `results.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Global shard index.
    pub shard: usize,
    /// Scenario key (e.g. `pwcet/tscache/l2/shared/contended`).
    pub scenario: String,
    /// The shard's derived seed (provenance; re-derivable from spec).
    pub seed: u64,
    /// 1-based attempt number that produced this result (bookkeeping —
    /// excluded from all digests).
    pub attempt: u32,
    /// What the shard computed.
    pub output: ShardOutput,
}

/// Writes `items` as a JSON array, each element through `item`.
/// Writing to a `String` cannot fail, so the results are dropped here.
pub(crate) fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T) -> fmt::Result,
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = item(out, x);
    }
    out.push(']');
}

/// Encodes an `f64` losslessly: `Display` for finite values (shortest
/// roundtrip), `"0x…"` bit-pattern hex for NaN/±inf — `Display` would
/// emit `NaN`/`inf`, which no number parser accepts, so one non-finite
/// statistic would otherwise make the whole record unparseable.
pub(crate) fn push_f64(out: &mut String, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        write!(out, "\"{:#x}\"", v.to_bits())
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and
/// control characters escaped.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ShardRecord {
    /// Encodes the record as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let o = &self.output;
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"shard\":{},\"scenario\":", self.shard);
        push_json_string(&mut out, &self.scenario);
        let _ = write!(
            out,
            ",\"seed\":\"{:#x}\",\"attempt\":{},\"digest\":\"{:#x}\",\"n\":{}",
            self.seed, self.attempt, o.digest, o.n
        );
        for (key, v) in [("mean", o.mean), ("variance", o.variance), ("min", o.min), ("max", o.max)]
        {
            let _ = write!(out, ",\"{key}\":");
            let _ = push_f64(&mut out, v);
        }
        if let Some(times) = &o.times {
            out.push_str(",\"times\":");
            push_list(&mut out, times, |out, t| write!(out, "{t}"));
        }
        if let Some(hist) = &o.hist {
            out.push_str(",\"hist\":");
            push_list(&mut out, hist, |out, (idx, count)| write!(out, "[{idx},\"{count:#x}\"]"));
        }
        if let Some(pmu) = &o.pmu {
            out.push_str(",\"pmu\":");
            push_list(&mut out, pmu, |out, row| {
                push_list(out, row, |out, v| write!(out, "\"{v:#x}\""));
                Ok(())
            });
        }
        if let Some(roc) = &o.roc {
            out.push_str(",\"roc\":");
            push_list(&mut out, roc, |out, &(thr, fpr, tpr)| {
                push_list(out, [thr, fpr, tpr], push_f64);
                Ok(())
            });
        }
        if let Some(td) = o.trace_digest {
            let _ = write!(out, ",\"trace_digest\":\"{td:#x}\"");
        }
        out.push('}');
        out
    }

    /// Parses one JSON line. Returns `None` on any malformation — the
    /// checkpoint loader treats an unparseable final line as a torn
    /// write and drops it.
    pub fn decode(line: &str) -> Option<ShardRecord> {
        parse(line, |p| {
            let shard = p.field("{\"shard\":", Parser::int)?;
            let scenario = p.field(",\"scenario\":", Parser::string)?;
            let seed = p.field(",\"seed\":", Parser::hex)?;
            let attempt = p.field(",\"attempt\":", Parser::int)?;
            // Struct fields are evaluated in the order written, which
            // is the key order `encode` writes.
            let output = ShardOutput {
                digest: p.field(",\"digest\":", Parser::hex)?,
                n: p.field(",\"n\":", Parser::int)?,
                mean: p.field(",\"mean\":", Parser::f64_value)?,
                variance: p.field(",\"variance\":", Parser::f64_value)?,
                min: p.field(",\"min\":", Parser::f64_value)?,
                max: p.field(",\"max\":", Parser::f64_value)?,
                times: p.opt_field(",\"times\":", |p| p.list(Parser::int))?,
                hist: p.opt_field(",\"hist\":", |p| {
                    p.list(|p| {
                        let pair = (p.field("[", Parser::int)?, p.field(",", Parser::hex)?);
                        p.eat(b']').map(|()| pair)
                    })
                })?,
                pmu: p.opt_field(",\"pmu\":", |p| p.list(|p| p.list(Parser::hex)))?,
                roc: p.opt_field(",\"roc\":", |p| {
                    p.list(|p| match p.list(Parser::f64_value)?[..] {
                        [thr, fpr, tpr] => Some((thr, fpr, tpr)),
                        _ => None,
                    })
                })?,
                trace_digest: p.opt_field(",\"trace_digest\":", Parser::hex)?,
            };
            p.eat(b'}')?;
            Some(ShardRecord { shard, scenario, seed, attempt, output })
        })
        .ok()
    }

    /// Digest of the record's **result** content (attempt excluded):
    /// what the merged campaign digest is built from.
    pub fn result_digest(&self) -> u64 {
        let o = &self.output;
        let mut h = Fnv64::new();
        h.write_u64(self.shard as u64);
        h.write(self.scenario.as_bytes());
        h.write_u64(self.seed);
        h.write_u64(o.digest);
        h.write_u64(o.n);
        h.write_f64(o.mean);
        h.write_f64(o.variance);
        h.write_f64(o.min);
        h.write_f64(o.max);
        if let Some(times) = &o.times {
            for &t in times {
                h.write_u64(t);
            }
        }
        // Simulation-output blocks are domain-tagged so a record with
        // e.g. an empty `pmu` digests differently from one without it.
        // `hist` and `trace_digest` exist only when a recorder was
        // attached, and the recorder is a pure observer — folding them
        // in would make a traced campaign digest diverge from the
        // untraced digest of the very same simulation, so they stay
        // out (CI compares the two verbatim).
        if let Some(pmu) = &o.pmu {
            h.write_u64(0x0070_6d75); // "pmu"
            for row in pmu {
                h.write_u64(row.len() as u64);
                for &v in row {
                    h.write_u64(v);
                }
            }
        }
        if let Some(roc) = &o.roc {
            h.write_u64(0x0072_6f63); // "roc"
            for &(thr, fpr, tpr) in roc {
                h.write_f64(thr);
                h.write_f64(fpr);
                h.write_f64(tpr);
            }
        }
        h.finish()
    }
}

pub(crate) fn parse_hex_u64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Runs `body` over `text` with surrounding whitespace trimmed. Returns
/// its value if it parsed every byte, else the offset where it stopped.
pub(crate) fn parse<T>(
    text: &str,
    body: impl FnOnce(&mut Parser<'_>) -> Option<T>,
) -> Result<T, usize> {
    let mut p = Parser { bytes: text.trim().as_bytes(), pos: 0 };
    match body(&mut p) {
        Some(value) if p.pos == p.bytes.len() => Ok(value),
        _ => Err(p.pos),
    }
}

/// A cursor over the exact form the encoders write.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn eat(&mut self, want: u8) -> Option<()> {
        (self.next_byte()? == want).then_some(())
    }

    /// Consumes `prefix` (a key with its leading `{` or `,` and trailing
    /// `:`), then reads the value after it with `value`.
    pub(crate) fn field<T>(
        &mut self,
        prefix: &str,
        value: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<T> {
        self.opt_field(prefix, value).flatten()
    }

    /// [`Parser::field`] for a key `encode` writes only when its value
    /// is present: `Some(None)` when the input does not continue with
    /// `prefix`.
    fn opt_field<T>(
        &mut self,
        prefix: &str,
        value: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Option<T>> {
        if !self.bytes[self.pos..].starts_with(prefix.as_bytes()) {
            return Some(None);
        }
        self.pos += prefix.len();
        value(self).map(Some)
    }

    /// A JSON array, each element read with `item`.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Some(out);
        }
        loop {
            out.push(item(self)?);
            match self.next_byte()? {
                b',' => {}
                b']' => return Some(out),
                _ => return None,
            }
        }
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // The input came from a `&str` and every stop is ASCII, so
            // each run between stops is whole UTF-8.
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\')?;
            out.push_str(std::str::from_utf8(&self.bytes[self.pos..self.pos + run]).ok()?);
            self.pos += run;
            if self.next_byte()? == b'"' {
                return Some(out);
            }
            out.push(match self.next_byte()? {
                b'"' => '"',
                b'\\' => '\\',
                b'n' => '\n',
                b'u' => {
                    let hex = self.bytes.get(self.pos..self.pos + 4)?;
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }

    /// A `u64` written as a `"0x…"` hex string.
    pub(crate) fn hex(&mut self) -> Option<u64> {
        parse_hex_u64(&self.string()?)
    }

    /// An integer written as a JSON number.
    pub(crate) fn int<T: FromStr>(&mut self) -> Option<T> {
        self.number()?.parse().ok()
    }

    /// An `f64` encoded either as a plain number (finite) or a `"0x…"`
    /// bit-pattern hex string (non-finite).
    fn f64_value(&mut self) -> Option<f64> {
        if self.peek()? == b'"' {
            self.hex().map(f64::from_bits)
        } else {
            self.number()?.parse().ok()
        }
    }

    fn number(&mut self) -> Option<&'a str> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit() || b"-+.eE".contains(&b)) {
            self.pos += 1;
        }
        // An empty run is returned as `""`, which no number parses from.
        std::str::from_utf8(&self.bytes[start..self.pos]).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(times: Option<Vec<u64>>) -> ShardRecord {
        ShardRecord {
            shard: 17,
            scenario: "pwcet/tscache/l2/shared/contended".into(),
            seed: 0xdead_beef_cafe_f00d,
            attempt: 3,
            output: ShardOutput {
                digest: 0x1234_5678_9abc_def0,
                n: 400,
                mean: 5123.75,
                variance: 0.1 + 0.2, // deliberately non-representable exactly
                min: 5000.0,
                max: 6001.0,
                times,
                ..ShardOutput::default()
            },
        }
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        for rec in [sample(None), sample(Some(vec![5000, 5111, 6001])), sample(Some(vec![]))] {
            let line = rec.encode();
            assert!(!line.contains('\n'));
            let back = ShardRecord::decode(&line).unwrap();
            assert_eq!(rec, back);
            // Exact f64 roundtrip, bit for bit.
            assert_eq!(rec.output.variance.to_bits(), back.output.variance.to_bits());
        }
    }

    #[test]
    fn torn_lines_fail_to_decode() {
        let line = sample(Some(vec![1, 2, 3])).encode();
        for cut in 1..line.len() {
            assert_eq!(ShardRecord::decode(&line[..cut]), None, "cut at {cut} parsed");
        }
        assert_eq!(ShardRecord::decode(""), None);
        assert_eq!(ShardRecord::decode("{\"shard\":1}"), None); // missing fields
    }

    #[test]
    fn non_finite_floats_roundtrip_bit_exactly() {
        let mut rec = sample(Some(vec![1, 2]));
        rec.output.mean = f64::NAN;
        rec.output.variance = f64::INFINITY;
        rec.output.min = f64::NEG_INFINITY;
        let back = ShardRecord::decode(&rec.encode()).unwrap();
        assert_eq!(rec.output.mean.to_bits(), back.output.mean.to_bits());
        assert_eq!(rec.output.variance.to_bits(), back.output.variance.to_bits());
        assert_eq!(rec.output.min.to_bits(), back.output.min.to_bits());
        assert_eq!(rec.output.max.to_bits(), back.output.max.to_bits());
        assert_eq!(rec.result_digest(), back.result_digest());
    }

    #[test]
    fn attempt_is_excluded_from_result_digest() {
        let a = sample(None);
        let mut b = sample(None);
        b.attempt = 9;
        assert_eq!(a.result_digest(), b.result_digest());
        let mut c = sample(None);
        c.output.mean += 1.0;
        assert_ne!(a.result_digest(), c.result_digest());
    }

    #[test]
    fn telemetry_fields_roundtrip_exactly() {
        let mut rec = sample(Some(vec![9, 8]));
        rec.output.hist = Some(vec![(0, 3), (12, u64::MAX), (44, 0x1234_5678_9abc_def0)]);
        rec.output.pmu = Some(vec![vec![u64::MAX, 0, 7], vec![], vec![0xdead_beef]]);
        rec.output.roc = Some(vec![(1.5, 0.25, f64::INFINITY), (2.0, f64::NAN, 1.0)]);
        rec.output.trace_digest = Some(0xfeed_face_dead_beef);
        let line = rec.encode();
        let back = ShardRecord::decode(&line).unwrap();
        assert_eq!(back.output.hist, rec.output.hist);
        assert_eq!(back.output.pmu, rec.output.pmu);
        assert_eq!(back.output.trace_digest, rec.output.trace_digest);
        let roc = back.output.roc.as_ref().unwrap();
        assert_eq!(roc[0].2.to_bits(), f64::INFINITY.to_bits());
        assert!(roc[1].1.is_nan());
        assert_eq!(rec.result_digest(), back.result_digest());
        // Torn cuts of the extended record never parse.
        for cut in 1..line.len() {
            assert_eq!(ShardRecord::decode(&line[..cut]), None, "cut at {cut} parsed");
        }
    }

    #[test]
    fn telemetry_fields_are_domain_separated_in_the_digest() {
        // pmu and roc are simulation outputs: present regardless of
        // tracing, so they are digest-covered and domain-separated.
        let base = sample(None);
        let mut with_empty_pmu = sample(None);
        with_empty_pmu.output.pmu = Some(vec![]);
        assert_ne!(base.result_digest(), with_empty_pmu.result_digest());
        let mut with_empty_roc = sample(None);
        with_empty_roc.output.roc = Some(vec![]);
        assert_ne!(with_empty_pmu.result_digest(), with_empty_roc.result_digest());
        assert_ne!(base.result_digest(), with_empty_roc.result_digest());
    }

    #[test]
    fn observer_fields_do_not_perturb_the_result_digest() {
        // hist and trace_digest exist only when a recorder observed
        // the shard; the recorder is observer-only, so a traced record
        // must digest identically to its untraced twin (CI compares
        // traced and untraced campaign digests verbatim).
        let base = sample(None);
        let mut traced = sample(None);
        traced.output.hist = Some(vec![(3, 17), (9, 1)]);
        traced.output.trace_digest = Some(0xdead_beef);
        assert_eq!(base.result_digest(), traced.result_digest());
    }

    /// `results.jsonl` bytes are durable evidence: a resume reads lines
    /// an older binary wrote, so the encoding is pinned verbatim, not
    /// just as `decode(encode(x)) == x` (which a format change passes).
    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        let mut full = sample(Some(vec![5000, 0, u64::MAX]));
        full.scenario = "rtos/\"q\"\\\n\u{1}é".into();
        full.output.min = f64::NEG_INFINITY;
        full.output.hist = Some(vec![(0, 3), (12, u64::MAX)]);
        full.output.pmu = Some(vec![vec![u64::MAX, 0, 7], vec![], vec![0xdead_beef]]);
        full.output.roc =
            Some(vec![(1.5, 0.25, f64::INFINITY), (f64::NEG_INFINITY, f64::NAN, 1e-7)]);
        full.output.trace_digest = Some(0xfeed_face_dead_beef);
        let mut empty = sample(Some(vec![]));
        empty.output.hist = Some(vec![]);
        empty.output.pmu = Some(vec![]);
        empty.output.roc = Some(vec![]);
        let pinned = [
            (
                full,
                "{\"shard\":17,\"scenario\":\"rtos/\\\"q\\\"\\\\\\n\\u0001é\",\
                 \"seed\":\"0xdeadbeefcafef00d\",\"attempt\":3,\"digest\":\"0x123456789abcdef0\",\
                 \"n\":400,\"mean\":5123.75,\"variance\":0.30000000000000004,\
                 \"min\":\"0xfff0000000000000\",\"max\":6001,\
                 \"times\":[5000,0,18446744073709551615],\
                 \"hist\":[[0,\"0x3\"],[12,\"0xffffffffffffffff\"]],\
                 \"pmu\":[[\"0xffffffffffffffff\",\"0x0\",\"0x7\"],[],[\"0xdeadbeef\"]],\
                 \"roc\":[[1.5,0.25,\"0x7ff0000000000000\"],\
                 [\"0xfff0000000000000\",\"0x7ff8000000000000\",0.0000001]],\
                 \"trace_digest\":\"0xfeedfacedeadbeef\"}",
            ),
            (
                empty,
                "{\"shard\":17,\"scenario\":\"pwcet/tscache/l2/shared/contended\",\
                 \"seed\":\"0xdeadbeefcafef00d\",\"attempt\":3,\"digest\":\"0x123456789abcdef0\",\
                 \"n\":400,\"mean\":5123.75,\"variance\":0.30000000000000004,\
                 \"min\":5000,\"max\":6001,\"times\":[],\"hist\":[],\"pmu\":[],\"roc\":[]}",
            ),
            (
                sample(None),
                "{\"shard\":17,\"scenario\":\"pwcet/tscache/l2/shared/contended\",\
                 \"seed\":\"0xdeadbeefcafef00d\",\"attempt\":3,\"digest\":\"0x123456789abcdef0\",\
                 \"n\":400,\"mean\":5123.75,\"variance\":0.30000000000000004,\
                 \"min\":5000,\"max\":6001}",
            ),
        ];
        for (rec, line) in pinned {
            assert_eq!(rec.encode(), line);
            let back = ShardRecord::decode(line).unwrap();
            // `NaN != NaN`, but `Debug` prints every value exactly.
            assert_eq!(format!("{back:?}"), format!("{rec:?}"));
        }
    }

    #[test]
    fn scenario_strings_with_escapes_survive() {
        let mut rec = sample(None);
        rec.scenario = "weird \"key\" \\ with\nnewline \u{1}".into();
        let back = ShardRecord::decode(&rec.encode()).unwrap();
        assert_eq!(rec, back);
    }
}
