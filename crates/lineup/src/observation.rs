//! The observation file: a persistable, human-readable rendering of the
//! synthesized sequential specification (paper §4.2, Fig. 7).
//!
//! Histories are grouped into `<observation>` sections; all histories in a
//! section exhibit the same operation sequences for each thread, so (a) a
//! history's witnesses all sit in one section (paper §4.2) and (b) the
//! file "is easier to understand and navigate manually if the histories
//! become large". Within a section, `<history>` elements give the serial
//! orders in the `i[`/`]i` notation, blocking operations are marked `B` in
//! the thread lists, and stuck histories end with `#` — all following
//! Fig. 7. (We render arguments/results as proper XML attributes,
//! `args="[200]" result="ok"`, instead of the paper's free-text
//! `value="200"` body.)

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::history::History;
use crate::spec::{ObservationSet, Outcome, SerialHistory, SpecOp, ThreadKey};
use crate::target::Invocation;
use crate::value::{parse_value, Value};

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Undoes [`xml_escape`] in a single left-to-right pass: each `&` begins
/// at most one entity, decoded once, and the decoded character is never
/// rescanned. Chained `str::replace` calls get this wrong — a later pass
/// rescans the output of an earlier one, so text like `&amp;lt;` (the
/// escape of the literal string `&lt;`) risks being decoded twice.
/// Unrecognized entities pass through unchanged.
fn xml_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        let tail = &rest[pos..];
        let (decoded, consumed) = if let Some(t) = tail.strip_prefix("&amp;") {
            ('&', t)
        } else if let Some(t) = tail.strip_prefix("&lt;") {
            ('<', t)
        } else if let Some(t) = tail.strip_prefix("&gt;") {
            ('>', t)
        } else if let Some(t) = tail.strip_prefix("&quot;") {
            ('"', t)
        } else {
            // A bare `&` that starts no known entity: keep it verbatim.
            ('&', &tail[1..])
        };
        out.push(decoded);
        rest = consumed;
    }
    out.push_str(rest);
    out
}

/// The `<observation>` sections: the members grouped by their thread
/// subhistories, in key order, and in set order within a section.
fn sections(set: &ObservationSet) -> BTreeMap<ThreadKey, Vec<&SerialHistory>> {
    let mut sections: BTreeMap<ThreadKey, Vec<&SerialHistory>> = BTreeMap::new();
    for h in set.iter() {
        sections.entry(h.thread_key()).or_default().push(h);
    }
    sections
}

/// Renders an observation set in the Fig. 7 format.
pub fn write_observation_file(set: &ObservationSet) -> String {
    let mut out = String::from("<observationset>\n");
    for (key, histories) in &sections(set) {
        out.push_str("  <observation>\n");
        // Thread-major numbering base per thread.
        let mut base = vec![0usize; key.len()];
        let mut next = 1usize;
        for (t, ops) in key.iter().enumerate() {
            base[t] = next;
            next += ops.len();
        }
        // <thread> lines.
        for (t, ops) in key.iter().enumerate() {
            let ids: Vec<String> = ops
                .iter()
                .enumerate()
                .map(|(k, (_, outcome))| {
                    let id = base[t] + k;
                    match outcome {
                        Outcome::Pending => format!("{id}B"),
                        Outcome::Returned(_) => id.to_string(),
                    }
                })
                .collect();
            out.push_str(&format!(
                "    <thread id=\"{}\">{}</thread>\n",
                History::thread_label(t),
                ids.join(" ")
            ));
        }
        // <op> lines.
        for (t, ops) in key.iter().enumerate() {
            for (k, (invocation, outcome)) in ops.iter().enumerate() {
                let id = base[t] + k;
                let args = Value::Seq(invocation.args.clone()).to_string();
                match outcome {
                    Outcome::Returned(v) => out.push_str(&format!(
                        "    <op id=\"{id}\" name=\"{}\" args=\"{}\" result=\"{}\"/>\n",
                        xml_escape(&invocation.name),
                        xml_escape(&args),
                        xml_escape(&v.to_string())
                    )),
                    Outcome::Pending => out.push_str(&format!(
                        "    <op id=\"{id}\" name=\"{}\" args=\"{}\"/>\n",
                        xml_escape(&invocation.name),
                        xml_escape(&args)
                    )),
                }
            }
        }
        // <history> lines: the serial orders.
        for s in histories {
            let mut counters = vec![0usize; key.len()];
            let mut tokens = Vec::new();
            for op in &s.ops {
                let id = base[op.thread] + counters[op.thread];
                counters[op.thread] += 1;
                match op.outcome {
                    Outcome::Returned(_) => {
                        tokens.push(format!("{id}["));
                        tokens.push(format!("]{id}"));
                    }
                    Outcome::Pending => {
                        tokens.push(format!("{id}["));
                        tokens.push("#".to_string());
                    }
                }
            }
            out.push_str(&format!("    <history>{}</history>\n", tokens.join(" ")));
        }
        out.push_str("  </observation>\n");
    }
    out.push_str("</observationset>\n");
    out
}

/// An error from [`parse_observation_file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseObservationError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseObservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "observation file line {}: {}", self.line, self.message)
    }
}

impl Error for ParseObservationError {}

fn attr(line: &str, name: &str) -> Option<String> {
    let needle = format!("{name}=\"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(xml_unescape(&line[start..end]))
}

fn label_to_index(label: &str) -> Option<usize> {
    let mut n = 0usize;
    for c in label.chars() {
        if !c.is_ascii_uppercase() {
            return None;
        }
        n = n * 26 + (c as usize - 'A' as usize) + 1;
    }
    n.checked_sub(1)
}

#[derive(Debug, Default)]
struct ObsSection {
    /// op id → (thread, invocation, pending?)
    ops: std::collections::BTreeMap<usize, (usize, Invocation, Option<Value>)>,
    thread_count: usize,
    histories: Vec<Vec<usize>>, // call order of op ids (serial), stuck if marker
    stuck: Vec<bool>,
}

/// Parses an observation file back into an [`ObservationSet`].
///
/// # Errors
///
/// Returns the first syntax or consistency error with its line number.
pub fn parse_observation_file(text: &str) -> Result<ObservationSet, ParseObservationError> {
    let err = |line: usize, message: String| ParseObservationError { line, message };
    let mut set = ObservationSet::new();
    let mut section: Option<ObsSection> = None;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line == "<observationset>" || line == "</observationset>" {
            continue;
        }
        if line == "<observation>" {
            if section.is_some() {
                return Err(err(lineno, "nested <observation>".into()));
            }
            section = Some(ObsSection::default());
            continue;
        }
        if line == "</observation>" {
            let s = section
                .take()
                .ok_or_else(|| err(lineno, "</observation> without opening".into()))?;
            for (h, &stuck) in s.histories.iter().zip(&s.stuck) {
                let ops = h
                    .iter()
                    .enumerate()
                    .map(|(k, id)| {
                        let (thread, invocation, result) = s
                            .ops
                            .get(id)
                            .ok_or_else(|| err(lineno, format!("unknown op id {id}")))?
                            .clone();
                        let outcome = match result {
                            Some(v) => Outcome::Returned(v),
                            None => {
                                if k + 1 != h.len() || !stuck {
                                    return Err(err(
                                        lineno,
                                        format!("pending op {id} not last in a stuck history"),
                                    ));
                                }
                                Outcome::Pending
                            }
                        };
                        Ok(SpecOp {
                            thread,
                            invocation,
                            outcome,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                set.insert(SerialHistory {
                    thread_count: s.thread_count,
                    ops,
                });
            }
            continue;
        }
        let s = section.as_mut().ok_or_else(|| {
            err(
                lineno,
                format!("unexpected content outside <observation>: {line}"),
            )
        })?;
        if line.starts_with("<thread") {
            let label = attr(line, "id").ok_or_else(|| err(lineno, "thread without id".into()))?;
            let thread = label_to_index(&label)
                .ok_or_else(|| err(lineno, format!("bad thread label {label:?}")))?;
            s.thread_count = s.thread_count.max(thread + 1);
            let body_start = line
                .find('>')
                .ok_or_else(|| err(lineno, "malformed thread line".into()))?;
            let body_end = line
                .rfind("</thread>")
                .ok_or_else(|| err(lineno, "unterminated thread line".into()))?;
            for tok in line[body_start + 1..body_end].split_whitespace() {
                let (id_text, _pending) = match tok.strip_suffix('B') {
                    Some(rest) => (rest, true),
                    None => (tok, false),
                };
                let id: usize = id_text
                    .parse()
                    .map_err(|_| err(lineno, format!("bad op id {tok:?}")))?;
                // Thread assignment recorded when the <op> line arrives;
                // remember it by pre-inserting a placeholder.
                s.ops
                    .entry(id)
                    .or_insert_with(|| (thread, Invocation::new("?"), None))
                    .0 = thread;
            }
            continue;
        }
        if line.starts_with("<op") {
            let id: usize = attr(line, "id")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(lineno, "op without numeric id".into()))?;
            let name = attr(line, "name").ok_or_else(|| err(lineno, "op without name".into()))?;
            let args = match attr(line, "args") {
                Some(text) => match parse_value(&text) {
                    Ok(Value::Seq(vs)) => vs,
                    Ok(_) => return Err(err(lineno, "args must be a sequence".into())),
                    Err(e) => return Err(err(lineno, format!("bad args: {e}"))),
                },
                None => Vec::new(),
            };
            let result = match attr(line, "result") {
                Some(text) => {
                    Some(parse_value(&text).map_err(|e| err(lineno, format!("bad result: {e}")))?)
                }
                None => None,
            };
            let entry = s
                .ops
                .entry(id)
                .or_insert_with(|| (usize::MAX, Invocation::new("?"), None));
            entry.1 = Invocation::with_args(name, args);
            entry.2 = result;
            continue;
        }
        if line.starts_with("<history>") {
            let body = line
                .strip_prefix("<history>")
                .and_then(|l| l.strip_suffix("</history>"))
                .ok_or_else(|| err(lineno, "malformed history line".into()))?;
            let mut order = Vec::new();
            let mut open: Option<usize> = None;
            let mut stuck = false;
            for tok in body.split_whitespace() {
                if tok == "#" {
                    stuck = true;
                    continue;
                }
                if let Some(id_text) = tok.strip_suffix('[') {
                    let id: usize = id_text
                        .parse()
                        .map_err(|_| err(lineno, format!("bad call token {tok:?}")))?;
                    if open.is_some() {
                        return Err(err(lineno, "overlapping ops in serial history".into()));
                    }
                    open = Some(id);
                    order.push(id);
                } else if let Some(id_text) = tok.strip_prefix(']') {
                    let id: usize = id_text
                        .parse()
                        .map_err(|_| err(lineno, format!("bad return token {tok:?}")))?;
                    if open != Some(id) {
                        return Err(err(lineno, format!("return ]{id} without matching call")));
                    }
                    open = None;
                } else {
                    return Err(err(lineno, format!("unrecognized token {tok:?}")));
                }
            }
            if open.is_some() && !stuck {
                return Err(err(lineno, "unmatched call in non-stuck history".into()));
            }
            s.histories.push(order);
            s.stuck.push(stuck);
            continue;
        }
        return Err(err(lineno, format!("unrecognized line: {line}")));
    }
    if section.is_some() {
        return Err(err(
            text.lines().count(),
            "unterminated <observation>".into(),
        ));
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sop(thread: usize, name: &str, outcome: Outcome) -> SpecOp {
        SpecOp {
            thread,
            invocation: Invocation::new(name),
            outcome,
        }
    }

    fn sop_arg(thread: usize, name: &str, arg: i64, outcome: Outcome) -> SpecOp {
        SpecOp {
            thread,
            invocation: Invocation::with_int(name, arg),
            outcome,
        }
    }

    fn ret(v: Value) -> Outcome {
        Outcome::Returned(v)
    }

    fn sample_set() -> ObservationSet {
        // Modeled on Fig. 7: Add(200)/Add(400) on thread A, Take/TryTake on
        // thread B.
        let mut set = ObservationSet::new();
        set.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop_arg(0, "Add", 200, ret(Value::Unit)),
                sop(1, "Take", ret(Value::Int(200))),
                sop(1, "TryTake", ret(Value::Fail)),
                sop_arg(0, "Add", 400, ret(Value::Unit)),
            ],
        });
        set.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop_arg(0, "Add", 200, ret(Value::Unit)),
                sop_arg(0, "Add", 400, ret(Value::Unit)),
                sop(1, "Take", ret(Value::Int(200))),
                sop(1, "TryTake", ret(Value::some(Value::Int(400)))),
            ],
        });
        // A stuck serial history: Take blocks on the empty queue.
        set.insert(SerialHistory {
            thread_count: 2,
            ops: vec![sop(1, "Take", Outcome::Pending)],
        });
        set
    }

    #[test]
    fn sections_group_by_thread_key() {
        let mut set = ObservationSet::new();
        let (a, b) = (
            sop(0, "a", ret(Value::Int(0))),
            sop(1, "b", ret(Value::Int(1))),
        );
        // Same per-thread sequences, different interleavings → same section.
        set.insert(SerialHistory {
            thread_count: 2,
            ops: vec![a.clone(), b.clone()],
        });
        set.insert(SerialHistory {
            thread_count: 2,
            ops: vec![b.clone(), a.clone()],
        });
        // Different outcome → different section.
        set.insert(SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "a", ret(Value::Int(9))), b],
        });
        let sections = sections(&set);
        assert_eq!(sections.len(), 2);
        let key = set.iter().next().unwrap().thread_key();
        assert_eq!(sections[&key].len(), 2);
        assert_eq!(
            write_observation_file(&set)
                .matches("<observation>")
                .count(),
            2
        );
    }

    #[test]
    fn write_produces_fig7_structure() {
        let text = write_observation_file(&sample_set());
        assert!(text.starts_with("<observationset>"));
        assert!(text.contains("<observation>"));
        assert!(text.contains("<thread id=\"A\">"));
        assert!(text.contains("name=\"Add\" args=\"[200]\" result=\"ok\""));
        // The stuck Take is marked B in the thread list and # in history.
        assert!(text.contains("1B"), "{text}");
        assert!(text.contains("1[ #"), "{text}");
        // Interleaving notation.
        assert!(text.contains("1[ ]1"));
    }

    #[test]
    fn roundtrip_preserves_set() {
        let set = sample_set();
        let text = write_observation_file(&set);
        let parsed = parse_observation_file(&text).expect("parses");
        assert_eq!(parsed, set);
    }

    #[test]
    fn roundtrip_with_exotic_values() {
        let mut set = ObservationSet::new();
        set.insert(SerialHistory {
            thread_count: 1,
            ops: vec![SpecOp {
                thread: 0,
                invocation: Invocation::with_args(
                    "Weird<Op>",
                    [Value::Str("a \"quoted\" <arg>&".into())],
                ),
                outcome: ret(Value::Seq(vec![Value::Bool(true), Value::Opt(None)])),
            }],
        });
        let text = write_observation_file(&set);
        let parsed = parse_observation_file(&text).expect("parses");
        assert_eq!(parsed, set);
    }

    #[test]
    fn parse_accepts_ops_before_threads() {
        // Element order within a section is not significant.
        let text = r#"<observationset>
  <observation>
    <op id="1" name="x" args="[]" result="ok"/>
    <thread id="A">1</thread>
    <history>1[ ]1</history>
  </observation>
</observationset>"#;
        let set = parse_observation_file(text).unwrap();
        assert_eq!(set.len(), 1);
        let h = set.iter().next().unwrap();
        assert_eq!(h.ops[0].thread, 0);
        assert_eq!(h.ops[0].invocation.name, "x");
    }

    #[test]
    fn parse_rejects_mismatched_return() {
        let bad = r#"<observationset>
  <observation>
    <thread id="A">1 2</thread>
    <op id="1" name="x" args="[]" result="ok"/>
    <op id="2" name="y" args="[]" result="ok"/>
    <history>1[ ]2</history>
  </observation>
</observationset>"#;
        let e = parse_observation_file(bad).unwrap_err();
        assert!(e.message.contains("without matching call"), "{e}");
    }

    #[test]
    fn parse_rejects_overlap_in_history() {
        let bad = r#"<observationset>
  <observation>
    <thread id="A">1 2</thread>
    <op id="1" name="x" args="[]" result="ok"/>
    <op id="2" name="y" args="[]" result="ok"/>
    <history>1[ 2[ ]1 ]2</history>
  </observation>
</observationset>"#;
        let e = parse_observation_file(bad).unwrap_err();
        assert!(e.message.contains("overlapping"));
        assert_eq!(e.line, 6);
    }

    #[test]
    fn parse_rejects_unknown_token() {
        let bad = "<observationset>\n<observation>\n<history>wat</history>\n</observation>\n</observationset>";
        assert!(parse_observation_file(bad).is_err());
    }

    #[test]
    fn parse_empty_set() {
        let set = parse_observation_file("<observationset>\n</observationset>\n").unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn error_display_carries_line() {
        let e = ParseObservationError {
            line: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "observation file line 3: boom");
    }

    #[test]
    fn unescape_decodes_each_entity_once() {
        // The escape of the literal string `&lt;` must come back as the
        // literal string, not as `<` (the chained-replace hazard).
        for literal in ["&lt;", "&gt;", "&quot;", "&amp;", "&amp;lt;"] {
            assert_eq!(xml_unescape(&xml_escape(literal)), literal);
        }
        assert_eq!(xml_unescape("&amp;lt;"), "&lt;");
        assert_eq!(xml_unescape("&lt;&gt;&quot;&amp;"), "<>\"&");
    }

    #[test]
    fn unescape_keeps_bare_ampersands_and_unknown_entities() {
        assert_eq!(xml_unescape("a & b"), "a & b");
        assert_eq!(xml_unescape("&bogus;"), "&bogus;");
        assert_eq!(xml_unescape("tail&"), "tail&");
    }

    mod escape_properties {
        use super::super::{xml_escape, xml_unescape};
        use crate::value::Value;
        use proptest::prelude::*;

        /// Values whose `Str` leaves are rich in XML metacharacters and
        /// pre-escaped entity text, the worst case for the unescaper.
        fn value_strategy() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                Just(Value::Unit),
                Just(Value::Fail),
                Just(Value::Opt(None)),
                any::<bool>().prop_map(Value::Bool),
                (-1000i64..1000).prop_map(Value::Int),
                "[a-z<>&\"; ]{0,10}".prop_map(Value::Str),
                prop_oneof![
                    Just("&amp;lt;".to_string()),
                    Just("&lt;&gt;".to_string()),
                    Just("&quot;&amp;".to_string()),
                ]
                .prop_map(Value::Str),
            ];
            leaf.prop_recursive(3, 16, 4, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
                    inner.prop_map(Value::some),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn escape_round_trips_value_renderings(v in value_strategy()) {
                let rendered = v.to_string();
                prop_assert_eq!(xml_unescape(&xml_escape(&rendered)), rendered);
            }

            #[test]
            fn escaped_text_is_attribute_safe(v in value_strategy()) {
                let escaped = xml_escape(&v.to_string());
                prop_assert!(!escaped.contains('"'));
                prop_assert!(!escaped.contains('<'));
                prop_assert!(!escaped.contains('>'));
            }
        }
    }
}
