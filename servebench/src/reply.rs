//! The reply field parser: decodes the fields of a `tkc serve` reply line
//! that the benchmark checks and times.
//!
//! It is a small JSON reader of its own rather than the server's
//! `wire` module, so that a defect in the program's JSON handling cannot
//! hide in the check of its own output.

/// One per-`k` outcome of a query reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The core parameter `k`.
    pub k: u64,
    /// Number of distinct temporal k-cores.
    pub cores: u64,
    /// Summed edges over those cores (the paper's result size `|R|`).
    pub result_edges: u64,
}

/// The fields of one reply line the benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `"status": "ok"` query reply.
    Ok {
        /// Echoed client id.
        id: Option<u64>,
        /// Executed window `[start, end]`.
        window: (u64, u64),
        /// Per-`k` outcomes in reply order.
        outcomes: Vec<Outcome>,
        /// Service-side queue wait, µs.
        queue_wait_us: u64,
        /// Service-side execution time, µs.
        execute_us: u64,
    },
    /// `"status": "error"` reply.
    Error {
        /// Echoed client id, when the request carried one.
        id: Option<u64>,
        /// Stable error code (`DeadlineExceeded`, `BudgetExceeded`, …).
        code: String,
    },
}

/// Decodes one reply line.
///
/// # Errors
/// A description of the defect when the line is not a JSON object or lacks
/// a field an `ok` / `error` reply must carry.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let value = Json::parse(line)?;
    let status = value
        .get("status")
        .and_then(Json::as_str)
        .ok_or("no status")?;
    let id = value.get("id").and_then(Json::as_u64);
    match status {
        "error" => Ok(Reply::Error {
            id,
            code: value
                .get("error")
                .and_then(Json::as_str)
                .ok_or("error reply without an error code")?
                .to_string(),
        }),
        "ok" => {
            let field = |key: &str| {
                value
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("reply lacks integer `{key}`"))
            };
            let window = match value.get("window") {
                Some(Json::Arr(ends)) if ends.len() == 2 => (
                    ends[0].as_u64().ok_or("bad window start")?,
                    ends[1].as_u64().ok_or("bad window end")?,
                ),
                _ => return Err("reply lacks a `window` pair".into()),
            };
            let Some(Json::Arr(items)) = value.get("outcomes") else {
                return Err("reply lacks `outcomes`".into());
            };
            let outcomes = items
                .iter()
                .map(|o| {
                    let get = |key: &str| {
                        o.get(key)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("outcome lacks integer `{key}`"))
                    };
                    Ok(Outcome {
                        k: get("k")?,
                        cores: get("cores")?,
                        result_edges: get("result_edges")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Reply::Ok {
                id,
                window,
                outcomes,
                queue_wait_us: field("queue_wait_us")?,
                execute_us: field("execute_us")?,
            })
        }
        other => Err(format!("unknown status `{other}`")),
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = reader.value(0)?;
        reader.skip_ws();
        if reader.pos != reader.bytes.len() {
            return Err(format!("trailing bytes at offset {}", reader.pos));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer (below 2^53).
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }
}

/// Nesting deeper than this is refused; replies nest three levels.
const MAX_DEPTH: usize = 16;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of line".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).ok_or("dangling escape")?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(*other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}
