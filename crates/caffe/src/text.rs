//! Protobuf text format (`prototxt`) parser.
//!
//! Implements the subset of the protobuf text format that Caffe network
//! descriptions use: scalar fields (`name: "LeNet"`), nested messages
//! (`layer { ... }`, with or without a `:` before the brace), repeated
//! fields by repetition, `#` comments, and string/number/identifier/bool
//! scalars. Parsing is schema-less into a [`TextMessage`] tree; the typed
//! schema mapping lives in [`crate::model`].

use std::fmt;

/// Machine-readable classification of a prototxt failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TextErrorKind {
    /// Tokenisation, grammar or schema-shape failure.
    #[default]
    Syntax,
    /// A layer's `bottom` names a blob that no earlier layer's `top`
    /// (nor a top-level `input`) declared.
    UndeclaredBottom,
}

/// A parse or schema-validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line (0 for schema errors without a position).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Machine-readable classification.
    pub kind: TextErrorKind,
}

impl TextError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TextError {
            line,
            message: message.into(),
            kind: TextErrorKind::Syntax,
        }
    }

    /// A schema-level error not tied to a source position.
    pub fn schema(message: impl Into<String>) -> Self {
        TextError {
            line: 0,
            message: message.into(),
            kind: TextErrorKind::Syntax,
        }
    }

    /// Layer `layer` reads blob `blob` that nothing declared.
    pub fn undeclared_bottom(layer: &str, blob: &str) -> Self {
        TextError {
            line: 0,
            message: format!(
                "layer '{layer}' reads bottom blob '{blob}', but no earlier layer \
                 (nor a top-level input) declares it"
            ),
            kind: TextErrorKind::UndeclaredBottom,
        }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "prototxt error: {}", self.message)
        } else {
            write!(f, "prototxt error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TextError {}

/// A scalar field value as written in the file.
#[derive(Clone, Debug, PartialEq)]
pub enum TextScalar {
    /// Quoted string.
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// Bare identifier: enum value, `true`/`false`.
    Ident(String),
}

/// A field value: scalar or nested message.
#[derive(Clone, Debug, PartialEq)]
pub enum TextValue {
    /// `field: scalar`
    Scalar(TextScalar),
    /// `field { ... }`
    Message(TextMessage),
}

/// An ordered multimap of fields, as text format allows repetition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TextMessage {
    /// Fields in file order.
    pub fields: Vec<(String, TextValue)>,
}

impl TextMessage {
    /// Parses a whole prototxt document.
    pub fn parse(input: &str) -> Result<TextMessage, TextError> {
        let mut lexer = Lexer::new(input);
        let msg = parse_fields(&mut lexer, 0)?;
        match lexer.next()? {
            Token::Eof => Ok(msg),
            t => Err(TextError::at(
                lexer.line,
                format!("unexpected {} at top level", t.describe()),
            )),
        }
    }

    /// All values for a (possibly repeated) field name, in order.
    pub fn all(&self, name: &str) -> Vec<&TextValue> {
        self.fields
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect()
    }

    /// The single value for a field; errors if repeated.
    pub fn single(&self, name: &str) -> Result<Option<&TextValue>, TextError> {
        let matches = self.all(name);
        if matches.len() > 1 {
            return Err(TextError::schema(format!(
                "field '{name}' given more than once"
            )));
        }
        Ok(matches.into_iter().next())
    }

    /// Optional string field with a default.
    pub fn string_or(&self, name: &str, default: &str) -> Result<String, TextError> {
        match self.single(name)? {
            None => Ok(default.to_string()),
            Some(TextValue::Scalar(TextScalar::Str(s))) => Ok(s.clone()),
            Some(v) => Err(type_err(name, "string", v)),
        }
    }

    /// All string values of a repeated field.
    pub fn strings(&self, name: &str) -> Result<Vec<String>, TextError> {
        self.all(name)
            .into_iter()
            .map(|v| match v {
                TextValue::Scalar(TextScalar::Str(s)) => Ok(s.clone()),
                other => Err(type_err(name, "string", other)),
            })
            .collect()
    }

    /// Optional unsigned integer with a default.
    pub fn uint_or(&self, name: &str, default: u32) -> Result<u32, TextError> {
        match self.single(name)? {
            None => Ok(default),
            Some(TextValue::Scalar(TextScalar::Num(n))) if n.fract() == 0.0 && *n >= 0.0 => {
                Ok(*n as u32)
            }
            Some(v) => Err(type_err(name, "unsigned integer", v)),
        }
    }

    /// All unsigned-integer values of a repeated field.
    pub fn uints(&self, name: &str) -> Result<Vec<u64>, TextError> {
        self.all(name)
            .into_iter()
            .map(|v| match v {
                TextValue::Scalar(TextScalar::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => {
                    Ok(*n as u64)
                }
                other => Err(type_err(name, "unsigned integer", other)),
            })
            .collect()
    }

    /// Optional float with a default.
    pub fn float_or(&self, name: &str, default: f32) -> Result<f32, TextError> {
        match self.single(name)? {
            None => Ok(default),
            Some(TextValue::Scalar(TextScalar::Num(n))) => Ok(*n as f32),
            Some(v) => Err(type_err(name, "number", v)),
        }
    }

    /// Optional bool (`true`/`false` identifiers) with a default.
    pub fn bool_or(&self, name: &str, default: bool) -> Result<bool, TextError> {
        match self.single(name)? {
            None => Ok(default),
            Some(TextValue::Scalar(TextScalar::Ident(id))) => match id.as_str() {
                "true" => Ok(true),
                "false" => Ok(false),
                _ => Err(TextError::schema(format!(
                    "field '{name}' expects true/false, got '{id}'"
                ))),
            },
            Some(v) => Err(type_err(name, "bool", v)),
        }
    }

    /// Optional enum identifier with a default.
    pub fn ident_or(&self, name: &str, default: &str) -> Result<String, TextError> {
        match self.single(name)? {
            None => Ok(default.to_string()),
            Some(TextValue::Scalar(TextScalar::Ident(id))) => Ok(id.clone()),
            Some(v) => Err(type_err(name, "identifier", v)),
        }
    }

    /// Optional nested message.
    pub fn message(&self, name: &str) -> Result<Option<&TextMessage>, TextError> {
        match self.single(name)? {
            None => Ok(None),
            Some(TextValue::Message(m)) => Ok(Some(m)),
            Some(v) => Err(type_err(name, "message", v)),
        }
    }

    /// All nested messages of a repeated field.
    pub fn messages(&self, name: &str) -> Result<Vec<&TextMessage>, TextError> {
        self.all(name)
            .into_iter()
            .map(|v| match v {
                TextValue::Message(m) => Ok(m),
                other => Err(type_err(name, "message", other)),
            })
            .collect()
    }

    /// Appends a scalar field.
    fn push_scalar(&mut self, name: &str, value: TextScalar) {
        self.fields
            .push((name.to_string(), TextValue::Scalar(value)));
    }

    /// Appends a string field.
    pub fn push_str(&mut self, name: &str, value: &str) {
        self.push_scalar(name, TextScalar::Str(value.to_string()));
    }

    /// Appends a numeric field.
    pub fn push_num(&mut self, name: &str, value: f64) {
        self.push_scalar(name, TextScalar::Num(value));
    }

    /// Appends an identifier (enum / bool) field.
    pub fn push_ident(&mut self, name: &str, value: &str) {
        self.push_scalar(name, TextScalar::Ident(value.to_string()));
    }

    /// Appends a nested message field.
    pub fn push_message(&mut self, name: &str, value: TextMessage) {
        self.fields
            .push((name.to_string(), TextValue::Message(value)));
    }

    /// Serialises back to prototxt text (the inverse of
    /// [`TextMessage::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_fields(self, 0, &mut out);
        out
    }
}

fn write_fields(msg: &TextMessage, level: usize, out: &mut String) {
    let indent = "  ".repeat(level);
    for (name, value) in &msg.fields {
        match value {
            TextValue::Scalar(TextScalar::Str(s)) => {
                out.push_str(&format!("{indent}{name}: \"{}\"\n", escape_text(s)));
            }
            TextValue::Scalar(TextScalar::Num(n)) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{indent}{name}: {}\n", *n as i64));
                } else {
                    out.push_str(&format!("{indent}{name}: {n}\n"));
                }
            }
            TextValue::Scalar(TextScalar::Ident(id)) => {
                out.push_str(&format!("{indent}{name}: {id}\n"));
            }
            TextValue::Message(inner) => {
                out.push_str(&format!("{indent}{name} {{\n"));
                write_fields(inner, level + 1, out);
                out.push_str(&format!("{indent}}}\n"));
            }
        }
    }
}

fn escape_text(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            '\t' => vec!['\\', 't'],
            '\r' => vec!['\\', 'r'],
            other => vec![other],
        })
        .collect()
}

fn type_err(name: &str, want: &str, got: &TextValue) -> TextError {
    let got_desc = match got {
        TextValue::Scalar(TextScalar::Str(_)) => "string",
        TextValue::Scalar(TextScalar::Num(_)) => "number",
        TextValue::Scalar(TextScalar::Ident(_)) => "identifier",
        TextValue::Message(_) => "message",
    };
    TextError::schema(format!("field '{name}' expects {want}, got {got_desc}"))
}

#[derive(Debug, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(f64),
    Colon,
    LBrace,
    RBrace,
    Eof,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::Str(_) => "string".into(),
            Token::Num(n) => format!("number {n}"),
            Token::Colon => "':'".into(),
            Token::LBrace => "'{'".into(),
            Token::RBrace => "'}'".into(),
            Token::Eof => "end of file".into(),
        }
    }
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    peeked: Option<Token>,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            peeked: None,
        }
    }

    fn err(&self, msg: impl Into<String>) -> TextError {
        TextError::at(self.line, msg)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.bytes.get(self.pos) {
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b' ' | b'\t' | b'\r' | b',' | b';') => self.pos += 1,
                Some(b'#') => {
                    while !matches!(self.bytes.get(self.pos), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn peek(&mut self) -> Result<&Token, TextError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lex()?);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    fn next(&mut self) -> Result<Token, TextError> {
        match self.peeked.take() {
            Some(t) => Ok(t),
            None => self.lex(),
        }
    }

    fn lex(&mut self) -> Result<Token, TextError> {
        self.skip_trivia();
        let Some(&b) = self.bytes.get(self.pos) else {
            return Ok(Token::Eof);
        };
        match b {
            b':' => {
                self.pos += 1;
                Ok(Token::Colon)
            }
            b'{' => {
                self.pos += 1;
                Ok(Token::LBrace)
            }
            b'}' => {
                self.pos += 1;
                Ok(Token::RBrace)
            }
            b'"' | b'\'' => self.lex_string(b),
            b'-' | b'+' | b'0'..=b'9' | b'.' => self.lex_number(),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
            other => Err(self.err(format!("unexpected character '{}'", other as char))),
        }
    }

    fn lex_string(&mut self, quote: u8) -> Result<Token, TextError> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None | Some(b'\n') => return Err(self.err("unterminated string")),
                Some(b) if b == quote => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map(Token::Str)
                        .map_err(|_| self.err("invalid UTF-8 in string"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'\\' => b'\\',
                        b'"' => b'"',
                        b'\'' => b'\'',
                        other => {
                            return Err(self.err(format!("unknown escape '\\{}'", other as char)))
                        }
                    });
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn lex_number(&mut self) -> Result<Token, TextError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Token::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    fn lex_ident(&mut self) -> Result<Token, TextError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Ok(Token::Ident(text.to_string()))
    }
}

/// Nesting bound to keep adversarial files from exhausting the stack.
const MAX_DEPTH: usize = 64;

fn parse_fields(lexer: &mut Lexer<'_>, depth: usize) -> Result<TextMessage, TextError> {
    if depth > MAX_DEPTH {
        return Err(lexer.err(format!("nesting deeper than {MAX_DEPTH}")));
    }
    let mut msg = TextMessage::default();
    loop {
        let bad = match lexer.peek()? {
            Token::Eof | Token::RBrace => return Ok(msg),
            Token::Ident(_) => None,
            t => Some(t.describe()),
        };
        if let Some(desc) = bad {
            return Err(lexer.err(format!("expected field name, found {desc}")));
        }
        let Token::Ident(name) = lexer.next()? else {
            unreachable!("peeked ident");
        };
        match lexer.peek()? {
            Token::Colon => {
                lexer.next()?;
                // `field: { ... }` is also legal text format.
                if matches!(lexer.peek()?, Token::LBrace) {
                    lexer.next()?;
                    let inner = parse_fields(lexer, depth + 1)?;
                    expect_rbrace(lexer)?;
                    msg.fields.push((name, TextValue::Message(inner)));
                    continue;
                }
                let scalar = match lexer.next()? {
                    Token::Str(s) => TextScalar::Str(s),
                    Token::Num(n) => TextScalar::Num(n),
                    Token::Ident(id) => TextScalar::Ident(id),
                    t => {
                        return Err(lexer.err(format!(
                            "expected scalar value for '{name}', found {}",
                            t.describe()
                        )))
                    }
                };
                msg.fields.push((name, TextValue::Scalar(scalar)));
            }
            Token::LBrace => {
                lexer.next()?;
                let inner = parse_fields(lexer, depth + 1)?;
                expect_rbrace(lexer)?;
                msg.fields.push((name, TextValue::Message(inner)));
            }
            t => {
                let desc = t.describe();
                return Err(lexer.err(format!("expected ':' or '{{' after '{name}', found {desc}")));
            }
        }
    }
}

fn expect_rbrace(lexer: &mut Lexer<'_>) -> Result<(), TextError> {
    match lexer.next()? {
        Token::RBrace => Ok(()),
        t => Err(lexer.err(format!("expected '}}', found {}", t.describe()))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    const LENET_SNIPPET: &str = r#"
name: "LeNet"
layer {
  name: "data"
  type: "Input"
  top: "data"
  input_param { shape: { dim: 64 dim: 1 dim: 28 dim: 28 } }
}
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param {
    num_output: 20
    kernel_size: 5
    stride: 1
  }
}
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "conv1"
  top: "pool1"
  pooling_param {
    pool: MAX
    kernel_size: 2
    stride: 2
  }
}
"#;

    #[test]
    fn parses_lenet_snippet() {
        let msg = TextMessage::parse(LENET_SNIPPET).unwrap();
        assert_eq!(msg.string_or("name", "").unwrap(), "LeNet");
        let layers = msg.messages("layer").unwrap();
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[1].string_or("type", "").unwrap(), "Convolution");
        let conv = layers[1].message("convolution_param").unwrap().unwrap();
        assert_eq!(conv.uint_or("num_output", 0).unwrap(), 20);
        assert_eq!(conv.uint_or("kernel_size", 0).unwrap(), 5);
        let pool = layers[2].message("pooling_param").unwrap().unwrap();
        assert_eq!(pool.ident_or("pool", "MAX").unwrap(), "MAX");
    }

    #[test]
    fn colon_before_brace_is_accepted() {
        let msg = TextMessage::parse("input_param: { shape: { dim: 1 } }").unwrap();
        let ip = msg.message("input_param").unwrap().unwrap();
        let shape = ip.message("shape").unwrap().unwrap();
        assert_eq!(shape.uints("dim").unwrap(), vec![1]);
    }

    #[test]
    fn comments_and_commas_are_trivia() {
        let msg = TextMessage::parse("# header\na: 1, b: 2; # trailing\nc: 3").unwrap();
        assert_eq!(msg.uint_or("a", 0).unwrap(), 1);
        assert_eq!(msg.uint_or("b", 0).unwrap(), 2);
        assert_eq!(msg.uint_or("c", 0).unwrap(), 3);
    }

    #[test]
    fn repeated_scalars_collect_in_order() {
        let msg = TextMessage::parse(r#"input: "a" input: "b" input_dim: 1 input_dim: 2"#).unwrap();
        assert_eq!(msg.strings("input").unwrap(), vec!["a", "b"]);
        assert_eq!(msg.uints("input_dim").unwrap(), vec![1, 2]);
    }

    #[test]
    fn string_escapes_decode() {
        let msg = TextMessage::parse(r#"name: "a\nb\t\"c\"""#).unwrap();
        assert_eq!(msg.string_or("name", "").unwrap(), "a\nb\t\"c\"");
    }

    #[test]
    fn single_quotes_accepted() {
        let msg = TextMessage::parse("name: 'x'").unwrap();
        assert_eq!(msg.string_or("name", "").unwrap(), "x");
    }

    #[test]
    fn bool_and_float_fields() {
        let msg = TextMessage::parse("bias_term: false negative_slope: 0.1").unwrap();
        assert!(!msg.bool_or("bias_term", true).unwrap());
        assert!((msg.float_or("negative_slope", 0.0).unwrap() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = TextMessage::parse("a: 1\nb: @").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "layer {",           // unbalanced brace
            "}",                 // stray brace
            "a b",               // no separator
            "a:",                // missing value
            "a: \"unterminated", // bad string
            "a: 1 }",
        ] {
            assert!(TextMessage::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn duplicate_singular_field_detected_at_access() {
        let msg = TextMessage::parse("name: \"a\" name: \"b\"").unwrap();
        assert!(msg.string_or("name", "").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let doc = "m {".repeat(100) + &"}".repeat(100);
        assert!(TextMessage::parse(&doc).is_err());
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let msg = TextMessage::parse("a: -2.5e3 b: +7").unwrap();
        assert!((msg.float_or("a", 0.0).unwrap() + 2500.0).abs() < 1e-3);
        assert_eq!(msg.uint_or("b", 0).unwrap(), 7);
    }
}
