//! Tokenizer for the benchmark SQL fragment.

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Keyword or identifier (keywords are recognized case-insensitively
    /// by the parser; the lexer preserves the original spelling).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `*`
    Star,
}

/// Lexical error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// Byte offset in the input.
    pub(crate) pos: usize,
    /// Human-readable message.
    pub(crate) message: String,
}

/// Tokenize `input` into a vector of tokens.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(LexError {
                                pos: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            // Strings are UTF-8; collect bytes and decode
                            // at the end would be cleaner, but the
                            // generators emit ASCII so byte-pushing with a
                            // char cast is exact here. Guard anyway:
                            if b < 0x80 {
                                s.push(b as char);
                                i += 1;
                            } else {
                                // Multi-byte sequence: find its extent.
                                let ch_str = &input[i..];
                                let ch = ch_str.chars().next().expect("non-empty");
                                s.push(ch);
                                i += ch.len_utf8();
                            }
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-' && matches!(bytes.get(i + 1), Some(d) if d.is_ascii_digit())) =>
            {
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                // A '.' here is a decimal point only if a digit follows;
                // otherwise it is a qualifier dot (e.g. `2.c` never occurs,
                // but be strict anyway).
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && matches!(bytes.get(i + 1), Some(d) if d.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v = text.parse().map_err(|_| LexError {
                        pos: start,
                        message: format!("bad float literal `{text}`"),
                    })?;
                    tokens.push(Token::Float(v));
                } else {
                    let v = text.parse().map_err(|_| LexError {
                        pos: start,
                        message: format!("bad integer literal `{text}`"),
                    })?;
                    tokens.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(LexError {
                    pos: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_basic_query() {
        let toks = lex("SELECT t.a, COUNT(*) FROM t WHERE t.a = 'x''y'").unwrap();
        assert!(toks.contains(&Token::Str("x'y".into())));
        assert!(toks.contains(&Token::Star));
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(
            lex("42 -7 3.5").unwrap(),
            vec![Token::Int(42), Token::Int(-7), Token::Float(3.5)]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("'abc").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.pos, 0);
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(lex("a ; b").is_err());
    }

    #[test]
    fn qualifier_dot_is_not_decimal() {
        let toks = lex("t1.c2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t1".into()),
                Token::Dot,
                Token::Ident("c2".into())
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("< <= > >=").unwrap(),
            vec![Token::Lt, Token::Le, Token::Gt, Token::Ge]
        );
    }

    #[test]
    fn unicode_in_strings() {
        let toks = lex("'prot\u{00e9}ine'").unwrap();
        assert_eq!(toks, vec![Token::Str("prot\u{00e9}ine".into())]);
    }
}
