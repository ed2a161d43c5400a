//! Verilog integer-literal parsing (`8'hFF`, `4'b10xz`, `42`).

use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::logic::Logic;
use aivril_hdl::source::Span;
use aivril_hdl::vec::LogicVec;
use std::borrow::Cow;

/// Parses a literal's text into a [`LogicVec`], reporting malformed
/// literals to `diags` and substituting zero so elaboration can continue.
pub fn parse_literal(text: &str, span: Span, diags: &mut Diagnostics) -> LogicVec {
    match try_parse_literal(text) {
        Some(v) => v,
        None => {
            diags.push(Diagnostic::error(
                codes::VLOG_SYNTAX,
                format!("malformed number literal '{text}'"),
                span,
            ));
            LogicVec::zeros(32)
        }
    }
}

/// Pure parsing helper; `None` when the text is not a valid literal.
///
/// Allocation-free for the common spelling: the text is borrowed unless
/// it contains `_` separators, the digits are a slice of it, and the
/// value is built in place rather than from a list of bits.
#[must_use]
pub fn try_parse_literal(text: &str) -> Option<LogicVec> {
    let text: Cow<'_, str> = if text.contains('_') {
        Cow::Owned(text.replace('_', ""))
    } else {
        Cow::Borrowed(text)
    };
    let text = text.as_ref();
    let Some(tick) = text.find('\'') else {
        return Some(LogicVec::from_u64(32, text.parse().ok()?));
    };
    let size: u32 = if tick == 0 {
        32
    } else {
        text[..tick].parse().ok()?
    };
    if size == 0 || size > 4096 {
        return None;
    }
    let mut rest = &text[tick + 1..];
    let mut base_c = rest.chars().next()?;
    rest = &rest[base_c.len_utf8()..];
    if base_c == 's' || base_c == 'S' {
        base_c = rest.chars().next()?;
        rest = &rest[base_c.len_utf8()..];
    }
    let digits = rest;
    if digits.is_empty() {
        return None;
    }
    let bits_per: u32 = match base_c.to_ascii_lowercase() {
        'b' => 1,
        'o' => 3,
        'h' => 4,
        'd' => 0,
        _ => return None,
    };
    if bits_per == 0 {
        // Decimal: x/z digits are only legal alone.
        if digits.eq_ignore_ascii_case("x") {
            return Some(LogicVec::xes(size));
        }
        if digits.eq_ignore_ascii_case("z") {
            return Some(LogicVec::filled(size, Logic::Z));
        }
        return Some(LogicVec::from_u64(size, digits.parse().ok()?));
    }
    // Binary/octal/hex with four-state digits, written from the LSB end
    // straight into a value of the declared size: bits past the size are
    // truncated from the left, and the bits above the digits keep the
    // pad, 0 / X / Z after the leftmost digit (IEEE 1364 rule).
    let pad = match digits.as_bytes()[0].to_ascii_lowercase() {
        b'x' => Logic::X,
        b'z' | b'?' => Logic::Z,
        _ => Logic::Zero,
    };
    let mut value = LogicVec::filled(size, pad);
    let mask = (1u32 << bits_per) - 1;
    let mut lsb: u32 = 0;
    for c in digits.chars().rev() {
        let (aval, bval) = match c.to_ascii_lowercase() {
            'x' => (mask, mask),
            'z' | '?' => (0, mask),
            d => (d.to_digit(1 << bits_per)?, 0),
        };
        for i in 0..bits_per {
            let bit = Logic::from_avab(aval >> i & 1 == 1, bval >> i & 1 == 1);
            value.set(lsb.saturating_add(i), bit);
        }
        lsb = lsb.saturating_add(bits_per);
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_decimal_is_32_bit() {
        let v = try_parse_literal("42").expect("valid");
        assert_eq!(v.width(), 32);
        assert_eq!(v.to_u64(), Some(42));
    }

    #[test]
    fn sized_hex() {
        let v = try_parse_literal("8'hA5").expect("valid");
        assert_eq!(v.width(), 8);
        assert_eq!(v.to_u64(), Some(0xA5));
    }

    #[test]
    fn binary_with_x_and_z() {
        let v = try_parse_literal("4'b1xz0").expect("valid");
        assert_eq!(v.get(3), Logic::One);
        assert_eq!(v.get(2), Logic::X);
        assert_eq!(v.get(1), Logic::Z);
        assert_eq!(v.get(0), Logic::Zero);
    }

    #[test]
    fn x_extension_pads_left() {
        let v = try_parse_literal("8'bx1").expect("valid");
        assert_eq!(v.get(7), Logic::X);
        assert_eq!(v.get(1), Logic::X);
        assert_eq!(v.get(0), Logic::One);
    }

    #[test]
    fn zero_extension_for_known_digits() {
        let v = try_parse_literal("8'b11").expect("valid");
        assert_eq!(v.to_u64(), Some(3));
    }

    #[test]
    fn truncation_from_left() {
        let v = try_parse_literal("4'hFF").expect("valid");
        assert_eq!(v.to_u64(), Some(0xF));
    }

    #[test]
    fn unsized_based_literal() {
        let v = try_parse_literal("'d9").expect("valid");
        assert_eq!(v.width(), 32);
        assert_eq!(v.to_u64(), Some(9));
    }

    #[test]
    fn underscores_ignored() {
        let v = try_parse_literal("16'b1010_1010_1010_1010").expect("valid");
        assert_eq!(v.to_u64(), Some(0xAAAA));
    }

    #[test]
    fn octal() {
        let v = try_parse_literal("6'o17").expect("valid");
        assert_eq!(v.to_u64(), Some(0o17));
    }

    #[test]
    fn decimal_x() {
        let v = try_parse_literal("8'dx").expect("valid");
        assert!(v.iter().all(|b| b == Logic::X));
    }

    #[test]
    fn malformed_literals_rejected() {
        assert!(try_parse_literal("8'q1").is_none());
        assert!(try_parse_literal("8'h").is_none());
        assert!(try_parse_literal("abc").is_none());
        assert!(try_parse_literal("8'dzz").is_none());
        assert!(try_parse_literal("0'b1").is_none());
    }
}
