//! Immutable short strings stored inline.
//!
//! Most identifiers and number literals in HDL source are a handful of
//! bytes, yet an AST that holds each one in a `String` pays a heap
//! allocation to build it and a free to drop it. [`ShortStr`] keeps up
//! to [`ShortStr::INLINE_CAP`] bytes inside the value itself (it is the
//! size of a `String`) and boxes only longer text.

use std::fmt;
use std::ops::Deref;

/// An immutable string that stores short text inline.
///
/// It derefs to `str`, and compares and prints exactly like the `str`
/// it holds.
///
/// ```
/// use aivril_hdl::short_str::ShortStr;
///
/// let name = ShortStr::new("count_q");
/// assert_eq!(&*name, "count_q");
/// assert_eq!(name.len(), 7);
/// ```
#[derive(Clone)]
pub struct ShortStr(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; ShortStr::INLINE_CAP],
    },
    Heap(Box<str>),
}

impl ShortStr {
    /// Longest text kept inline, in bytes.
    pub const INLINE_CAP: usize = 22;

    /// Copies `text`, inline when it fits.
    #[must_use]
    pub fn new(text: &str) -> ShortStr {
        if text.len() <= Self::INLINE_CAP {
            let mut bytes = [0; Self::INLINE_CAP];
            bytes[..text.len()].copy_from_slice(text.as_bytes());
            ShortStr(Repr::Inline {
                len: text.len() as u8,
                bytes,
            })
        } else {
            ShortStr(Repr::Heap(text.into()))
        }
    }

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are copied from a whole str"),
            Repr::Heap(text) => text,
        }
    }

    /// `true` when the text did not fit inline.
    #[cfg(test)]
    fn is_heap(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl Deref for ShortStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for ShortStr {
    fn from(text: &str) -> ShortStr {
        ShortStr::new(text)
    }
}

impl PartialEq<str> for ShortStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl fmt::Debug for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_size_as_string() {
        assert_eq!(
            std::mem::size_of::<ShortStr>(),
            std::mem::size_of::<String>()
        );
    }

    #[test]
    fn inline_up_to_capacity_then_heap() {
        for len in 0..=40 {
            let text: String = "abcdefghij".chars().cycle().take(len).collect();
            let s = ShortStr::new(&text);
            assert_eq!(s.as_str(), text);
            assert_eq!(s.is_heap(), len > ShortStr::INLINE_CAP, "len {len}");
        }
    }

    #[test]
    fn multibyte_text_round_trips() {
        for text in [
            "caf\u{e9}",
            "\u{263a}\u{263a}\u{263a}\u{263a}\u{263a}\u{263a}\u{263a}\u{263a}",
        ] {
            assert_eq!(ShortStr::new(text).as_str(), text);
        }
    }

    #[test]
    fn prints_like_str() {
        let key = ShortStr::new("clk");
        assert_eq!(format!("{key} {key:?}"), "clk \"clk\"");
    }
}
