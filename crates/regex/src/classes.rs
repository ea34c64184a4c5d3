//! Byte sets — the "decoded character" alphabet of the hardware.
//!
//! Every distinct byte (or byte class) used by any token pattern becomes a
//! *character decoder* in the generated circuit (Figures 4 and 5 of the
//! paper): an 8-input AND gate with selective inversion for a single byte,
//! or an OR combination of such decoders for classes like `nocase`,
//! `alphabet` and `alpha-numeric`. [`ByteSet`] is the software value these
//! decoders compute: a 256-bit membership set.

use std::fmt;

/// A set of byte values, stored as a 256-bit bitmap.
///
/// This is `Copy` and all operations are branch-free word ops, so it is
/// cheap enough to use as the alphabet symbol everywhere (templates, NFA
/// transitions, decoder descriptions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteSet {
    bits: [u64; 4],
}

impl ByteSet {
    /// The empty set.
    pub const EMPTY: ByteSet = ByteSet { bits: [0; 4] };

    /// The full set (all 256 byte values).
    pub const FULL: ByteSet = ByteSet { bits: [u64::MAX; 4] };

    /// A set containing a single byte.
    pub fn singleton(b: u8) -> Self {
        let mut s = Self::EMPTY;
        s.insert(b);
        s
    }

    /// A set containing the inclusive range `lo..=hi`.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut s = Self::EMPTY;
        let mut b = lo;
        loop {
            s.insert(b);
            if b == hi {
                break;
            }
            b += 1;
        }
        s
    }

    /// Case-insensitive singleton: `{c, toggled-case(c)}` for ASCII
    /// letters, `{c}` otherwise. This is the paper's `nocase` decoder
    /// (Figure 5, "term: nocase a").
    pub fn nocase(b: u8) -> Self {
        let mut s = Self::singleton(b);
        if b.is_ascii_alphabetic() {
            s.insert(b ^ 0x20);
        }
        s
    }

    /// ASCII letters `[a-zA-Z]` — the paper's `alphabet` decoder.
    pub fn alphabet() -> Self {
        Self::range(b'a', b'z').union(Self::range(b'A', b'Z'))
    }

    /// ASCII letters and digits `[a-zA-Z0-9]` — the paper's
    /// `alpha-numeric` decoder.
    pub fn alphanumeric() -> Self {
        Self::alphabet().union(Self::digits())
    }

    /// ASCII digits `[0-9]`.
    pub fn digits() -> Self {
        Self::range(b'0', b'9')
    }

    /// Lex-style `\w`: letters, digits and underscore.
    pub fn word() -> Self {
        let mut s = Self::alphanumeric();
        s.insert(b'_');
        s
    }

    /// ASCII whitespace — the default *delimiter* class of the lexical
    /// scanner (space, tab, CR, LF, vertical tab, form feed).
    pub fn whitespace() -> Self {
        let mut s = Self::EMPTY;
        for b in [b' ', b'\t', b'\r', b'\n', 0x0b, 0x0c] {
            s.insert(b);
        }
        s
    }

    /// Lex's `.`: any byte except newline.
    pub fn dot() -> Self {
        Self::singleton(b'\n').complement()
    }

    /// Insert a byte.
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Remove a byte.
    pub fn remove(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Set union.
    pub fn union(&self, other: Self) -> Self {
        let mut bits = self.bits;
        for (a, b) in bits.iter_mut().zip(other.bits) {
            *a |= b;
        }
        ByteSet { bits }
    }

    /// Set intersection.
    pub fn intersect(&self, other: Self) -> Self {
        let mut bits = self.bits;
        for (a, b) in bits.iter_mut().zip(other.bits) {
            *a &= b;
        }
        ByteSet { bits }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: Self) -> Self {
        let mut bits = self.bits;
        for (a, b) in bits.iter_mut().zip(other.bits) {
            *a &= !b;
        }
        ByteSet { bits }
    }

    /// Complement within the 256-value byte universe — the paper's `!`
    /// operator (Figure 6b).
    pub fn complement(&self) -> Self {
        let mut bits = self.bits;
        for a in bits.iter_mut() {
            *a = !*a;
        }
        ByteSet { bits }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Do the two sets share any byte?
    pub fn intersects(&self, other: Self) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset(&self, other: Self) -> bool {
        self.difference(other).is_empty()
    }

    /// Iterate over member bytes in ascending order, visiting only the
    /// members.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().zip(0u8..).flat_map(|(&word, k)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                    k * 64 + bit
                })
            })
        })
    }

    /// The raw 256-bit membership bitmap as four `u64` words, word `k`
    /// covering bytes `64k..64k+63` (bit `b & 63` within the word). This
    /// is the decoder's truth table exported for bit-parallel kernels:
    /// a byte-class decode ROM is just these words rearranged so that
    /// one *byte* indexes a mask over *positions*.
    pub fn as_words(&self) -> [u64; 4] {
        self.bits
    }

    /// The single member, if the set is a singleton.
    pub fn as_singleton(&self) -> Option<u8> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// A compact human-readable rendering like `[a-z0-9_]`, used in net
    /// names and VHDL comments.
    pub fn describe(&self) -> String {
        if self.is_empty() {
            return "[]".to_owned();
        }
        if *self == Self::FULL {
            return "[\\x00-\\xff]".to_owned();
        }
        // Render the complement when it is much smaller, e.g. `[^<]`.
        let comp = self.complement();
        if comp.len() < self.len() && comp.len() <= 4 {
            let mut s = String::from("[^");
            for b in comp.iter() {
                push_byte(&mut s, b);
            }
            s.push(']');
            return s;
        }
        if let Some(b) = self.as_singleton() {
            let mut s = String::new();
            push_byte(&mut s, b);
            return s;
        }
        let mut s = String::from("[");
        let mut b = 0usize;
        while b < 256 {
            if self.contains(b as u8) {
                let start = b;
                while b + 1 < 256 && self.contains((b + 1) as u8) {
                    b += 1;
                }
                push_byte(&mut s, start as u8);
                if b > start + 1 {
                    s.push('-');
                    push_byte(&mut s, b as u8);
                } else if b == start + 1 {
                    push_byte(&mut s, b as u8);
                }
            }
            b += 1;
        }
        s.push(']');
        s
    }
}

fn push_byte(s: &mut String, b: u8) {
    match b {
        b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => s.push(b as char),
        b'\n' => s.push_str("\\n"),
        b'\r' => s.push_str("\\r"),
        b'\t' => s.push_str("\\t"),
        0x20..=0x7e => {
            if matches!(b, b'[' | b']' | b'-' | b'^' | b'\\') {
                s.push('\\');
            }
            s.push(b as char);
        }
        _ => s.push_str(&format!("\\x{b:02x}")),
    }
}

impl Default for ByteSet {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl fmt::Debug for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSet({})", self.describe())
    }
}

impl fmt::Display for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

impl FromIterator<u8> for ByteSet {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut s = Self::EMPTY;
        for b in iter {
            s.insert(b);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_range() {
        let s = ByteSet::singleton(b'a');
        assert!(s.contains(b'a'));
        assert!(!s.contains(b'b'));
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_singleton(), Some(b'a'));

        let r = ByteSet::range(b'0', b'9');
        assert_eq!(r.len(), 10);
        assert!(r.contains(b'5'));
        assert!(!r.contains(b'a'));
    }

    #[test]
    fn full_range_wraparound_safe() {
        let r = ByteSet::range(0, 255);
        assert_eq!(r, ByteSet::FULL);
        assert_eq!(r.len(), 256);
    }

    #[test]
    fn nocase_pairs_letters() {
        assert_eq!(ByteSet::nocase(b'a'), ByteSet::nocase(b'A'));
        assert_eq!(ByteSet::nocase(b'a').len(), 2);
        assert_eq!(ByteSet::nocase(b'7').len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = ByteSet::range(b'a', b'f');
        let b = ByteSet::range(b'd', b'k');
        assert_eq!(a.union(b).len(), 11);
        assert_eq!(a.intersect(b).len(), 3);
        assert_eq!(a.difference(b).len(), 3);
        assert!(a.intersects(b));
        assert!(!a.is_subset(b));
        assert!(a.intersect(b).is_subset(a));
        assert_eq!(a.complement().complement(), a);
        assert_eq!(a.complement().len(), 250);
    }

    #[test]
    fn named_classes() {
        assert_eq!(ByteSet::alphabet().len(), 52);
        assert_eq!(ByteSet::alphanumeric().len(), 62);
        assert_eq!(ByteSet::digits().len(), 10);
        assert_eq!(ByteSet::word().len(), 63);
        assert_eq!(ByteSet::whitespace().len(), 6);
        assert_eq!(ByteSet::dot().len(), 255);
        assert!(!ByteSet::dot().contains(b'\n'));
    }

    #[test]
    fn describe_renderings() {
        assert_eq!(ByteSet::singleton(b'a').describe(), "a");
        assert_eq!(ByteSet::digits().describe(), "[0-9]");
        assert_eq!(ByteSet::singleton(b'<').complement().describe(), "[^<]");
        assert_eq!(ByteSet::EMPTY.describe(), "[]");
        let two = ByteSet::from_iter([b'a', b'b']);
        assert_eq!(two.describe(), "[ab]");
    }

    #[test]
    fn iter_ascending() {
        let s = ByteSet::from_iter([b'z', b'a', b'm']);
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![b'a', b'm', b'z']);
    }
}
