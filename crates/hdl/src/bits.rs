//! The four-state operator kernel: borrowed bit-plane views and
//! reusable scratch buffers.
//!
//! This is the codebase's only implementation of the IEEE 1364 operator
//! semantics. The simulator's compiled bytecode runs it in place over a
//! pre-sized arena, and every [`LogicVec`] operator is a thin wrapper
//! that loads a [`ScratchBuf`], applies one in-place operation and
//! converts back. The module provides:
//!
//! * [`BitsRef`] — a cheap read-only view of `(width, aval, bval)`
//!   planes, usable over both `LogicVec` storage and scratch storage,
//!   carrying the read-only operators (predicates, reductions,
//!   comparisons);
//! * [`ScratchBuf`] — an owned, capacity-retaining plane pair with
//!   in-place word-parallel four-state operations (`dst = dst op rhs`).
//!
//! All operations process 64 lanes per word over the packed planes;
//! `crates/hdl/tests/logicvec_diff.rs` pins them against a scalar
//! per-bit oracle.
//!
//! # Invariant
//!
//! Plane bits at positions `>= width` in the top word are always zero.
//! Every mutating operation re-establishes this via [`ScratchBuf`]'s
//! top-word masking, mirroring `LogicVec::mask_top`.

use crate::logic::Logic;
use crate::vec::LogicVec;
use std::cmp::Ordering;

/// Number of 64-bit words needed for `width` bits.
pub(crate) fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Mask covering the low `width` bits of a word (`width` clamped to 64).
pub(crate) fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Word `i` of a plane, reading zero beyond its end (the implicit
/// zero-extension every width-mixing operation relies on).
pub(crate) fn word_at(plane: &[u64], i: usize) -> u64 {
    plane.get(i).copied().unwrap_or(0)
}

/// The 64 plane bits starting at bit position `bit`, zero-extended.
pub(crate) fn extract_word(plane: &[u64], bit: u32) -> u64 {
    let (ws, bs) = ((bit / 64) as usize, bit % 64);
    let lo = word_at(plane, ws) >> bs;
    let hi = if bs > 0 {
        word_at(plane, ws + 1) << (64 - bs)
    } else {
        0
    };
    lo | hi
}

/// ORs `src` shifted left by `shift` bits into `dst` (bits falling
/// beyond `dst` are dropped). Used by concatenation and replication.
pub(crate) fn or_shifted(dst: &mut [u64], src: &[u64], shift: u32) {
    let (ws, bs) = ((shift / 64) as usize, shift % 64);
    for (i, &w) in src.iter().enumerate() {
        let pos = ws + i;
        if pos < dst.len() {
            dst[pos] |= w << bs;
        }
        if bs > 0 && pos + 1 < dst.len() {
            dst[pos + 1] |= w >> (64 - bs);
        }
    }
}

/// Word-parallel four-state AND over one word of each operand's planes:
/// 0 where either operand is known-0, 1 where both are known-1, X
/// otherwise.
pub(crate) fn and_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let r0 = (!a1 & !b1) | (!a2 & !b2);
    let r1 = (a1 & !b1) & (a2 & !b2);
    (!r0, !r0 & !r1)
}

/// Word-parallel four-state OR: 1 where either operand is known-1, 0
/// where both are known-0, X otherwise.
pub(crate) fn or_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let r1 = (a1 & !b1) | (a2 & !b2);
    let r0 = (!a1 & !b1) & (!a2 & !b2);
    (r1 | !(r0 | r1), !(r0 | r1))
}

/// Word-parallel four-state XOR: X wherever either operand is unknown.
pub(crate) fn xor_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let unk = b1 | b2;
    ((a1 ^ a2) | unk, unk)
}

/// Word-parallel four-state XNOR: X wherever either operand is unknown.
pub(crate) fn xnor_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let unk = b1 | b2;
    (!(a1 ^ a2) | unk, unk)
}

/// A borrowed read-only view of a four-state vector's packed planes.
///
/// Works identically over [`LogicVec`] storage (via
/// [`LogicVec::as_bits`]) and [`ScratchBuf`] storage (via
/// [`ScratchBuf::as_bits`]), so consumers of evaluation results never
/// need to know where a value lives.
#[derive(Debug, Clone, Copy)]
pub struct BitsRef<'a> {
    width: u32,
    aval: &'a [u64],
    bval: &'a [u64],
}

impl<'a> BitsRef<'a> {
    /// Wraps pre-packed planes. `aval`/`bval` must hold exactly
    /// `width.div_ceil(64)` words with zero bits above `width`.
    #[must_use]
    pub fn new(width: u32, aval: &'a [u64], bval: &'a [u64]) -> BitsRef<'a> {
        debug_assert_eq!(aval.len(), words_for(width));
        debug_assert_eq!(bval.len(), words_for(width));
        BitsRef { width, aval, bval }
    }

    /// Width in bits.
    #[must_use]
    pub fn width(self) -> u32 {
        self.width
    }

    /// Word `i` of both planes, zero-extended beyond the end.
    pub(crate) fn word(self, i: usize) -> (u64, u64) {
        (word_at(self.aval, i), word_at(self.bval, i))
    }

    /// The underlying planes.
    pub(crate) fn planes(self) -> (&'a [u64], &'a [u64]) {
        (self.aval, self.bval)
    }

    /// Returns the bit at `index` (LSB = 0), or `Logic::X` out of range.
    #[must_use]
    pub fn get(self, index: u32) -> Logic {
        if index >= self.width {
            return Logic::X;
        }
        let (w, b) = ((index / 64) as usize, index % 64);
        Logic::from_avab(self.aval[w] >> b & 1 == 1, self.bval[w] >> b & 1 == 1)
    }

    /// `true` if any bit is `X` or `Z`.
    #[must_use]
    pub fn has_unknown(self) -> bool {
        self.bval.iter().any(|&w| w != 0)
    }

    /// Unsigned integer value; `None` on unknown bits or non-zero high
    /// words beyond 64 bits.
    #[must_use]
    pub fn to_u64(self) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        if self.aval.iter().skip(1).any(|&w| w != 0) {
            return None;
        }
        Some(word_at(self.aval, 0))
    }

    /// Verilog truthiness: `Some(true)` when any bit is a known `1`,
    /// `Some(false)` when all bits are known `0`, else `None`.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        let any_one = self.aval.iter().zip(self.bval).any(|(&a, &b)| a & !b != 0);
        if any_one {
            return Some(true);
        }
        if self.has_unknown() {
            return None;
        }
        Some(false)
    }

    /// Valid-bit mask for word `i` of these planes.
    fn word_mask(self, i: usize) -> u64 {
        word_mask_for(self.width, i)
    }

    /// Reduction AND over all bits: `0` if any bit is a known zero, else
    /// `X` if any bit is unknown, else `1`.
    #[must_use]
    pub fn reduce_and(self) -> Logic {
        let mut unknown = false;
        for (i, (&a, &b)) in self.aval.iter().zip(self.bval).enumerate() {
            if !a & !b & self.word_mask(i) != 0 {
                return Logic::Zero;
            }
            unknown |= b != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Reduction OR over all bits.
    #[must_use]
    pub fn reduce_or(self) -> Logic {
        let mut unknown = false;
        for (&a, &b) in self.aval.iter().zip(self.bval) {
            if a & !b != 0 {
                return Logic::One;
            }
            unknown |= b != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::Zero
        }
    }

    /// Reduction XOR (parity) over all bits.
    #[must_use]
    pub fn reduce_xor(self) -> Logic {
        if self.has_unknown() {
            return Logic::X;
        }
        let ones: u32 = self.aval.iter().map(|w| w.count_ones()).sum();
        Logic::from_bool(ones % 2 == 1)
    }

    /// Logical equality (`==`): `X` if either side has unknown bits.
    #[must_use]
    pub fn logic_eq(self, rhs: BitsRef<'_>) -> Logic {
        if self.has_unknown() || rhs.has_unknown() {
            return Logic::X;
        }
        let n = self.aval.len().max(rhs.aval.len());
        Logic::from_bool((0..n).all(|i| word_at(self.aval, i) == word_at(rhs.aval, i)))
    }

    /// Case equality (`===`): exact four-state comparison with implicit
    /// zero-extension of the shorter operand.
    #[must_use]
    pub fn case_eq(self, rhs: BitsRef<'_>) -> bool {
        let n = self.aval.len().max(rhs.aval.len());
        (0..n).all(|i| {
            word_at(self.aval, i) == word_at(rhs.aval, i)
                && word_at(self.bval, i) == word_at(rhs.bval, i)
        })
    }

    /// Unsigned value comparison; `None` when unknown bits are present.
    #[must_use]
    pub fn value_cmp(self, rhs: BitsRef<'_>) -> Option<Ordering> {
        if self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let n = self.aval.len().max(rhs.aval.len());
        for i in (0..n).rev() {
            match word_at(self.aval, i).cmp(&word_at(rhs.aval, i)) {
                Ordering::Equal => continue,
                ord => return Some(ord),
            }
        }
        Some(Ordering::Equal)
    }

    /// Unsigned less-than (`<`): `X` on unknown operands.
    #[must_use]
    pub fn lt(self, rhs: BitsRef<'_>) -> Logic {
        self.value_cmp(rhs)
            .map_or(Logic::X, |ord| Logic::from_bool(ord == Ordering::Less))
    }

    /// Unsigned less-or-equal (`<=`): `X` on unknown operands.
    #[must_use]
    pub fn le(self, rhs: BitsRef<'_>) -> Logic {
        self.value_cmp(rhs)
            .map_or(Logic::X, |ord| Logic::from_bool(ord != Ordering::Greater))
    }
}

/// Valid-bit mask for word `i` of a `width`-bit vector's planes.
pub(crate) fn word_mask_for(width: u32, i: usize) -> u64 {
    let rem = width % 64;
    if rem != 0 && i == words_for(width) - 1 {
        (1u64 << rem) - 1
    } else {
        u64::MAX
    }
}

/// An owned, reusable four-state plane pair executing in place.
///
/// A `ScratchBuf` never shrinks its heap capacity and never
/// canonicalises to an inline form: once sized for the widest value it
/// will hold, re-use is allocation-free. The [`grows`](Self::grows)
/// counter records every time an operation outgrew the current
/// capacity — on a correctly pre-sized arena it stays at zero, which is
/// exactly what the kernel's `eval_allocs` telemetry asserts.
///
/// All binary operations are `dst = dst op rhs` with `rhs` borrowed,
/// so aliasing between operands is impossible by construction.
#[derive(Debug, Default)]
pub struct ScratchBuf {
    width: u32,
    aval: Vec<u64>,
    bval: Vec<u64>,
    grows: u64,
}

impl ScratchBuf {
    /// An empty buffer (width 0). Any operation will size it on first
    /// use, counting a growth event.
    #[must_use]
    pub fn new() -> ScratchBuf {
        ScratchBuf::default()
    }

    /// A buffer pre-sized for `width` bits, holding all zeros.
    /// Construction is not counted as a growth event.
    #[must_use]
    pub fn with_width(width: u32) -> ScratchBuf {
        let n = words_for(width);
        ScratchBuf {
            width,
            aval: vec![0; n],
            bval: vec![0; n],
            grows: 0,
        }
    }

    /// Current width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of times an operation outgrew the pre-sized capacity.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Per-plane capacity in 64-bit words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.aval.capacity()
    }

    /// A read-only view of the current value.
    #[must_use]
    pub fn as_bits(&self) -> BitsRef<'_> {
        BitsRef::new(self.width, &self.aval, &self.bval)
    }

    /// An owned canonical [`LogicVec`] copy of the current value
    /// (allocates for widths above 64 — test and cold-path use only).
    #[must_use]
    pub fn to_logic_vec(&self) -> LogicVec {
        LogicVec::from_bits(self.as_bits())
    }

    /// Resizes to `width` bits, zero-extending or truncating the held
    /// value. Counts a growth event when the word count exceeds the
    /// retained capacity.
    pub fn set_width(&mut self, width: u32) {
        let n = words_for(width);
        if n > self.aval.capacity() || n > self.bval.capacity() {
            self.grows += 1;
        }
        self.aval.resize(n, 0);
        self.bval.resize(n, 0);
        self.width = width;
        self.mask_top();
    }

    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            let last = self.aval.len() - 1;
            self.aval[last] &= mask;
            self.bval[last] &= mask;
        }
    }

    /// Copies `src` in, adopting its width.
    pub fn load(&mut self, src: BitsRef<'_>) {
        self.load_resized(src, src.width());
    }

    /// Copies `src` in at `width` bits (zero-extending or truncating).
    pub fn load_resized(&mut self, src: BitsRef<'_>, width: u32) {
        self.set_width(width);
        for i in 0..self.aval.len() {
            let (a, b) = src.word(i);
            self.aval[i] = a;
            self.bval[i] = b;
        }
        self.mask_top();
    }

    /// Loads the low bits of `value` at `width` bits.
    pub fn load_u64(&mut self, width: u32, value: u64) {
        self.set_width(width);
        self.aval.fill(0);
        self.bval.fill(0);
        if !self.aval.is_empty() {
            self.aval[0] = value;
        }
        self.mask_top();
    }

    /// Loads a single-bit scalar.
    pub fn load_logic(&mut self, value: Logic) {
        self.set_width(1);
        let (a, b) = value.to_avab();
        self.aval[0] = u64::from(a);
        self.bval[0] = u64::from(b);
    }

    /// Sets every bit to `fill` at `width` bits.
    pub fn fill(&mut self, width: u32, fill: Logic) {
        self.set_width(width);
        let (a, b) = fill.to_avab();
        self.aval.fill(if a { u64::MAX } else { 0 });
        self.bval.fill(if b { u64::MAX } else { 0 });
        self.mask_top();
    }

    fn bitwise_assign(&mut self, rhs: BitsRef<'_>, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) {
        let width = self.width.max(rhs.width());
        self.set_width(width);
        for i in 0..self.aval.len() {
            let (a2, b2) = rhs.word(i);
            let (av, bv) = f(self.aval[i], self.bval[i], a2, b2);
            self.aval[i] = av;
            self.bval[i] = bv;
        }
        self.mask_top();
    }

    /// `self = self & rhs` with four-state resolution.
    pub fn and_assign(&mut self, rhs: BitsRef<'_>) {
        self.bitwise_assign(rhs, and_words);
    }

    /// `self = self | rhs` with four-state resolution.
    pub fn or_assign(&mut self, rhs: BitsRef<'_>) {
        self.bitwise_assign(rhs, or_words);
    }

    /// `self = self ^ rhs` with four-state resolution.
    pub fn xor_assign(&mut self, rhs: BitsRef<'_>) {
        self.bitwise_assign(rhs, xor_words);
    }

    /// `self = self ~^ rhs` with four-state resolution.
    pub fn xnor_assign(&mut self, rhs: BitsRef<'_>) {
        self.bitwise_assign(rhs, xnor_words);
    }

    /// `self = ~self`: known bits invert, X/Z become X.
    pub fn not_self(&mut self) {
        for i in 0..self.aval.len() {
            let unk = self.bval[i];
            self.aval[i] = !self.aval[i] | unk;
            self.bval[i] = unk;
        }
        self.mask_top();
    }

    /// `self = self + rhs` at the max operand width, all-X on any
    /// unknown operand bit.
    pub fn add_assign(&mut self, rhs: BitsRef<'_>) {
        let width = self.width.max(rhs.width());
        if self.as_bits().has_unknown() || rhs.has_unknown() {
            self.fill(width, Logic::X);
            return;
        }
        self.set_width(width);
        let mut carry = 0u128;
        for i in 0..self.aval.len() {
            let sum = self.aval[i] as u128 + rhs.word(i).0 as u128 + carry;
            self.aval[i] = sum as u64;
            carry = sum >> 64;
        }
        self.mask_top();
    }

    /// `self = self - rhs` (two's-complement wraparound), all-X on any
    /// unknown operand bit. Computed as `a + !b + 1` over the common
    /// width, so the borrow chain wraps like two's complement.
    pub fn sub_assign(&mut self, rhs: BitsRef<'_>) {
        let width = self.width.max(rhs.width());
        if self.as_bits().has_unknown() || rhs.has_unknown() {
            self.fill(width, Logic::X);
            return;
        }
        self.set_width(width);
        let last = self.aval.len() - 1;
        let mut carry = 1u128;
        for i in 0..self.aval.len() {
            let m = if i == last {
                low_mask(((width - 1) % 64) + 1)
            } else {
                u64::MAX
            };
            let sum = self.aval[i] as u128 + (!rhs.word(i).0 & m) as u128 + carry;
            self.aval[i] = sum as u64;
            carry = sum >> 64;
        }
        self.mask_top();
    }

    /// `self = -self` (two's complement), all-X on unknown bits.
    pub fn neg_self(&mut self) {
        let width = self.width;
        if self.as_bits().has_unknown() {
            self.fill(width, Logic::X);
            return;
        }
        // 0 - self via the same `0 + !self + 1` chain as `sub_assign`.
        let last = self.aval.len() - 1;
        let mut carry = 1u128;
        for i in 0..self.aval.len() {
            let m = if i == last {
                low_mask(((width - 1) % 64) + 1)
            } else {
                u64::MAX
            };
            let sum = ((!self.aval[i]) & m) as u128 + carry;
            self.aval[i] = sum as u64;
            carry = sum >> 64;
        }
        self.mask_top();
    }

    /// `self = self * rhs` at the max operand width, all-X on unknown
    /// operands. Only the low word of each operand takes part.
    pub fn mul_assign(&mut self, rhs: BitsRef<'_>) {
        let width = self.width.max(rhs.width());
        if self.as_bits().has_unknown() || rhs.has_unknown() {
            self.fill(width, Logic::X);
            return;
        }
        let low = word_at(&self.aval, 0).wrapping_mul(rhs.word(0).0);
        self.load_u64(width, low);
    }

    /// `self = self / rhs`; division by zero or unknown operands yield
    /// all-X.
    pub fn div_assign(&mut self, rhs: BitsRef<'_>) {
        let width = self.width.max(rhs.width());
        match (self.as_bits().to_u64(), rhs.to_u64()) {
            (Some(a), Some(b)) if b != 0 => self.load_u64(width, a / b),
            _ => self.fill(width, Logic::X),
        }
    }

    /// `self = self % rhs`; modulo zero or unknown operands yield all-X.
    pub fn rem_assign(&mut self, rhs: BitsRef<'_>) {
        let width = self.width.max(rhs.width());
        match (self.as_bits().to_u64(), rhs.to_u64()) {
            (Some(a), Some(b)) if b != 0 => self.load_u64(width, a % b),
            _ => self.fill(width, Logic::X),
        }
    }

    /// `self = self << amount`; unknown amount yields all-X at the
    /// current width.
    pub fn shl_assign(&mut self, amount: BitsRef<'_>) {
        match amount.to_u64() {
            Some(n) => self.shl_assign_const(n as u32),
            None => {
                let w = self.width;
                self.fill(w, Logic::X);
            }
        }
    }

    /// `self = self >> amount`; unknown amount yields all-X at the
    /// current width.
    pub fn shr_assign(&mut self, amount: BitsRef<'_>) {
        match amount.to_u64() {
            Some(n) => self.shr_assign_const(n as u32),
            None => {
                let w = self.width;
                self.fill(w, Logic::X);
            }
        }
    }

    /// Shift left by a constant, filling with zeros. Runs top-down so
    /// every word is read before it is overwritten.
    pub fn shl_assign_const(&mut self, n: u32) {
        if n >= self.width {
            let w = self.width;
            self.fill(w, Logic::Zero);
            return;
        }
        let (ws, bs) = ((n / 64) as usize, n % 64);
        for i in (ws..self.aval.len()).rev() {
            let lo_a = self.aval[i - ws] << bs;
            let lo_b = self.bval[i - ws] << bs;
            let (hi_a, hi_b) = if bs > 0 && i > ws {
                (
                    self.aval[i - ws - 1] >> (64 - bs),
                    self.bval[i - ws - 1] >> (64 - bs),
                )
            } else {
                (0, 0)
            };
            self.aval[i] = lo_a | hi_a;
            self.bval[i] = lo_b | hi_b;
        }
        for i in 0..ws {
            self.aval[i] = 0;
            self.bval[i] = 0;
        }
        self.mask_top();
    }

    /// Shift right by a constant, filling with zeros. Runs bottom-up so
    /// every word is read before it is overwritten.
    pub fn shr_assign_const(&mut self, n: u32) {
        if n >= self.width {
            let w = self.width;
            self.fill(w, Logic::Zero);
            return;
        }
        for i in 0..self.aval.len() {
            let bit = n + 64 * i as u32;
            self.aval[i] = extract_word(&self.aval, bit);
            self.bval[i] = extract_word(&self.bval, bit);
        }
        self.mask_top();
    }

    /// `self = src[msb:lsb]` (inclusive, LSB-0). Out-of-range bits read
    /// as X, matching `LogicVec::slice`.
    pub fn slice_from(&mut self, src: BitsRef<'_>, msb: u32, lsb: u32) {
        let (msb, lsb) = if msb >= lsb { (msb, lsb) } else { (lsb, msb) };
        let width = msb - lsb + 1;
        let known = src.width().saturating_sub(lsb);
        self.set_width(width);
        let (src_a, src_b) = src.planes();
        for i in 0..self.aval.len() {
            let bit = lsb + 64 * i as u32;
            self.aval[i] = extract_word(src_a, bit);
            self.bval[i] = extract_word(src_b, bit);
        }
        if known < width {
            let (ws, bs) = ((known / 64) as usize, known % 64);
            for i in ws..self.aval.len() {
                let m = if i == ws { u64::MAX << bs } else { u64::MAX };
                self.aval[i] |= m;
                self.bval[i] |= m;
            }
        }
        self.mask_top();
    }

    /// `self = {self, low}` — `self` supplies the high bits, as in the
    /// Verilog concatenation `{a, b}` where `a` is written first.
    pub fn concat_low(&mut self, low: BitsRef<'_>) {
        let low_width = low.width();
        let width = self.width + low_width;
        self.set_width(width);
        self.shl_assign_const(low_width);
        let (low_a, low_b) = low.planes();
        for (i, (&a, &b)) in low_a.iter().zip(low_b).enumerate() {
            self.aval[i] |= a;
            self.bval[i] |= b;
        }
    }

    /// `self = {count{self}}`, staging the source pattern in `spare`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `count` is zero.
    pub fn replicate_self(&mut self, count: u32, spare: &mut ScratchBuf) {
        debug_assert!(count > 0, "replication count must be non-zero");
        spare.load(self.as_bits());
        let w = self.width;
        self.fill(w * count, Logic::Zero);
        for k in 0..count {
            or_shifted(&mut self.aval, &spare.aval, k * w);
            or_shifted(&mut self.bval, &spare.bval, k * w);
        }
    }

    /// Ternary merge under an unknown condition: for each bit of the
    /// zero-extended arms, the result is the shared value where both
    /// arms agree and are known, X otherwise.
    pub fn select_merge(&mut self, then: BitsRef<'_>, els: BitsRef<'_>) {
        let width = then.width().max(els.width());
        self.set_width(width);
        for i in 0..self.aval.len() {
            let (a1, b1) = then.word(i);
            let (a2, b2) = els.word(i);
            let same = !(a1 ^ a2) & !b1 & !b2;
            self.aval[i] = (a1 & same) | !same;
            self.bval[i] = !same;
        }
        self.mask_top();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(s: &str) -> LogicVec {
        LogicVec::parse_binary(s).expect("valid literal")
    }

    #[test]
    fn presized_buffer_never_grows() {
        let mut buf = ScratchBuf::with_width(256);
        let a = LogicVec::from_u64(200, 0xDEAD_BEEF);
        let b = LogicVec::from_u64(256, 0x1234);
        buf.load(a.as_bits());
        buf.add_assign(b.as_bits());
        buf.xor_assign(a.as_bits());
        buf.shl_assign_const(77);
        buf.not_self();
        assert_eq!(buf.grows(), 0);
        assert_eq!(buf.width(), 256);
    }

    #[test]
    fn growth_is_counted() {
        let mut buf = ScratchBuf::with_width(64);
        buf.load(LogicVec::zeros(64).as_bits());
        assert_eq!(buf.grows(), 0);
        buf.load(LogicVec::zeros(640).as_bits());
        assert_eq!(buf.grows(), 1);
        // Capacity is retained: shrinking and re-growing is free.
        buf.load(LogicVec::zeros(64).as_bits());
        buf.load(LogicVec::zeros(640).as_bits());
        assert_eq!(buf.grows(), 1);
    }

    #[test]
    fn in_place_ops_match_logicvec() {
        let a = lv("1x01zzz010110x01");
        let b = lv("0110x01z01101010");
        let mut buf = ScratchBuf::with_width(64);

        buf.load(a.as_bits());
        buf.and_assign(b.as_bits());
        assert_eq!(buf.to_logic_vec(), a.and(&b));

        buf.load(a.as_bits());
        buf.or_assign(b.as_bits());
        assert_eq!(buf.to_logic_vec(), a.or(&b));

        buf.load(a.as_bits());
        buf.xor_assign(b.as_bits());
        assert_eq!(buf.to_logic_vec(), a.xor(&b));

        buf.load(a.as_bits());
        buf.xnor_assign(b.as_bits());
        assert_eq!(buf.to_logic_vec(), a.xnor(&b));

        buf.load(a.as_bits());
        buf.not_self();
        assert_eq!(buf.to_logic_vec(), a.not());
    }

    #[test]
    fn wide_arithmetic_matches_logicvec() {
        let a = LogicVec::filled(129, Logic::One);
        let b = LogicVec::from_u64(129, 1);
        let mut buf = ScratchBuf::with_width(129);

        buf.load(a.as_bits());
        buf.add_assign(b.as_bits());
        assert_eq!(buf.to_logic_vec(), a.add(&b));

        buf.load(a.as_bits());
        buf.sub_assign(b.as_bits());
        assert_eq!(buf.to_logic_vec(), a.sub(&b));

        buf.load(b.as_bits());
        buf.neg_self();
        assert_eq!(buf.to_logic_vec(), b.negate());
    }

    #[test]
    fn concat_replicate_slice_roundtrip() {
        let hi = LogicVec::from_u64(40, 0xAB_CDEF_0123);
        let lo = LogicVec::from_u64(40, 0x45_6789_ABCD);
        let mut buf = ScratchBuf::new();
        buf.load(hi.as_bits());
        buf.concat_low(lo.as_bits());
        assert_eq!(buf.to_logic_vec(), hi.concat(&lo));

        let mut spare = ScratchBuf::new();
        let pat = lv("10x");
        buf.load(pat.as_bits());
        buf.replicate_self(5, &mut spare);
        assert_eq!(buf.to_logic_vec(), pat.replicate(5));

        let src = hi.concat(&lo);
        buf.slice_from(src.as_bits(), 70, 9);
        assert_eq!(buf.to_logic_vec(), src.slice(70, 9));
        // Out-of-range slices read X.
        buf.slice_from(src.as_bits(), 100, 70);
        assert_eq!(buf.to_logic_vec(), src.slice(100, 70));
    }

    #[test]
    fn select_merge_matches_per_bit_rule() {
        let t = lv("1x0z10");
        let e = lv("110z00");
        let mut buf = ScratchBuf::new();
        buf.select_merge(t.as_bits(), e.as_bits());
        let out = buf.to_logic_vec();
        for i in 0..6 {
            let (tb, eb) = (t.get(i), e.get(i));
            let expect = if tb == eb && !tb.is_unknown() {
                tb
            } else {
                Logic::X
            };
            assert_eq!(out.get(i), expect, "bit {i}");
        }
    }
}
