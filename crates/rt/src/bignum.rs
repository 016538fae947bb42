//! Arbitrary-precision natural numbers and integers.
//!
//! LEAN's runtime uses GMP for its `Nat` and `Int` types once values exceed
//! the machine-word range. This module is the from-scratch stand-in: a
//! little-endian, `u64`-limb magnitude type [`Nat`] and a sign-magnitude
//! integer type [`Int`].
//!
//! The representation invariant for [`Nat`] is that the limb vector never has
//! trailing zero limbs; the empty vector denotes zero. [`Int`] never stores a
//! negative zero.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision natural number (unsigned).
///
/// # Examples
///
/// ```
/// use lssa_rt::bignum::Nat;
/// let a = Nat::from_u64(u64::MAX);
/// let b = a.add(&Nat::from_u64(1));
/// assert_eq!(b.to_string(), "18446744073709551616");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    /// Little-endian limbs; no trailing zeros.
    limbs: Vec<u64>,
}

impl Nat {
    /// The natural number zero.
    pub fn zero() -> Nat {
        Nat { limbs: Vec::new() }
    }

    /// The natural number one.
    pub fn one() -> Nat {
        Nat { limbs: vec![1] }
    }

    /// Builds a natural from a machine word.
    pub fn from_u64(v: u64) -> Nat {
        if v == 0 {
            Nat::zero()
        } else {
            Nat { limbs: vec![v] }
        }
    }

    /// Builds a natural from a 128-bit value.
    pub fn from_u128(v: u128) -> Nat {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = Nat {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Builds a natural from raw little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Nat {
        let mut n = Nat { limbs };
        n.normalize();
        n
    }

    /// Returns the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// Whether this value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Compares two naturals.
    pub fn cmp_nat(&self, other: &Nat) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Addition.
    pub fn add(&self, other: &Nat) -> Nat {
        let (big, small) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(big.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..big.limbs.len() {
            let b = big.limbs[i];
            let s = small.limbs.get(i).copied().unwrap_or(0);
            let (x, c1) = b.overflowing_add(s);
            let (x, c2) = x.overflowing_add(carry);
            carry = (c1 as u64) + (c2 as u64);
            out.push(x);
        }
        if carry != 0 {
            out.push(carry);
        }
        Nat::from_limbs(out)
    }

    /// Subtraction; returns `None` when `other > self`.
    pub fn checked_sub(&self, other: &Nat) -> Option<Nat> {
        if self.cmp_nat(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (x, b1) = a.overflowing_sub(b);
            let (x, b2) = x.overflowing_sub(borrow);
            borrow = (b1 as u64) + (b2 as u64);
            out.push(x);
        }
        debug_assert_eq!(borrow, 0);
        Some(Nat::from_limbs(out))
    }

    /// Truncating subtraction: `max(self - other, 0)`. Matches LEAN `Nat.sub`.
    pub fn sat_sub(&self, other: &Nat) -> Nat {
        self.checked_sub(other).unwrap_or_else(Nat::zero)
    }

    /// Multiplication (schoolbook).
    pub fn mul(&self, other: &Nat) -> Nat {
        if self.is_zero() || other.is_zero() {
            return Nat::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Nat::from_limbs(out)
    }

    /// Left shift by `sh` bits.
    pub fn shl(&self, sh: u64) -> Nat {
        if self.is_zero() || sh == 0 {
            return self.clone();
        }
        let limb_shift = (sh / 64) as usize;
        let bit_shift = (sh % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Nat::from_limbs(out)
    }

    /// Right shift by `sh` bits.
    pub fn shr(&self, sh: u64) -> Nat {
        let limb_shift = (sh / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Nat::zero();
        }
        let bit_shift = (sh % 64) as u32;
        let rest = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return Nat::from_limbs(rest.to_vec());
        }
        let mut out = Vec::with_capacity(rest.len());
        for i in 0..rest.len() {
            let lo = rest[i] >> bit_shift;
            let hi = rest.get(i + 1).map(|&l| l << (64 - bit_shift)).unwrap_or(0);
            out.push(lo | hi);
        }
        Nat::from_limbs(out)
    }

    /// Division with remainder by a single machine word.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (Nat, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Nat::from_limbs(out), rem as u64)
    }

    /// Division with remainder. Returns `(quotient, remainder)`.
    ///
    /// Implements Knuth's Algorithm D for multi-limb divisors.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Nat) -> (Nat, Nat) {
        assert!(!other.is_zero(), "division by zero");
        match self.cmp_nat(other) {
            Ordering::Less => return (Nat::zero(), self.clone()),
            Ordering::Equal => return (Nat::one(), Nat::zero()),
            Ordering::Greater => {}
        }
        if other.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(other.limbs[0]);
            return (q, Nat::from_u64(r));
        }
        // Knuth Algorithm D. Normalize so the divisor's top bit is set.
        let shift = other.limbs.last().unwrap().leading_zeros() as u64;
        let u = self.shl(shift);
        let v = other.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Trial quotient from top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - (p as u64 as i128) - borrow;
                un[j + i] = sub as u64;
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            un[j + n] = sub as u64;
            if sub < 0 {
                // qhat was one too large; add back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + c;
                    un[j + i] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = (un[j + n] as u128 + c) as u64;
            }
            q[j] = qhat as u64;
        }
        let quotient = Nat::from_limbs(q);
        let rem = Nat::from_limbs(un[..n].to_vec()).shr(shift);
        (quotient, rem)
    }

    /// LEAN-semantics division: `x / 0 = 0`.
    pub fn div(&self, other: &Nat) -> Nat {
        if other.is_zero() {
            Nat::zero()
        } else {
            self.div_rem(other).0
        }
    }

    /// LEAN-semantics modulo: `x % 0 = x`.
    pub fn rem(&self, other: &Nat) -> Nat {
        if other.is_zero() {
            self.clone()
        } else {
            self.div_rem(other).1
        }
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, mut e: u64) -> Nat {
        let mut base = self.clone();
        let mut acc = Nat::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &Nat) -> Nat {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns `Err` on an empty string or non-digit characters.
    pub fn from_str_decimal(s: &str) -> Result<Nat, ParseNatError> {
        if s.is_empty() {
            return Err(ParseNatError);
        }
        let mut acc = Nat::zero();
        // Process 19 digits at a time (max power of 10 in u64).
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let chunk_len = (bytes.len() - i).min(19);
            let chunk = &s[i..i + chunk_len];
            let v: u64 = chunk.parse().map_err(|_| ParseNatError)?;
            let scale = 10u64.pow(chunk_len as u32 - 1) as u128 * 10;
            acc = acc.mul(&Nat::from_u128(scale)).add(&Nat::from_u64(v));
            i += chunk_len;
        }
        Ok(acc)
    }
}

/// Error parsing a decimal natural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseNatError;

impl fmt::Display for ParseNatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal natural number")
    }
}

impl std::error::Error for ParseNatError {}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeatedly divide by 10^19 and print chunks.
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        write!(f, "{}", chunks.pop().unwrap())?;
        for c in chunks.iter().rev() {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nat({self})")
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_nat(other)
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Nat {
        Nat::from_u64(v)
    }
}

/// An arbitrary-precision signed integer (sign-magnitude).
///
/// # Examples
///
/// ```
/// use lssa_rt::bignum::Int;
/// let a = Int::from_i64(-5);
/// let b = Int::from_i64(3);
/// assert_eq!(a.add(&b).to_string(), "-2");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Int {
    neg: bool,
    mag: Nat,
}

impl Int {
    /// The integer zero.
    pub fn zero() -> Int {
        Int {
            neg: false,
            mag: Nat::zero(),
        }
    }

    /// Builds from sign and magnitude, normalizing negative zero.
    pub fn from_parts(neg: bool, mag: Nat) -> Int {
        Int {
            neg: neg && !mag.is_zero(),
            mag,
        }
    }

    /// Builds from a machine integer.
    pub fn from_i64(v: i64) -> Int {
        Int::from_parts(v < 0, Nat::from_u64(v.unsigned_abs()))
    }

    /// Builds from a natural.
    pub fn from_nat(n: Nat) -> Int {
        Int::from_parts(false, n)
    }

    /// Whether this is negative.
    pub fn is_neg(&self) -> bool {
        self.neg
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &Nat {
        &self.mag
    }

    /// Converts to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.mag.to_u64()?;
        if self.neg {
            if m <= (i64::MAX as u64) + 1 {
                Some((m as i64).wrapping_neg())
            } else {
                None
            }
        } else if m <= i64::MAX as u64 {
            Some(m as i64)
        } else {
            None
        }
    }

    /// Comparison.
    pub fn cmp_int(&self, other: &Int) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.mag.cmp_nat(&other.mag),
            (true, true) => other.mag.cmp_nat(&self.mag),
        }
    }

    /// Addition.
    pub fn add(&self, other: &Int) -> Int {
        if self.neg == other.neg {
            Int::from_parts(self.neg, self.mag.add(&other.mag))
        } else {
            match self.mag.cmp_nat(&other.mag) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => {
                    Int::from_parts(self.neg, self.mag.checked_sub(&other.mag).unwrap())
                }
                Ordering::Less => {
                    Int::from_parts(other.neg, other.mag.checked_sub(&self.mag).unwrap())
                }
            }
        }
    }

    /// Negation.
    pub fn neg(&self) -> Int {
        Int::from_parts(!self.neg, self.mag.clone())
    }

    /// Subtraction.
    pub fn sub(&self, other: &Int) -> Int {
        self.add(&other.neg())
    }

    /// Multiplication.
    pub fn mul(&self, other: &Int) -> Int {
        Int::from_parts(self.neg != other.neg, self.mag.mul(&other.mag))
    }

    /// Truncated division (LEAN `Int.div` semantics: round toward zero; `x / 0 = 0`).
    pub fn div(&self, other: &Int) -> Int {
        if other.is_zero() {
            return Int::zero();
        }
        Int::from_parts(self.neg != other.neg, self.mag.div(&other.mag))
    }

    /// Truncated remainder: `self - other * self.div(other)`; `x % 0 = x`.
    pub fn rem(&self, other: &Int) -> Int {
        if other.is_zero() {
            return self.clone();
        }
        Int::from_parts(self.neg, self.mag.rem(&other.mag))
    }

    /// Parses a decimal string with optional leading `-`.
    ///
    /// # Errors
    ///
    /// Returns `Err` on empty/ill-formed input.
    pub fn from_str_decimal(s: &str) -> Result<Int, ParseNatError> {
        if let Some(rest) = s.strip_prefix('-') {
            Ok(Int::from_parts(true, Nat::from_str_decimal(rest)?))
        } else {
            Ok(Int::from_parts(false, Nat::from_str_decimal(s)?))
        }
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.neg {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_int(other)
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        Int::from_i64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(s: &str) -> Nat {
        Nat::from_str_decimal(s).unwrap()
    }

    #[test]
    fn zero_properties() {
        assert!(Nat::zero().is_zero());
        assert_eq!(Nat::zero().to_string(), "0");
        assert_eq!(Nat::zero().bits(), 0);
        assert_eq!(Nat::from_u64(0), Nat::zero());
    }

    #[test]
    fn add_small() {
        assert_eq!(Nat::from_u64(2).add(&Nat::from_u64(3)), Nat::from_u64(5));
    }

    #[test]
    fn add_carry_chain() {
        let a = Nat::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = Nat::one();
        assert_eq!(a.add(&b), Nat::from_limbs(vec![0, 0, 1]));
    }

    #[test]
    fn sub_borrow() {
        let a = Nat::from_limbs(vec![0, 1]); // 2^64
        let b = Nat::one();
        assert_eq!(a.checked_sub(&b).unwrap(), Nat::from_u64(u64::MAX));
    }

    #[test]
    fn sub_underflow_is_none() {
        assert!(Nat::from_u64(3).checked_sub(&Nat::from_u64(4)).is_none());
        assert_eq!(Nat::from_u64(3).sat_sub(&Nat::from_u64(4)), Nat::zero());
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_1234_5678u64;
        let b = 0xcafe_babe_8765_4321u64;
        let prod = Nat::from_u64(a).mul(&Nat::from_u64(b));
        assert_eq!(prod.to_u128().unwrap(), a as u128 * b as u128);
    }

    #[test]
    fn display_round_trip_large() {
        let s = "123456789012345678901234567890123456789012345678901234567890";
        assert_eq!(nat(s).to_string(), s);
    }

    #[test]
    fn display_chunk_padding() {
        // Exercises the zero-padded chunk path: value with a zero middle chunk.
        let s = "100000000000000000000000000000000000001";
        assert_eq!(nat(s).to_string(), s);
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = nat("123456789012345678901234567890");
        let (q, r) = a.div_rem_u64(97);
        assert_eq!(q.mul(&Nat::from_u64(97)).add(&Nat::from_u64(r)), a);
        assert!(r < 97);
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = nat("340282366920938463463374607431768211457"); // 2^128 + 1
        let b = nat("18446744073709551617"); // 2^64 + 1
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_nat(&b) == Ordering::Less);
    }

    #[test]
    fn div_rem_identity_fuzz_like() {
        // Deterministic pseudo-random-ish cases hitting the add-back branch region.
        let cases = [
            (
                "1000000000000000000000000000000000000000",
                "99999999999999999999",
            ),
            (
                "340282366920938463463374607431768211455",
                "18446744073709551615",
            ),
            (
                "57896044618658097711785492504343953926634992332820282019728792003956564819968",
                "340282366920938463463374607431768211456",
            ),
        ];
        for (sa, sb) in cases {
            let a = nat(sa);
            let b = nat(sb);
            let (q, r) = a.div_rem(&b);
            assert_eq!(q.mul(&b).add(&r), a, "{sa} / {sb}");
            assert!(r.cmp_nat(&b) == Ordering::Less);
        }
    }

    #[test]
    fn lean_div_mod_zero_semantics() {
        let a = Nat::from_u64(42);
        assert_eq!(a.div(&Nat::zero()), Nat::zero());
        assert_eq!(a.rem(&Nat::zero()), a);
    }

    #[test]
    fn shifts_round_trip() {
        let a = nat("987654321987654321987654321");
        for sh in [0u64, 1, 63, 64, 65, 128, 130] {
            assert_eq!(a.shl(sh).shr(sh), a, "shift {sh}");
        }
    }

    #[test]
    fn pow_small() {
        assert_eq!(Nat::from_u64(2).pow(10), Nat::from_u64(1024));
        assert_eq!(Nat::from_u64(10).pow(0), Nat::one());
        assert_eq!(
            Nat::from_u64(10).pow(30).to_string(),
            "1000000000000000000000000000000"
        );
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(Nat::from_u64(48).gcd(&Nat::from_u64(36)), Nat::from_u64(12));
        assert_eq!(Nat::from_u64(7).gcd(&Nat::zero()), Nat::from_u64(7));
    }

    #[test]
    fn parse_errors() {
        assert!(Nat::from_str_decimal("").is_err());
        assert!(Nat::from_str_decimal("12a3").is_err());
        assert!(Nat::from_str_decimal("-5").is_err());
    }

    #[test]
    fn ord_consistency() {
        let a = nat("99999999999999999999");
        let b = nat("100000000000000000000");
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn int_add_signs() {
        let cases: [(i64, i64); 8] = [
            (5, 3),
            (-5, 3),
            (5, -3),
            (-5, -3),
            (3, -5),
            (-3, 5),
            (0, -7),
            (-7, 7),
        ];
        for (x, y) in cases {
            assert_eq!(
                Int::from_i64(x).add(&Int::from_i64(y)).to_i64().unwrap(),
                x + y
            );
        }
    }

    #[test]
    fn int_mul_div_signs() {
        for x in [-7i64, -1, 0, 1, 9] {
            for y in [-3i64, -1, 1, 4] {
                assert_eq!(
                    Int::from_i64(x).mul(&Int::from_i64(y)).to_i64().unwrap(),
                    x * y
                );
                assert_eq!(
                    Int::from_i64(x).div(&Int::from_i64(y)).to_i64().unwrap(),
                    x / y,
                    "{x} / {y}"
                );
                assert_eq!(
                    Int::from_i64(x).rem(&Int::from_i64(y)).to_i64().unwrap(),
                    x % y,
                    "{x} % {y}"
                );
            }
        }
    }

    #[test]
    fn int_no_negative_zero() {
        let z = Int::from_parts(true, Nat::zero());
        assert!(!z.is_neg());
        assert_eq!(z, Int::zero());
        assert_eq!(Int::from_i64(5).sub(&Int::from_i64(5)), Int::zero());
    }

    #[test]
    fn int_parse_display() {
        for s in [
            "0",
            "-1",
            "12345678901234567890123",
            "-98765432109876543210",
        ] {
            assert_eq!(Int::from_str_decimal(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn int_i64_boundaries() {
        assert_eq!(Int::from_i64(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(Int::from_i64(i64::MAX).to_i64(), Some(i64::MAX));
        let big = Int::from_nat(Nat::from_u64(u64::MAX));
        assert_eq!(big.to_i64(), None);
    }
}
