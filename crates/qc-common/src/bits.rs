//! Order-preserving embeddings of primitive key types into `u64`.
//!
//! The concurrent sketch stores stream elements in shared buffers made of
//! `AtomicU64` slots (the Gather&Sort buffers of the paper are written and
//! read racily by design — see the *holes* discussion in §4.1). To keep that
//! code simple, safe, and monomorphic, every supported element type is
//! embedded into `u64` through a **strictly order-preserving bijection**:
//! `a < b  ⇔  a.to_ordered_bits() < b.to_ordered_bits()`.
//!
//! Sorting, merging, sampling and query selection all happen in bit space;
//! values are mapped back with [`OrderedBits::from_ordered_bits`] only at the
//! public API boundary.

/// An order-preserving bijection between `Self` and (a subset of) `u64`.
///
/// # Contract
///
/// For all `a`, `b` of the implementing type:
///
/// * **Monotone:** `a < b` implies `a.to_ordered_bits() < b.to_ordered_bits()`.
/// * **Roundtrip:** `Self::from_ordered_bits(a.to_ordered_bits()) == a`.
///
/// For floating-point types the contract holds on the non-NaN subset, with
/// the usual IEEE-754 total-order caveats spelled out on the impl.
///
/// # Example
///
/// ```
/// use qc_common::OrderedBits;
/// let xs = [-3.5f64, -0.0, 2.25, 1e300];
/// let mut bits: Vec<u64> = xs.iter().map(|x| x.to_ordered_bits()).collect();
/// bits.sort_unstable();
/// let back: Vec<f64> = bits.into_iter().map(f64::from_ordered_bits).collect();
/// assert_eq!(back, [-3.5, -0.0, 2.25, 1e300]);
/// ```
pub trait OrderedBits: Copy + PartialOrd + Send + Sync + 'static {
    /// Embed `self` into the ordered `u64` domain.
    fn to_ordered_bits(self) -> u64;
    /// Recover the value from its ordered-bit representation.
    fn from_ordered_bits(bits: u64) -> Self;
}

impl OrderedBits for u64 {
    #[inline(always)]
    fn to_ordered_bits(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_ordered_bits(bits: u64) -> Self {
        bits
    }
}

impl OrderedBits for u32 {
    #[inline(always)]
    fn to_ordered_bits(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_ordered_bits(bits: u64) -> Self {
        debug_assert!(bits <= u32::MAX as u64, "bits out of u32 range");
        bits as u32
    }
}

impl OrderedBits for i64 {
    /// Shifts the sign bit so that `i64::MIN` maps to `0` and `i64::MAX`
    /// maps to `u64::MAX`, preserving order.
    #[inline(always)]
    fn to_ordered_bits(self) -> u64 {
        (self as u64) ^ (1u64 << 63)
    }
    #[inline(always)]
    fn from_ordered_bits(bits: u64) -> Self {
        (bits ^ (1u64 << 63)) as i64
    }
}

impl OrderedBits for i32 {
    #[inline(always)]
    fn to_ordered_bits(self) -> u64 {
        (self as i64).to_ordered_bits()
    }
    #[inline(always)]
    fn from_ordered_bits(bits: u64) -> Self {
        i64::from_ordered_bits(bits) as i32
    }
}

impl OrderedBits for f64 {
    /// The classic IEEE-754 total-order trick: positive floats get the sign
    /// bit set; negative floats are bitwise-complemented, which reverses
    /// their (descending) bit order into ascending order.
    ///
    /// `-0.0` and `+0.0` map to *distinct, adjacent* keys (`-0.0 < +0.0` in
    /// bit space), which keeps the map a bijection; quantile estimates are
    /// insensitive to this tie-split. NaNs map above `+inf` (positive NaN
    /// payloads) or below `-inf` and roundtrip bit-exactly, but feeding NaNs
    /// into a quantiles sketch is not meaningful.
    #[inline(always)]
    fn to_ordered_bits(self) -> u64 {
        let b = self.to_bits();
        if b >> 63 == 0 {
            b | (1u64 << 63)
        } else {
            !b
        }
    }
    #[inline(always)]
    fn from_ordered_bits(bits: u64) -> Self {
        let b = if bits >> 63 == 1 { bits & !(1u64 << 63) } else { !bits };
        f64::from_bits(b)
    }
}

impl OrderedBits for f32 {
    /// Same sign-flip trick as `f64`, in 32 bits, widened into `u64`.
    #[inline(always)]
    fn to_ordered_bits(self) -> u64 {
        let b = self.to_bits();
        let k = if b >> 31 == 0 { b | (1u32 << 31) } else { !b };
        k as u64
    }
    #[inline(always)]
    fn from_ordered_bits(bits: u64) -> Self {
        debug_assert!(bits <= u32::MAX as u64, "bits out of f32 range");
        let k = bits as u32;
        let b = if k >> 31 == 1 { k & !(1u32 << 31) } else { !k };
        f32::from_bits(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: OrderedBits + PartialEq + std::fmt::Debug>(x: T) {
        assert_eq!(T::from_ordered_bits(x.to_ordered_bits()), x);
    }

    fn monotone<T: OrderedBits + std::fmt::Debug>(lo: T, hi: T) {
        assert!(lo.to_ordered_bits() < hi.to_ordered_bits(), "{lo:?} !< {hi:?} in bit space");
    }

    #[test]
    fn u64_is_identity() {
        for x in [0u64, 1, 42, u64::MAX] {
            assert_eq!(x.to_ordered_bits(), x);
            roundtrip(x);
        }
    }

    #[test]
    fn u32_roundtrip_and_order() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        monotone(3u32, 4u32);
    }

    #[test]
    fn i64_extremes_map_to_extremes() {
        assert_eq!(i64::MIN.to_ordered_bits(), 0);
        assert_eq!(i64::MAX.to_ordered_bits(), u64::MAX);
        assert_eq!((-1i64).to_ordered_bits() + 1, 0i64.to_ordered_bits());
    }

    #[test]
    fn i64_order_across_zero() {
        monotone(-5i64, -4i64);
        monotone(-1i64, 0i64);
        monotone(0i64, 1i64);
        for x in [i64::MIN, -77, 0, 12345, i64::MAX] {
            roundtrip(x);
        }
    }

    #[test]
    fn i32_order_and_roundtrip() {
        monotone(i32::MIN, -1i32);
        monotone(-1i32, 0i32);
        for x in [i32::MIN, -7, 0, 9, i32::MAX] {
            roundtrip(x);
        }
    }

    #[test]
    fn f64_order_spans_signs() {
        monotone(f64::NEG_INFINITY, -1e308);
        monotone(-1e308, -1.0);
        monotone(-1.0, -f64::MIN_POSITIVE);
        monotone(-0.0f64, 0.0f64); // distinct adjacent keys
        monotone(0.0, f64::MIN_POSITIVE);
        monotone(1.0, 1.0000000000000002);
        monotone(1e308, f64::INFINITY);
    }

    #[test]
    fn f64_roundtrip_bit_exact() {
        for x in [
            0.0f64,
            -0.0,
            1.5,
            -2.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let back = f64::from_ordered_bits(x.to_ordered_bits());
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn f64_nan_roundtrips_bitwise() {
        let nan = f64::NAN;
        let back = f64::from_ordered_bits(nan.to_ordered_bits());
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn f32_order_and_roundtrip() {
        monotone(-1.0f32, -0.5f32);
        monotone(-0.5f32, 0.25f32);
        for x in [0.0f32, -3.5, 7.25, f32::MAX, f32::NEG_INFINITY] {
            let back = f32::from_ordered_bits(x.to_ordered_bits());
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn sorting_in_bit_space_matches_value_order() {
        let mut xs = [3.5f64, -1.25, 0.0, -0.0, 99.0, -1e10];
        let mut bits: Vec<u64> = xs.iter().map(|x| x.to_ordered_bits()).collect();
        bits.sort_unstable();
        xs.sort_by(f64::total_cmp); // total order puts -0.0 before +0.0, like the embedding

        // -0.0 / +0.0 tie order is pinned by the embedding; compare by bits.
        let a: Vec<u64> = bits.iter().map(|&b| f64::from_ordered_bits(b).to_bits()).collect();
        let b: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }
}
