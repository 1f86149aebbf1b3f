//! LEB128 varints, the integer coding of the wire formats' variable-width
//! fields: seven bits a byte, least significant group first, the high bit
//! set on every byte but the last. Values under 128 take one byte.

/// Why a varint could not be read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarintError {
    /// The bytes ran out before a byte with the high bit clear.
    Truncated,
    /// The value does not fit the field's width.
    Overflow,
}

/// Append `v` to `buf`.
#[inline(always)]
pub fn put(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Bytes [`put`] writes for `v`.
#[inline]
pub fn encoded_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read one varint of at most `bits` significant bits (7 ..= 64) off the
/// front of `bytes` and advance past it. A varint with a set bit at or
/// above `bits` is [`VarintError::Overflow`], so a field never reads more
/// than `⌈bits/7⌉` bytes.
#[inline(always)]
pub fn get(bytes: &mut &[u8], bits: u32) -> Result<u64, VarintError> {
    debug_assert!((7..=64).contains(&bits));
    if let Some((&byte, rest)) = bytes.split_first().filter(|(&byte, _)| byte < 0x80) {
        // Most fields fit one byte.
        *bytes = rest;
        return Ok(u64::from(byte));
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = bytes.split_first().ok_or(VarintError::Truncated)?;
        *bytes = rest;
        let part = u64::from(byte & 0x7F);
        if shift >= bits || part.checked_shr(bits - shift).unwrap_or(0) != 0 {
            return Err(VarintError::Overflow);
        }
        v |= part << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_every_length() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            1 << 32,
            u64::MAX,
        ] {
            let mut buf = vec![0xAB];
            put(&mut buf, v);
            assert_eq!(buf.len(), 1 + encoded_len(v), "{v}");
            let mut bytes = &buf[1..];
            assert_eq!(get(&mut bytes, 64), Ok(v));
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn width_and_truncation_are_errors() {
        let mut buf = Vec::new();
        put(&mut buf, u32::MAX as u64);
        assert_eq!(get(&mut &buf[..], 32), Ok(u32::MAX as u64));
        put(&mut buf, 1 << 32);
        let mut bytes = &buf[..];
        get(&mut bytes, 32).unwrap();
        assert_eq!(get(&mut bytes, 32), Err(VarintError::Overflow));
        assert_eq!(
            get(&mut &[0x80u8, 0x80][..], 64),
            Err(VarintError::Truncated)
        );
        assert_eq!(get(&mut &[][..], 64), Err(VarintError::Truncated));
        // Eleven bytes never fit 64 bits; ten with a high last group do not either.
        assert_eq!(get(&mut &[0xFFu8; 11][..], 64), Err(VarintError::Overflow));
        let mut ten = [0xFFu8; 10];
        ten[9] = 0x02;
        assert_eq!(get(&mut &ten[..], 64), Err(VarintError::Overflow));
        ten[9] = 0x01;
        assert_eq!(get(&mut &ten[..], 64), Ok(u64::MAX));
    }
}
