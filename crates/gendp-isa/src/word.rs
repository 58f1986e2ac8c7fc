use std::fmt;

/// Arithmetic interpretation of a 32-bit datapath word.
///
/// Each DPAx compute unit executes either one 32-bit operation or four
/// concurrent 8-bit SIMD lanes (paper §4.2); the floating-point PE array
/// interprets words as IEEE-754 `f32`.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// 32-bit two's-complement integer arithmetic (default).
    #[default]
    Int32,
    /// Four independent 8-bit signed saturating SIMD lanes.
    Int8x4,
    /// Two independent 16-bit signed saturating SIMD lanes (paper §7.6.4:
    /// 16-bit operation via parallel compute units).
    Int16x2,
    /// 32-bit IEEE-754 floating point (FP PE array only).
    Float32,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Int32 => write!(f, "i32"),
            Mode::Int8x4 => write!(f, "i8x4"),
            Mode::Int16x2 => write!(f, "i16x2"),
            Mode::Float32 => write!(f, "f32"),
        }
    }
}

/// One 32-bit word on the DPAx datapath.
///
/// The raw bits are interpretation-free; [`Mode`] decides how ALUs treat
/// them. Constructors and accessors convert without losing bits.
///
/// ```
/// use gendp_isa::Word;
///
/// let w = Word::from_i32(-7);
/// assert_eq!(w.as_i32(), -7);
/// let f = Word::from_f32(1.5);
/// assert_eq!(f.as_f32(), 1.5);
/// let lanes = Word::from_lanes([1, -2, 3, -4]);
/// assert_eq!(lanes.as_lanes(), [1, -2, 3, -4]);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Word(pub u32);

impl Word {
    /// The all-zero word.
    pub const ZERO: Word = Word(0);

    /// Builds a word from a signed 32-bit integer.
    pub fn from_i32(v: i32) -> Self {
        Word(v as u32)
    }

    /// Builds a word from an IEEE-754 single.
    pub fn from_f32(v: f32) -> Self {
        Word(v.to_bits())
    }

    /// Builds a word from four signed 8-bit SIMD lanes (lane 0 is the least
    /// significant byte).
    pub fn from_lanes(lanes: [i8; 4]) -> Self {
        let b = lanes.map(|l| l as u8);
        Word(u32::from_le_bytes(b))
    }

    /// Interprets the word as a signed 32-bit integer.
    pub fn as_i32(self) -> i32 {
        self.0 as i32
    }

    /// Interprets the word as an IEEE-754 single.
    pub fn as_f32(self) -> f32 {
        f32::from_bits(self.0)
    }

    /// Interprets the word as four signed 8-bit SIMD lanes.
    pub fn as_lanes(self) -> [i8; 4] {
        self.0.to_le_bytes().map(|b| b as i8)
    }

    /// Builds a word from two signed 16-bit SIMD halves (half 0 is the
    /// least significant).
    pub fn from_halves(halves: [i16; 2]) -> Self {
        let lo = halves[0] as u16 as u32;
        let hi = halves[1] as u16 as u32;
        Word(lo | (hi << 16))
    }

    /// Interprets the word as two signed 16-bit SIMD halves.
    pub fn as_halves(self) -> [i16; 2] {
        [
            (self.0 & 0xffff) as u16 as i16,
            (self.0 >> 16) as u16 as i16,
        ]
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({:#010x} = {})", self.0, self.as_i32())
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_i32())
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<i32> for Word {
    fn from(v: i32) -> Self {
        Word::from_i32(v)
    }
}

impl From<Word> for i32 {
    fn from(w: Word) -> Self {
        w.as_i32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i32_round_trip() {
        for v in [0, 1, -1, i32::MAX, i32::MIN, 123456789] {
            assert_eq!(Word::from_i32(v).as_i32(), v);
        }
    }

    #[test]
    fn f32_round_trip() {
        for v in [0.0f32, -1.5, 3.25e10, f32::INFINITY] {
            assert_eq!(Word::from_f32(v).as_f32(), v);
        }
    }

    #[test]
    fn lanes_round_trip() {
        let lanes = [-128i8, 127, 0, -1];
        assert_eq!(Word::from_lanes(lanes).as_lanes(), lanes);
    }

    #[test]
    fn halves_round_trip() {
        let halves = [-32768i16, 32767];
        assert_eq!(Word::from_halves(halves).as_halves(), halves);
        assert_eq!(Word::from_halves([1, 0]).0, 1);
        assert_eq!(Word::from_halves([0, 1]).0, 1 << 16);
    }

    #[test]
    fn lane_zero_is_least_significant() {
        let w = Word::from_lanes([1, 0, 0, 0]);
        assert_eq!(w.0, 1);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Word::ZERO).is_empty());
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", Word(0xff)), "ff");
        assert_eq!(format!("{:X}", Word(0xff)), "FF");
        assert_eq!(format!("{:b}", Word(0b101)), "101");
    }
}
