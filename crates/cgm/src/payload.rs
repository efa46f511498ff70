//! Communication metering.
//!
//! The CGM cost model counts the size of every h-relation in *words*. For
//! flat POD types `size_of` is the right measure, but the range-search
//! algorithms also ship entire subtrees (forest elements) between
//! processors; for those, the heap payload is what a real multicomputer
//! would serialize onto the wire. The [`Payload`] trait lets every shippable
//! type report its true transfer size.
//!
//! **Words are a property of the model, not of the simulator's transport.**
//! The transport is shared memory: an exchange hands each `Vec<T>` bucket
//! to its destination by pointer, and a value behind an [`Arc`] is shared
//! rather than duplicated. Neither makes the message smaller in the
//! model, so `words` always reports the full serialized size — an `Arc<T>`
//! weighs what its `T` weighs — and `h`, total traffic and the superstep
//! count are what a message-passing machine would have seen.

use std::sync::Arc;

/// A value that can be sent through a CGM collective.
///
/// `words` is the number of 8-byte machine words a message of this value
/// occupies on the (simulated) wire. The default implementation charges the
/// shallow `size_of`, which is exact for POD types; container and tree types
/// override it to include their heap payload.
pub trait Payload: Send + 'static {
    /// Transfer size in 8-byte words (rounded up, minimum 1).
    fn words(&self) -> u64
    where
        Self: Sized,
    {
        shallow_words::<Self>()
    }
}

/// Shallow word count of a type: `ceil(size_of::<T>() / 8)`, minimum 1.
#[inline]
pub fn shallow_words<T>() -> u64 {
    (std::mem::size_of::<T>() as u64).div_ceil(8)
}

macro_rules! impl_payload_pod {
    ($($t:ty),* $(,)?) => {
        $(impl Payload for $t {})*
    };
}

impl_payload_pod!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: Payload, const N: usize> Payload for [T; N] {
    fn words(&self) -> u64 {
        self.iter().map(Payload::words).sum::<u64>().max(1)
    }
}

impl<T: Payload> Payload for Option<T> {
    fn words(&self) -> u64 {
        1 + self.as_ref().map_or(0, Payload::words)
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn words(&self) -> u64 {
        1 + self.iter().map(Payload::words).sum::<u64>()
    }
}

impl<T: Payload> Payload for Box<T> {
    fn words(&self) -> u64 {
        (**self).words()
    }
}

/// A shared value is metered as the value: shipping an `Arc` clone is how
/// the simulator moves a large read-only payload (a congestion copy of a
/// forest tree) without duplicating it on the host, and the model still
/// charges every word of the pointee.
impl<T: Payload + Sync> Payload for Arc<T> {
    fn words(&self) -> u64 {
        (**self).words()
    }
}

impl Payload for String {
    fn words(&self) -> u64 {
        1 + (self.len() as u64).div_ceil(8)
    }
}

macro_rules! impl_payload_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Payload),+> Payload for ($($name,)+) {
            fn words(&self) -> u64 {
                0 $(+ self.$idx.words())+
            }
        }
    };
}

impl_payload_tuple!(A: 0);
impl_payload_tuple!(A: 0, B: 1);
impl_payload_tuple!(A: 0, B: 1, C: 2);
impl_payload_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_payload_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_payload_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Total word count of a slice of payload values.
pub fn slice_words<T: Payload>(s: &[T]) -> u64 {
    s.iter().map(Payload::words).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_words_round_up() {
        assert_eq!(3u8.words(), 1);
        assert_eq!(3u64.words(), 1);
        assert_eq!(3u128.words(), 2);
        assert_eq!((1u64, 2u64).words(), 2);
    }

    #[test]
    fn container_words_include_heap() {
        let v = vec![1u64, 2, 3];
        assert_eq!(v.words(), 4); // 1 header + 3 elements
        let nested = vec![vec![1u32; 4]; 2];
        assert_eq!(nested.words(), 1 + 2 * (1 + 4));
        assert_eq!(Some(7u64).words(), 2);
        assert_eq!(Option::<u64>::None.words(), 1);
    }

    #[test]
    fn pointers_weigh_their_pointee() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Box::new(v.clone()).words(), v.words());
        let shared = Arc::new(v);
        assert_eq!(shared.words(), 4);
        assert_eq!(Arc::clone(&shared).words(), 4, "a second handle is a full copy in the model");
    }

    #[test]
    fn string_words() {
        assert_eq!(String::from("").words(), 1);
        assert_eq!(String::from("12345678").words(), 2);
        assert_eq!(String::from("123456789").words(), 3);
    }
}
