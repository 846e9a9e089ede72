//! A short list stored in place.
//!
//! A task names a few operands and a data handle has a few valid
//! replicas. Kept in a `Vec` each, every one of those lists is a heap
//! allocation of its own: several per task when a graph is built, one per
//! tile when a registry is registered or cloned. [`InlineVec`] keeps up
//! to `N` items inside the value and moves to the heap only past that, so
//! the common case allocates nothing and a clone is a copy.

use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// A list of `Copy` items that holds up to `N` of them inline and spills
/// to a `Vec` past that. It reads as a slice, and any length is accepted.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` is the list; the slots past it hold stale items.
    Inline { len: u8, items: [T; N] },
    /// A list that outgrew `N`, or the empty list that has never held an
    /// item (`Vec::new` does not allocate).
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// `len` counts inline items in a `u8`.
    const FITS: () = assert!(0 < N && N <= u8::MAX as usize);

    /// The empty list; allocates nothing.
    pub const fn new() -> Self {
        InlineVec(Repr::Heap(Vec::new()))
    }

    /// Append `item`: in place while the list has at most `N` items.
    pub fn push(&mut self, item: T) {
        let () = Self::FITS;
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(items);
                heap.push(item);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) if heap.capacity() == 0 => {
                self.0 = Repr::Inline {
                    len: 1,
                    items: [item; N],
                }
            }
            Repr::Heap(heap) => heap.push(item),
        }
    }

    /// Remove every item. A spilled list keeps its heap buffer.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(heap) => heap.clear(),
        }
    }

    /// Keep only the items `keep` accepts, in their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for at in 0..usize::from(*len) {
                    let item = items[at];
                    if keep(&item) {
                        items[kept] = item;
                        kept += 1;
                    }
                }
                // `kept <= len`, which is a `u8`.
                *len = kept as u8;
            }
            Repr::Heap(heap) => heap.retain(keep),
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

/// Equal when the items are, inline or not.
impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serialized as the array a `Vec` of the same items would be.
impl<T: Serialize, const N: usize> Serialize for InlineVec<T, N> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize + Copy, const N: usize> Deserialize for InlineVec<T, N> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::from_value(v)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Three = InlineVec<u32, 3>;

    #[test]
    fn reads_as_the_pushed_items_at_any_length() {
        let mut list = Three::new();
        assert!(list.is_empty());
        let mut reference = Vec::new();
        for item in 0..10 {
            list.push(item);
            reference.push(item);
            assert_eq!(*list, *reference);
        }
        list.clear();
        assert!(list.is_empty());
        list.push(7);
        assert_eq!(*list, [7]);
    }

    #[test]
    fn retain_keeps_order_inline_and_spilled() {
        for n in [3, 8] {
            let mut list: Three = (0..n).collect();
            list.retain(|&x| x % 2 == 0);
            let kept: Vec<u32> = (0..n).filter(|x| x % 2 == 0).collect();
            assert_eq!(*list, *kept);
        }
    }

    #[test]
    fn equality_and_serialization_ignore_the_storage() {
        let mut spilled: Three = (0..4).collect();
        spilled.retain(|&x| x < 2);
        let inline: Three = (0..2).collect();
        assert_eq!(spilled, inline);
        assert_eq!(inline.to_value(), vec![0u32, 1].to_value());
        assert_eq!(Three::from_value(&inline.to_value()).unwrap(), inline);
        assert_eq!(format!("{inline:?}"), "[0, 1]");
    }
}
