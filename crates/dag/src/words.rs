//! Views of the values a [`JobGraph`](crate::JobGraph) stores, at either
//! of its two widths.

/// One stored value of a [`JobGraph`](crate::JobGraph): a `u16` in a
/// narrow graph, a `[lo, hi]` pair of `u16`s in a wide one.
pub trait Word: Copy {
    /// The value the word stores.
    fn widen(self) -> u32;
}

impl Word for u16 {
    #[inline]
    fn widen(self) -> u32 {
        u32::from(self)
    }
}

impl Word for [u16; 2] {
    #[inline]
    fn widen(self) -> u32 {
        u32::from(self[0]) | u32::from(self[1]) << 16
    }
}

/// A run of a [`JobGraph`](crate::JobGraph)'s values — a child list, the
/// heights, the depth counts — as stored at the graph's width. It reads
/// like a `&[u32]`: [`len`](Self::len), [`get`](Self::get),
/// [`iter`](Self::iter) and [`to_vec`](Self::to_vec), and it compares equal
/// to a `[u32]` holding the same values. The iterator tests the width once
/// per `fold` or `rfold` (and so per `for_each`, `sum` or `rev().fold`),
/// not once per element; a loop that indexes the values at random tests it
/// once with [`by_width!`](crate::by_width).
#[derive(Clone, Copy)]
pub enum Words<'a> {
    /// One `u16` per value.
    Narrow(&'a [u16]),
    /// One `[lo, hi]` pair per value.
    Wide(&'a [[u16; 2]]),
}

/// Evaluates `$body` with `$s` bound to the slice inside a [`Words`] view,
/// `&[u16]` or `&[[u16; 2]]`, whose elements read as values through
/// [`Word::widen`]. The width is tested once, so a loop in `$body` runs on
/// a plain slice of one element type.
///
/// ```
/// use flowtree_dag::{builder, by_width, Word};
///
/// let g = builder::star(3);
/// let tallest = by_width!(g.heights(), |h| (0..g.n()).max_by_key(|&v| h[v].widen()));
/// assert_eq!(tallest, Some(0));
/// ```
#[macro_export]
macro_rules! by_width {
    ($words:expr, |$s:ident| $body:expr) => {
        match $words {
            $crate::Words::Narrow($s) => $body,
            $crate::Words::Wide($s) => $body,
        }
    };
}

impl<'a> Words<'a> {
    /// Number of values.
    #[inline]
    pub fn len(self) -> usize {
        by_width!(self, |s| s.len())
    }

    /// Whether there are no values.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value. Panics if `i >= len()`.
    #[inline]
    pub fn get(self, i: usize) -> u32 {
        by_width!(self, |s| s[i].widen())
    }

    /// The values in order.
    #[inline]
    pub fn iter(self) -> WordsIter<'a> {
        WordsIter(match self {
            Words::Narrow(s) => IterRepr::Narrow(s.iter()),
            Words::Wide(s) => IterRepr::Wide(s.iter()),
        })
    }

    /// The values, copied out as `u32`s.
    pub fn to_vec(self) -> Vec<u32> {
        by_width!(self, |s| s.iter().map(|&w| w.widen()).collect())
    }
}

impl<'a> IntoIterator for Words<'a> {
    type Item = u32;
    type IntoIter = WordsIter<'a>;

    #[inline]
    fn into_iter(self) -> WordsIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Words<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<[u32]> for Words<'_> {
    fn eq(&self, other: &[u32]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[u32]> for Words<'_> {
    fn eq(&self, other: &&[u32]) -> bool {
        *self == **other
    }
}

impl<const N: usize> PartialEq<&[u32; N]> for Words<'_> {
    fn eq(&self, other: &&[u32; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<u32>> for Words<'_> {
    fn eq(&self, other: &Vec<u32>) -> bool {
        *self == other[..]
    }
}

/// Iterator over the values of a [`Words`] view.
#[derive(Debug, Clone)]
pub struct WordsIter<'a>(IterRepr<'a>);

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    Narrow(std::slice::Iter<'a, u16>),
    Wide(std::slice::Iter<'a, [u16; 2]>),
}

/// Evaluates `$body` with `$it` bound to the slice iterator inside an
/// [`IterRepr`].
macro_rules! each_width {
    ($repr:expr, |$it:ident| $body:expr) => {
        match $repr {
            IterRepr::Narrow($it) => $body,
            IterRepr::Wide($it) => $body,
        }
    };
}

impl Iterator for WordsIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        each_width!(&mut self.0, |it| it.next().map(|&w| w.widen()))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        each_width!(&self.0, |it| it.size_hint())
    }

    #[inline]
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        each_width!(self.0, |it| it.fold(init, |acc, &w| f(acc, w.widen())))
    }
}

impl DoubleEndedIterator for WordsIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<u32> {
        each_width!(&mut self.0, |it| it.next_back().map(|&w| w.widen()))
    }

    #[inline]
    fn rfold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        each_width!(self.0, |it| it.rfold(init, |acc, &w| f(acc, w.widen())))
    }
}

impl ExactSizeIterator for WordsIter<'_> {}

impl std::iter::FusedIterator for WordsIter<'_> {}
