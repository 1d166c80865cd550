//! Stand-in for the published `rayon`, used only where cargo cannot resolve
//! the published one (see `../../cargo.sh`). `remo-baseline`'s parallel BFS
//! is the one caller, with `par_iter().fold(..).reduce(..)`; here that chain
//! runs on the calling thread. The benchmark calls only the sequential
//! baselines, so nothing it measures passes through this crate.

pub mod iter {
    /// A "parallel" iterator that is an ordinary iterator underneath.
    pub struct Seq<I>(I);

    impl<I: Iterator> Seq<I> {
        /// rayon folds each split into its own accumulator; one thread means
        /// one split, so this yields a single accumulator.
        pub fn fold<T, ID: Fn() -> T, F: FnMut(T, I::Item) -> T>(
            self,
            identity: ID,
            op: F,
        ) -> Seq<std::iter::Once<T>> {
            Seq(std::iter::once(self.0.fold(identity(), op)))
        }

        pub fn reduce<ID, F>(self, identity: ID, op: F) -> I::Item
        where
            ID: Fn() -> I::Item,
            F: FnMut(I::Item, I::Item) -> I::Item,
        {
            self.0.fold(identity(), op)
        }
    }

    /// `.par_iter()` on a vector.
    pub trait IntoParallelRefIterator<'a> {
        type Item: 'a;
        fn par_iter(&'a self) -> Seq<std::slice::Iter<'a, Self::Item>>;
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter(&'a self) -> Seq<std::slice::Iter<'a, T>> {
            Seq(self.iter())
        }
    }
}

pub mod prelude {
    pub use crate::iter::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn fold_reduce_matches_a_plain_loop() {
        let v: Vec<u64> = (1..=10).collect();
        let evens = v
            .par_iter()
            .fold(Vec::new, |mut acc, &x| {
                if x % 2 == 0 {
                    acc.push(x);
                }
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert_eq!(evens, vec![2, 4, 6, 8, 10]);
    }
}
