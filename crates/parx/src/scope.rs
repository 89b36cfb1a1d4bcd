//! The workspace's one scoped fork–join, [`parallel_each`]: scoped
//! threads, so borrows of surrounding data work without `Arc`.

/// Runs `body(i, item)` for every item on a scoped thread of its own — the
/// first on the calling thread — and returns the results in item order.
///
/// This is the fork–join for a handful of coarse tasks that each *own*
/// their input (a `&mut` byte range of a read buffer, a worker's
/// `split_at_mut` share of the output columns): no grain threshold, one
/// thread per item, so the caller decides the fan-out by how it groups the
/// work. A single item runs inline with no thread machinery at all.
pub fn parallel_each<T, R, F>(items: impl IntoIterator<Item = T>, body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut items = items.into_iter().enumerate();
    let Some((_, first)) = items.next() else {
        return Vec::new();
    };
    let Some(second) = items.next() else {
        return vec![body(0, first)];
    };
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = std::iter::once(second)
            .chain(items)
            .map(|(i, item)| scope.spawn(move || body(i, item)))
            .collect();
        let mut out = vec![body(0, first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel_each worker panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_each_hands_every_item_to_one_worker_and_keeps_order() {
        // Each worker owns a disjoint `&mut` share of one buffer.
        let mut data = vec![0u32; 10];
        let sums = parallel_each(data.chunks_mut(3), |i, part| {
            part.fill(i as u32 + 1);
            part.len()
        });
        assert_eq!(sums, vec![3, 3, 3, 1]);
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
        // Zero and one item never reach the thread scope.
        assert_eq!(parallel_each(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(parallel_each([7u8], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn parallel_each_runs_item_zero_on_the_caller_and_every_other_on_its_own_thread() {
        // Two items of one element each still fork: there is no grain.
        for n in [2, 3, 8] {
            let ids = parallel_each(0..n, |_, _| std::thread::current().id());
            assert_eq!(ids[0], std::thread::current().id(), "n = {n}");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), n, "n = {n}: {ids:?}");
        }
    }

    #[test]
    #[should_panic(expected = "parallel_each worker panicked")]
    fn parallel_each_propagates_a_worker_panic() {
        parallel_each(0..3, |i, _| assert_ne!(i, 2, "worker 2 dies"));
    }
}
