//! Turning recorded kernel traces into the address streams a cache sees.

use mergepath::probe::AccessEvent;

use crate::layout::{MemoryLayout, Region};

/// Translates a trace recorded in whole-array coordinates into byte
/// addresses: `ReadA(i)` is `A[i]`, `ReadB(j)` is `B[j]` and `WriteOut(k)`
/// is `Out[k]` under `layout`.
pub fn translate_all(layout: &MemoryLayout, events: &[AccessEvent]) -> Vec<u64> {
    events
        .iter()
        .map(|e| match *e {
            AccessEvent::ReadA(i) => layout.addr(Region::A, i),
            AccessEvent::ReadB(j) => layout.addr(Region::B, j),
            AccessEvent::WriteOut(k) => layout.addr(Region::Out, k),
        })
        .collect()
}

/// Round-robin interleaving of per-worker address streams — the access
/// order seen by a shared cache when `p` lockstep cores execute the
/// algorithm together (the paper's PRAM-with-shared-cache model, e.g.
/// Hypercore's shared L1).
pub fn interleave_round_robin(streams: Vec<Vec<u64>>) -> Vec<u64> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; streams.len()];
    let mut live = streams.iter().filter(|s| !s.is_empty()).count();
    while live > 0 {
        for (s, cur) in streams.iter().zip(cursors.iter_mut()) {
            if *cur < s.len() {
                out.push(s[*cur]);
                *cur += 1;
                if *cur == s.len() {
                    live -= 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::merge::sequential::merge_into_probed;
    use mergepath::probe::TraceProbe;

    #[test]
    fn translate_maps_each_event_to_its_region() {
        let layout = MemoryLayout::natural(4, 100, 100, 64);
        let events = [
            AccessEvent::ReadA(3),
            AccessEvent::ReadB(5),
            AccessEvent::WriteOut(0),
            AccessEvent::WriteOut(1),
        ];
        assert_eq!(
            translate_all(&layout, &events),
            vec![
                layout.addr(Region::A, 3),
                layout.addr(Region::B, 5),
                layout.out_base,
                layout.out_base + 4
            ]
        );
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        let s = vec![vec![1u64, 2, 3], vec![10, 20], vec![100]];
        assert_eq!(interleave_round_robin(s), vec![1, 10, 100, 2, 20, 3]);
    }

    #[test]
    fn round_robin_with_empty_streams() {
        assert_eq!(interleave_round_robin(vec![]), Vec::<u64>::new());
        assert_eq!(
            interleave_round_robin(vec![vec![], vec![7u64], vec![]]),
            vec![7]
        );
    }

    #[test]
    fn trace_probe_roundtrip_through_translator() {
        let a = [1u32, 3, 5];
        let b = [2u32, 4];
        let mut out = [0u32; 5];
        let mut probe = TraceProbe::default();
        merge_into_probed(&a, &b, &mut out, &|x, y| x.cmp(y), &mut probe);
        let layout = MemoryLayout::natural(4, 3, 2, 0);
        let addrs = translate_all(&layout, &probe.events);
        assert_eq!(addrs.len(), probe.events.len());
        // All output writes land in [out_base, out_base + 20).
        for (e, addr) in probe.events.iter().zip(&addrs) {
            if matches!(e, AccessEvent::WriteOut(_)) {
                assert!(*addr >= layout.out_base && *addr < layout.out_base + 20);
            }
        }
    }
}
