//! Replay oracle for the distributed frontend: threads, batching and the
//! ring hand-off are *transport*, not *semantics*. For any seed and stream
//! length, VM count, `V` and `r`, the finished backend must equal an
//! in-thread replay of what the frontend promises to do: draw `r` times
//! per packet from `FastRng::new(seed)`, route each selected
//! `(node, masked key)` with `shard_of(masked, vms)`, apply it with
//! `raw_update` on that VM's `Rhhh`, combine the VMs with one `merge_many`
//! in VM order and set `N` with `note_packets`. One VM must also equal
//! inline `Rhhh::update` on the same seed. Alongside: every draw is
//! accounted for exactly once.

use hhh_core::sampling::FastRng;
use hhh_core::{HhhAlgorithm, NodeEstimates, Rhhh, RhhhConfig};
use hhh_hierarchy::{Lattice, NodeId};
use hhh_vswitch::{shard_of, DistributedRhhh};
use proptest::prelude::*;

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// `n` packed keys, 30% of them under one heavy /16 → /32 pair.
fn stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Lcg(seed ^ 0xABCD);
    (0..n)
        .map(|i| {
            let k = rng.next();
            if i % 10 < 3 {
                0x0A14_0000_0808_0808 | ((k & 0xFFFF) << 32)
            } else {
                k ^ (rng.next() << 32)
            }
        })
        .collect()
}

fn config(seed: u64, v_scale: u64, r: u32) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.01,
        epsilon_s: 0.05,
        delta_s: 0.05,
        v_scale,
        updates_per_packet: r,
        seed,
    }
}

/// The frontend's contract, replayed on this thread.
fn replay(lat: &Lattice<u64>, config: RhhhConfig, vms: usize, keys: &[u64]) -> Rhhh<u64> {
    let masks: Vec<u64> = lat.node_ids().map(|n| lat.mask(n)).collect();
    let h = lat.num_nodes() as u64;
    let v = config.v_scale * h;
    let mut rng = FastRng::new(config.seed);
    let mut backends: Vec<Rhhh<u64>> = (0..vms).map(|_| Rhhh::new(lat.clone(), config)).collect();
    for &key in keys {
        for _ in 0..config.updates_per_packet {
            let d = rng.bounded(v);
            if d < h {
                let masked = key & masks[d as usize];
                backends[shard_of(masked, vms)].raw_update(NodeId(d as u16), masked);
            }
        }
    }
    let mut merged = backends.remove(0);
    merged.merge_many(backends);
    merged.note_packets(keys.len() as u64);
    merged
}

fn assert_same(lat: &Lattice<u64>, got: &Rhhh<u64>, want: &Rhhh<u64>, what: &str) {
    assert_eq!(got.packets(), want.packets(), "{what}: N");
    assert_eq!(got.total_updates(), want.total_updates(), "{what}");
    for node in lat.node_ids() {
        assert_eq!(
            got.node_updates(node),
            want.node_updates(node),
            "{what}: node {node:?}"
        );
        assert_eq!(
            got.node_candidates(node),
            want.node_candidates(node),
            "{what}: node {node:?} counters"
        );
    }
    // θ above the short streams' sampling slack keeps the table small.
    assert_eq!(got.output(0.5), want.output(0.5), "{what}: output");
}

/// Feeds `n` packets and checks `packets · r == forwarded + dropped +
/// unsampled`, with nothing dropped and every forward applied.
fn check_accounting(seed: u64, v_scale: u64, r: u32, vms: usize, n: usize) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut dist = DistributedRhhh::spawn(lat, config(seed, v_scale, r), vms).unwrap();
    for key in stream(seed, n) {
        dist.update(key);
    }
    let (backend, stats) = dist.finish().expect("VMs alive");
    let n = n as u64;
    assert_eq!(stats.packets, n);
    assert_eq!(
        stats.packets * u64::from(r),
        stats.forwarded + stats.dropped + stats.unsampled,
        "leaked a draw: {stats:?}"
    );
    assert_eq!(stats.dropped, 0, "live VMs never drop");
    assert_eq!(backend.total_updates(), stats.forwarded);
    if v_scale == 1 {
        assert_eq!(stats.unsampled, 0, "V = H never skips");
    }
}

proptest! {
    // Each replay case runs the whole 16-point grid; 12 cases keep the
    // debug-mode binary under ~20 s.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frontend ≡ in-thread replay at every grid point
    /// `vms ∈ 1..=4 × V ∈ {H, 10H} × r ∈ {1, 4}`; one VM ≡ inline
    /// `Rhhh::update`.
    #[test]
    fn frontend_equals_in_thread_replay(seed in any::<u64>(), n in 1usize..6_000) {
        let lat = Lattice::ipv4_src_dst_bytes();
        let keys = stream(seed, n);
        for vms in 1..=4usize {
            for v_scale in [1u64, 10] {
                for r in [1u32, 4] {
                    let cfg = config(seed, v_scale, r);
                    let mut dist = DistributedRhhh::spawn(lat.clone(), cfg, vms).unwrap();
                    for &key in &keys {
                        dist.update(key);
                    }
                    let (got, _) = dist.finish().expect("VMs alive");
                    let what = format!("vms={vms} V={v_scale}H r={r} n={n}");
                    assert_same(&lat, &got, &replay(&lat, cfg, vms, &keys), &what);
                    if vms == 1 {
                        let mut inline = Rhhh::<u64>::new(lat.clone(), cfg);
                        for &key in &keys {
                            inline.update(key);
                        }
                        assert_same(&lat, &got, &inline, &format!("{what} vs inline"));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `packets · r == forwarded + dropped + unsampled` for one VM across
    /// seeds, V multipliers, `r` and stream lengths.
    #[test]
    fn stats_account_every_packet(
        seed in any::<u64>(),
        v_scale in 1u64..12,
        r in 1u32..5,
        n in 1usize..12_000,
    ) {
        check_accounting(seed, v_scale, r, 1, n);
    }

    /// The same ledger with the samples fanned out over several VMs.
    #[test]
    fn multi_vm_stats_account_every_packet(
        seed in any::<u64>(),
        v_scale in 1u64..12,
        r in 1u32..5,
        vms in 2usize..5,
        n in 1usize..10_000,
    ) {
        check_accounting(seed, v_scale, r, vms, n);
    }
}
