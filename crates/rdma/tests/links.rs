//! The link rule of a fabric client on a completion queue: it carries one
//! transfer at a time, and a transfer may be held to a floor — how the
//! recovery clock charges a fold's answer behind its aggregator's reads.

use aceso_rdma::{Cluster, ClusterConfig, CostModel, DmClient, GlobalAddr, NodeId, SimCq};
use std::sync::Arc;

#[test]
fn a_link_carries_one_transfer_at_a_time() {
    let cluster = Cluster::new(ClusterConfig {
        num_mns: 2,
        region_len: 1 << 16,
        cost: CostModel::default(),
    });
    let cq = Arc::new(SimCq::new());
    let (one, other) = (cluster.background_client(), cluster.background_client());
    one.attach_cq(Arc::clone(&cq));
    other.attach_cq(Arc::clone(&cq));
    let read = |dm: &DmClient| {
        dm.read(GlobalAddr::new(NodeId(0), 0), &mut [0; 4096])
            .unwrap()
    };
    let cost = cluster.cost;
    let ns = |us: f64| (us * 1e3).round() as u64;
    let one_read = ns(cost.rtt_us + 4096.0 / cost.node_bw * 1e6);

    // Two transfers on one link end at the sum of their times, on two
    // links at the max.
    read(&one);
    assert_eq!(one.post(0).unwrap().1, one_read);
    read(&one);
    assert_eq!(one.post(0).unwrap().1, 2 * one_read);
    read(&other);
    assert_eq!(other.post(0).unwrap().1, one_read);
    while cq.advance_next() {}
    assert_eq!(cq.now_ns(), 2 * one_read);

    // An aggregator's doorbell of two block reads made on its behalf, then
    // the answer on the other link: it ends no earlier than those reads
    // plus its floor's tail, and its link stays busy until then.
    other.accrue_doorbell(2, 2 * 4096);
    let doorbell = ns(cost.rtt_us + cost.post_us + 8192.0 / cost.node_bw * 1e6);
    let reads = other.post(0).unwrap().1;
    assert_eq!(reads, cq.now_ns() + doorbell);
    one.accrue_bytes(4096);
    let answer = one.post(reads + 600).unwrap().1;
    assert_eq!(answer, reads + 600);
    read(&one);
    assert_eq!(one.post(0).unwrap().1, answer + one_read);

    // Nothing owed posts nothing; `settle` is a post awaited.
    assert!(one.post(0).is_none());
    while cq.advance_next() {}
    assert_eq!(cq.now_ns(), answer + one_read);
}
