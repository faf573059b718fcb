//! Direct tests of the MN server's RPC protocol: allocation, delta
//! registration, offline encoding and bitmap flushes, and of what its
//! handlers leave in MN memory for one-sided readers — the Meta Area
//! records and their two copies, and the Checkpoint Area.

use aceso_blockalloc::{BlockId, BlockRecord, CellKind, Role, RECORD_TABLES};
use aceso_core::config::unpack_col;
use aceso_core::elastic::ElasticStep;
use aceso_core::proto::{ServerReq, ServerResp};
use aceso_core::{read_records, AcesoConfig, AcesoStore, RecoveryTier, StoreError};
use aceso_index::IndexLayout;
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, RdmaError, VerbKind};
use std::sync::Arc;

fn store() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

/// Block `id`'s record, read out of `col`'s Meta Area.
fn record(store: &Arc<AcesoStore>, col: usize, id: BlockId) -> BlockRecord {
    let dm = store.cluster.background_client();
    read_records(store, &dm, col, 0, id..id + 1)
        .unwrap()
        .remove(0)
}

/// The DELTA-pool blocks column `col`'s own record table names: a block
/// per set Delta Addr word of a PARITY record, in table order.
fn named_deltas(store: &Arc<AcesoStore>, col: usize) -> Vec<BlockId> {
    let blocks = store.map.blocks;
    let records = store.server(col).records.lock().iter();
    let words = records
        .filter(|r| r.role == Role::Parity)
        .flat_map(|r| r.delta_addr);
    let named = words
        .filter(|&a| a != 0)
        .map(|a| blocks.locate(unpack_col(a).1));
    named
        .map(|at| at.expect("a Block Area address").0)
        .collect()
}

fn rpc(store: &Arc<AcesoStore>, col: usize, req: ServerReq) -> ServerResp {
    let dm = store.cluster.background_client();
    dm.rpc(
        store.directory().node_of(col),
        &store.directory().rpc_of(col),
        req,
        64,
    )
    .unwrap()
}

#[test]
fn alloc_data_then_delta_then_encode() {
    let store = store();

    // Allocate a DATA block on column 0.
    let ServerResp::DataAllocated {
        block,
        array,
        row,
        old_bitmap,
    } = rpc(
        &store,
        0,
        ServerReq::AllocData {
            cli_id: 9,
            slot_len64: 4,
        },
    )
    else {
        panic!("alloc failed")
    };
    assert!(old_bitmap.is_none(), "a fresh grant has no old bitmap");

    // The record reflects the allocation.
    let rec = record(&store, 0, block);
    assert_eq!(rec.role, Role::Data);
    assert_eq!(rec.cli_id, 9);
    assert_eq!(rec.slot_len64, 4);
    assert_eq!(rec.index_version, 0);
    assert_eq!(rec.stripe_array, array);
    assert_eq!(rec.xor_id as usize, row);

    // Allocate a DELTA on one of the parity columns and check registration.
    let xcode = aceso_erasure::XCode::new(5).unwrap();
    let ((prow, pcol), _) = xcode.parity_cells_for(row, 0);
    let ServerResp::DeltaAllocated { block: dblock } = rpc(
        &store,
        pcol,
        ServerReq::AllocDelta {
            array,
            row,
            parity_row: prow,
        },
    ) else {
        panic!()
    };
    let pid = store.map.blocks.cell_block_id(array, prow);
    let prec = record(&store, pcol, pid);
    assert_eq!(prec.role, Role::Parity);
    let (dcol, doff) = unpack_col(prec.delta_addr[row]);
    assert_eq!(dcol, pcol);
    assert_eq!(doff, store.map.blocks.block_offset(dblock));
    assert_eq!(prec.xor_map & (1 << row), 0, "not encoded yet");

    // Write some bytes into the data block and the same bytes into the
    // delta (a fresh block's delta equals its content), then encode.
    let payload = vec![0xABu8; 256];
    let dm = store.cluster.background_client();
    dm.write(
        aceso_rdma::GlobalAddr::new(
            store.directory().node_of(0),
            store.map.blocks.block_offset(block),
        ),
        &payload,
    )
    .unwrap();
    dm.write(
        aceso_rdma::GlobalAddr::new(store.directory().node_of(dcol), doff),
        &payload,
    )
    .unwrap();
    rpc(&store, 0, ServerReq::DataFilled { block });
    rpc(
        &store,
        pcol,
        ServerReq::EncodeDelta {
            array,
            row,
            parity_row: prow,
        },
    );

    // Parity now contains the payload (XOR with zeros), the delta addr is
    // cleared and the xor_map bit set.
    let prec = record(&store, pcol, pid);
    assert_ne!(prec.xor_map & (1 << row), 0);
    assert_eq!(prec.delta_addr[row], 0);
    let parity = dm
        .read_vec(
            aceso_rdma::GlobalAddr::new(
                store.directory().node_of(pcol),
                store.map.blocks.block_offset(pid),
            ),
            256,
        )
        .unwrap();
    assert_eq!(parity, payload);

    // DataFilled stamped the Index Version.
    assert!(record(&store, 0, block).index_version > 0);
    store.shutdown();
}

/// The in-place fold must leave exactly what `XCode::fold_delta` computes
/// on a copy of the source's parity, free the DELTA block zeroed, and stay
/// idempotent — alone, and mid-migration (a join announced, as the
/// migrator opens one) with stale parity on the target, where the fold
/// must bring the target to the source's bytes.
#[test]
fn encode_delta_folds_in_place_like_fold_delta() {
    use aceso_rdma::GlobalAddr;

    for migrating in [false, true] {
        let store = store();
        let bs = store.map.blocks.block_size as usize;
        let ServerResp::DataAllocated { array, row, .. } = rpc(
            &store,
            2,
            ServerReq::AllocData {
                cli_id: 7,
                slot_len64: 16,
            },
        ) else {
            panic!("alloc failed")
        };
        let ((prow, pcol), _) = aceso_erasure::XCode::new(5)
            .unwrap()
            .parity_cells_for(row, 2);
        let ServerResp::DeltaAllocated { block: dblock } = rpc(
            &store,
            pcol,
            ServerReq::AllocDelta {
                array,
                row,
                parity_row: prow,
            },
        ) else {
            panic!("delta alloc failed")
        };
        let doff = store.map.blocks.block_offset(dblock);
        let poff = store
            .map
            .blocks
            .block_offset(store.map.blocks.cell_block_id(array, prow));

        // A parity block that already holds other rows, and a full delta.
        let parity: Vec<u8> = (0..bs).map(|i| (i * 7 + 1) as u8).collect();
        let delta: Vec<u8> = (0..bs).map(|i| (i * 13 + 5) as u8).collect();
        let server = store.server(pcol);
        let local = &server.node.region;
        local.write(poff, &parity).unwrap();
        local.write(doff, &delta).unwrap();
        let mut migration = migrating.then(|| store.begin_join(pcol).unwrap());
        let target = migration.as_mut().map(|mig| {
            assert_eq!(mig.step().unwrap(), ElasticStep::Announce);
            let target = store.cluster.node(mig.to_node().unwrap()).unwrap();
            // Dual writes put the delta on the target too; its parity is
            // stale, as before the parity cell's group is copied.
            target.region.write(doff, &delta).unwrap();
            target.region.write(poff, &vec![0x5A; bs]).unwrap();
            target
        });

        let mut want = parity.clone();
        aceso_erasure::XCode::fold_delta(&mut want, &delta).unwrap();
        let encode = ServerReq::EncodeDelta {
            array,
            row,
            parity_row: prow,
        };
        // The second request is the retry of a lost reply.
        for attempt in 0..2 {
            assert!(matches!(rpc(&store, pcol, encode.clone()), ServerResp::Ok));
            let sides = std::iter::once(local).chain(target.as_ref().map(|t| &t.region));
            for (side, region) in sides.enumerate() {
                let ctx = format!("migrating {migrating} attempt {attempt} side {side}");
                assert_eq!(region.read_vec(poff, bs).unwrap(), want, "parity, {ctx}");
                assert_eq!(
                    region.read_vec(doff, bs).unwrap(),
                    vec![0u8; bs],
                    "delta, {ctx}"
                );
            }
        }
        // Clients read the folded parity through the fabric as well.
        let dm = store.cluster.background_client();
        let addr = GlobalAddr::new(store.directory().node_of(pcol), poff);
        assert_eq!(dm.read_vec(addr, bs).unwrap(), want);
        if let Some(mig) = migration.as_mut() {
            mig.abort();
        }
        store.shutdown();
    }
}

/// Every MN's Meta Area, all three record tables, byte for byte.
fn meta_areas(store: &Arc<AcesoStore>) -> Vec<Vec<u8>> {
    let blocks = store.map.blocks;
    let area = |col| {
        let region = &store.server(col).node.region;
        region.read_vec(blocks.meta_base, blocks.meta_size() as usize)
    };
    (0..store.cfg.num_mns)
        .map(area)
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
}

/// A filled class-1 block of column 2, granted and stamped.
fn filled_block(store: &Arc<AcesoStore>) -> BlockId {
    let req = ServerReq::AllocData {
        cli_id: 5,
        slot_len64: 1,
    };
    let ServerResp::DataAllocated { block, .. } = rpc(store, 2, req) else {
        panic!("no block granted")
    };
    rpc(store, 2, ServerReq::DataFilled { block });
    block
}

/// Column 2's answer to the first class-1 `AllocData` that is not a fresh
/// grant, and how many fresh grants came before it.
fn first_grant_past_fresh(store: &Arc<AcesoStore>) -> (ServerResp, usize) {
    let req = ServerReq::AllocData {
        cli_id: 6,
        slot_len64: 1,
    };
    for fresh in 0.. {
        match rpc(store, 2, req.clone()) {
            ServerResp::DataAllocated {
                old_bitmap: None, ..
            } => {}
            other => return (other, fresh),
        }
    }
    unreachable!()
}

/// A block whose every slot turned obsolete while fresh cells were
/// plentiful is still reused once they run out: the grant reads the
/// records, not a queue its flush never joined.
#[test]
fn a_block_obsoleted_while_fresh_cells_remain_is_reused() {
    let store = store();
    let slots = (store.map.blocks.block_size / 64) as u32;
    let block = filled_block(&store);
    let updates = vec![(block, (0..slots).collect())];
    rpc(&store, 2, ServerReq::BitmapFlush { updates });
    let (grant, fresh) = first_grant_past_fresh(&store);
    assert_eq!(fresh as u64, store.map.blocks.data_blocks_per_node() - 1);
    let ServerResp::DataAllocated {
        block: got,
        old_bitmap: Some(old),
        ..
    } = grant
    else {
        panic!("{grant:?}")
    };
    assert_eq!(got, block);
    assert_eq!(old, vec![0xff; slots as usize / 8]);
    store.shutdown();
}

/// Of two reuse candidates the more obsolete one is granted first, though
/// the other has the lower id and was flushed first.
#[test]
fn the_most_obsolete_candidate_is_reused_first() {
    let store = store();
    let slots = (store.map.blocks.block_size / 64) as u32;
    let (less, more) = (filled_block(&store), filled_block(&store));
    assert!(less < more);
    for (block, obsolete) in [(less, slots * 4 / 5), (more, slots * 9 / 10)] {
        let updates = vec![(block, (0..obsolete).collect())];
        rpc(&store, 2, ServerReq::BitmapFlush { updates });
    }
    let reused = |grant| match grant {
        ServerResp::DataAllocated {
            block,
            old_bitmap: Some(_),
            ..
        } => block,
        other => panic!("{other:?}"),
    };
    assert_eq!(reused(first_grant_past_fresh(&store).0), more);
    assert_eq!(reused(first_grant_past_fresh(&store).0), less);
    let (last, _) = first_grant_past_fresh(&store);
    assert!(matches!(last, ServerResp::Err(_)), "{last:?}");
    store.shutdown();
}

/// While its column migrates, a grant reuses no block: reclamation would
/// rewrite a block behind the copier's back. Once no FREE DATA cell is
/// left, a join's announce turns the grant a reclaimable block would get
/// into a refusal, and its abort gives the block back to the next grant.
#[test]
fn no_block_is_reused_while_its_column_migrates() {
    let store = store();
    let slots = (store.map.blocks.block_size / 64) as u32;
    let block = filled_block(&store);
    let updates = vec![(block, (0..slots).collect())];
    rpc(&store, 2, ServerReq::BitmapFlush { updates });
    let req = ServerReq::AllocData {
        cli_id: 6,
        slot_len64: 1,
    };
    for _ in 1..store.map.blocks.data_blocks_per_node() {
        let grant = rpc(&store, 2, req.clone());
        assert!(
            matches!(
                grant,
                ServerResp::DataAllocated {
                    old_bitmap: None,
                    ..
                }
            ),
            "{grant:?}"
        );
    }
    let mut mig = store.begin_join(2).unwrap();
    assert_eq!(mig.step().unwrap(), ElasticStep::Announce);
    let refused = rpc(&store, 2, req.clone());
    assert!(
        matches!(&refused, ServerResp::Err(e) if e == "out of data blocks"),
        "{refused:?}"
    );
    mig.abort();
    let grant = rpc(&store, 2, req);
    let ServerResp::DataAllocated {
        block: got,
        old_bitmap: Some(_),
        ..
    } = grant
    else {
        panic!("{grant:?}")
    };
    assert_eq!(got, block);
    store.shutdown();
}

/// `AllocDelta` and `EncodeDelta` name a PARITY cell and a data position of
/// its equation; a request naming anything else is refused before a DELTA
/// block is granted or a record changes.
#[test]
fn delta_requests_off_the_stripe_geometry_are_refused() {
    let store = store();
    let blocks = store.map.blocks;
    let (before, named) = (meta_areas(&store), named_deltas(&store, 1));
    let bad = [
        (0, 1, 0),                 // A DATA cell's row as the parity row.
        (blocks.num_arrays, 0, 3), // No such stripe array.
        (0, 16, 3),                // No such data position.
    ];
    for (array, row, parity_row) in bad {
        let reqs = [
            ServerReq::AllocDelta {
                array,
                row,
                parity_row,
            },
            ServerReq::EncodeDelta {
                array,
                row,
                parity_row,
            },
        ];
        for req in reqs {
            let resp = rpc(&store, 1, req.clone());
            assert!(matches!(resp, ServerResp::Err(_)), "{req:?}: {resp:?}");
        }
    }
    assert!(
        meta_areas(&store) == before,
        "a refused request changed a table"
    );
    assert_eq!(named_deltas(&store, 1), named);
    store.shutdown();
}

/// A cell's Delta Addr word is its DELTA block's one registration: while
/// it is set — the block granted and not yet folded — a second
/// `AllocDelta` for the cell is refused and changes no table. A second
/// grant would overwrite the word and strand the first block, named by
/// nothing and holding an unfolded delta.
#[test]
fn a_delta_still_named_is_not_granted_again() {
    let store = store();
    let n = store.cfg.num_mns;
    let req = ServerReq::AllocDelta {
        array: 0,
        row: 1,
        parity_row: n - 1,
    };
    let first = rpc(&store, 2, req.clone());
    assert!(
        matches!(first, ServerResp::DeltaAllocated { .. }),
        "{first:?}"
    );
    let (before, named) = (meta_areas(&store), named_deltas(&store, 2));
    let again = rpc(&store, 2, req);
    assert!(matches!(again, ServerResp::Err(_)), "{again:?}");
    assert!(
        meta_areas(&store) == before,
        "a refused grant changed a table"
    );
    assert_eq!(named_deltas(&store, 2), named);
    store.shutdown();
}

#[test]
fn bitmap_flush_accumulates_and_triggers_reuse() {
    let store = store();
    let bs = store.map.blocks.block_size;
    let block = filled_block(&store);
    // Mark >75% of the slots obsolete in two flushes.
    let slots = (bs / 64) as u32;
    let first: Vec<u32> = (0..slots / 2).collect();
    let second: Vec<u32> = (slots / 2..slots * 4 / 5).collect();
    rpc(
        &store,
        2,
        ServerReq::BitmapFlush {
            updates: vec![(block, first)],
        },
    );
    rpc(
        &store,
        2,
        ServerReq::BitmapFlush {
            updates: vec![(block, second)],
        },
    );
    let rec = record(&store, 2, block);
    assert!(rec.bitmap.count_ones() as u32 >= slots * 3 / 4);
    // The server hands this block out again once fresh blocks run out,
    // with both flushes' bits as its old bitmap.
    let (grant, _) = first_grant_past_fresh(&store);
    let ServerResp::DataAllocated {
        block: got,
        old_bitmap: Some(old),
        ..
    } = grant
    else {
        panic!("{grant:?}")
    };
    assert_eq!(got, block);
    let old_ones: u32 = old.iter().map(|b| b.count_ones()).sum();
    assert_eq!(old_ones, slots * 4 / 5);
    store.shutdown();
}

#[test]
fn meta_replication_lands_on_two_neighbours() {
    let store = store();
    let ServerResp::DataAllocated { block, .. } = rpc(
        &store,
        3,
        ServerReq::AllocData {
            cli_id: 2,
            slot_len64: 2,
        },
    ) else {
        panic!()
    };
    // The server WRITEs each changed record into its copies one-sided, so
    // both are in place by the time the `AllocData` call has returned:
    // table 1 of column 4 and table 2 of column 0.
    let dm = store.cluster.background_client();
    for copy in [1, 2] {
        let rec = read_records(&store, &dm, 3, copy, block..block + 1)
            .unwrap()
            .remove(0);
        assert_eq!((rec.role, rec.cli_id), (Role::Data, 2), "copy {copy}");
        let holder = store.server((3 + copy) % 5);
        let mut bytes = vec![0; store.map.blocks.record_bytes() as usize];
        let at = store.map.blocks.record_offset_in(copy, block);
        holder.node.region.read(at, &mut bytes).unwrap();
        assert_eq!(
            BlockRecord::decode(&bytes, store.map.blocks.block_size),
            rec
        );
    }
    store.shutdown();
}

/// CN recovery finds a crashed client's open blocks in the Meta Area: the
/// records there carry the owner and the fill stamp.
#[test]
fn meta_area_names_a_clients_open_blocks() {
    let store = store();
    let ServerResp::DataAllocated { block: b1, .. } = rpc(
        &store,
        0,
        ServerReq::AllocData {
            cli_id: 7,
            slot_len64: 2,
        },
    ) else {
        panic!()
    };
    let ServerResp::DataAllocated { block: b2, .. } = rpc(
        &store,
        0,
        ServerReq::AllocData {
            cli_id: 8,
            slot_len64: 2,
        },
    ) else {
        panic!()
    };
    rpc(&store, 0, ServerReq::DataFilled { block: b2 });

    let dm = store.cluster.background_client();
    let ids = store.map.blocks.record_ids();
    let recs = read_records(&store, &dm, 0, 0, ids.clone()).unwrap();
    let open = |cli_id: u32| -> Vec<BlockId> {
        let owned = ids.clone().zip(&recs).filter(|(_, r)| r.cli_id == cli_id);
        let open = owned.filter(|(_, r)| r.index_version == 0);
        let open = open.filter(|(_, r)| r.role == Role::Data);
        open.map(|(id, _)| id).collect()
    };
    assert_eq!(open(7), vec![b1]);
    // Client 8's block is filled, so it no longer appears.
    assert!(open(8).is_empty());
    store.shutdown();
}

/// A client names the blocks of `DataFilled` and `BitmapFlush`; one with no
/// record — a granted DELTA-pool block, or an id past the Block Area —
/// leaves every MN's Meta Area, all three record tables, byte-identical.
#[test]
fn ids_without_a_record_change_no_table() {
    let store = store();
    let blocks = store.map.blocks;
    let req = ServerReq::AllocDelta {
        array: 0,
        row: 0,
        parity_row: 3,
    };
    let ServerResp::DeltaAllocated { block: delta } = rpc(&store, 1, req) else {
        panic!("no delta granted")
    };
    let before = meta_areas(&store);
    for block in [delta, blocks.blocks_per_node() as BlockId] {
        rpc(&store, 1, ServerReq::DataFilled { block });
        let updates = vec![(block, vec![0, 4])];
        rpc(&store, 1, ServerReq::BitmapFlush { updates });
        assert!(
            meta_areas(&store) == before,
            "block {block} changed a table"
        );
    }
    store.shutdown();
}

/// An MN that dies between two RPCs of a client's block close: the RPC
/// that reached it ran to completion, the next one to that column fails
/// with `NodeUnreachable` (the error the chaos cells write a blocked
/// client off on), and the dead server's endpoint answers `RpcClosed`
/// without running its handler.
#[test]
fn kill_between_rpcs_of_a_close_surfaces_as_node_unreachable() {
    let store = store();
    let mut client = store.client().unwrap();
    client.insert(b"closing", b"value").unwrap();
    // The close's first RPC is `DataFilled` to the open block's column:
    // it executes, then that node fail-stops. The two `EncodeDelta`s go to
    // other columns; the tail-slot `BitmapFlush` goes back to the dead one.
    client
        .dm
        .install_fault_plan(FaultPlan::with_rules(vec![FaultRule::new(
            FaultAction::KillNode,
        )
        .on_kind(VerbKind::Rpc)]));
    let err = client.close_open_blocks().unwrap_err();
    let StoreError::Rdma(RdmaError::NodeUnreachable(dead)) = err else {
        panic!("unexpected error: {err}");
    };
    let col = (0..store.cfg.num_mns)
        .find(|&c| store.directory().node_of(c) == dead)
        .expect("a column of the group died");

    let server = store.server(col);
    let filled = server
        .records
        .lock()
        .iter()
        .any(|r| r.role == Role::Data && r.cli_id == client.id() && r.index_version != 0);
    assert!(filled, "DataFilled must have run before the kill");

    let busy = server.meters.snapshot();
    let endpoint = store.directory().rpc_of(col);
    assert!(matches!(
        endpoint.call(ServerReq::GetOldCopy { block: 0 }),
        Err(RdmaError::RpcClosed)
    ));
    assert_eq!(
        server.meters.snapshot(),
        busy,
        "a dead server ran a handler"
    );
    store.shutdown();
}

/// `ScanNew` answers, block for block, what `kv::decode` says of every slot
/// of the column's new DATA blocks, for every column asking: on a column
/// holding a reused block (last round's KVs still in its unwritten slots),
/// an invalidated KV and keys routed to every column. It reads line 0 of
/// every slot and the trailer's line of every written one — never a block
/// — and "new" is the recovery's rule: Index Version 0 or ≥ `since_iv`.
#[test]
fn scan_new_answers_what_decode_says() {
    use aceso_core::kv;
    use aceso_core::proto::ScannedBlock;

    let cfg = AcesoConfig {
        num_arrays: 2,
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let key = |i: u32| format!("scan-new-{i}").into_bytes();
    for i in 0..500 {
        c.insert(&key(i), &[0; 180]).unwrap();
    }
    let reused = |store: &AcesoStore| {
        (0..store.cfg.num_mns).find(|&col| !store.server(col).old_copies.lock().is_empty())
    };
    for v in 1..=20 {
        if reused(&store).is_some() {
            break;
        }
        for i in 0..500 {
            c.update(&key(i), &[v; 180]).unwrap();
        }
        c.flush_bitmaps().unwrap();
    }
    let col = reused(&store).expect("the rounds must have reused a block");
    let (server, blocks) = (store.server(col), store.map.blocks);
    let bs = blocks.block_size as usize;
    let data: Vec<(BlockId, BlockRecord)> = {
        let recs = server.records.lock();
        let data = recs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.role == Role::Data);
        data.map(|(id, r)| (id as BlockId, r)).collect()
    };
    let content = |id: BlockId| server.node.region.read_vec(blocks.block_offset(id), bs);

    // A client that lost its commit race invalidates its KV in place.
    let (first, rec) = &data[0];
    let slot_bytes = rec.slot_len64 as usize * 64;
    let s = content(*first)
        .unwrap()
        .chunks_exact(slot_bytes)
        .position(|slot| kv::decode(slot).is_some());
    let at = blocks.block_offset(*first) + (s.unwrap() * slot_bytes + kv::SLOT_VER_OFF) as u64;
    let invalid = kv::INVALID_SLOT_VERSION.to_le_bytes();
    server.node.region.write(at, &invalid).unwrap();

    for (since_iv, of_column) in [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (u64::MAX, col)] {
        let req = ServerReq::ScanNew {
            of_column,
            since_iv,
        };
        let ServerResp::Scanned { blocks: got, lines } = rpc(&store, col, req) else {
            panic!("ScanNew answered something else");
        };
        let (mut want, mut slots, mut written) = (Vec::new(), 0, 0);
        let is_new = |r: &BlockRecord| r.index_version == 0 || r.index_version >= since_iv;
        for (id, rec) in data.iter().filter(|(_, r)| is_new(r)) {
            let mut found = ScannedBlock::new(rec.slot_len64, bs);
            let bytes = content(*id).unwrap();
            for (s, slot) in bytes.chunks_exact(rec.slot_len64 as usize * 64).enumerate() {
                (slots, written) = (slots + 1, written + u64::from(slot[0] != 0));
                if let Some(kv) = kv::decode(slot) {
                    found.push(s, kv, 5, of_column);
                }
            }
            want.push((*id, found));
        }
        assert!(!want.is_empty(), "an open block is always new");
        assert_eq!(got, want, "of_column {of_column}, since_iv {since_iv}");
        // Four-line slots: the header's line, and the trailer's if written.
        assert_eq!(lines, slots + written);
        if since_iv == 0 {
            // Decoded, and neither routed nor foreign.
            let foreign = |b: &ScannedBlock| b.foreign.iter().map(|x| x.count_ones()).sum::<u32>();
            let dead = |b: &ScannedBlock| b.decoded - b.routed.len() - foreign(b) as usize;
            assert_eq!(got.iter().map(|(_, b)| dead(b)).sum::<usize>(), 1);
        }
    }
    store.shutdown();
}

/// `ScanNew` reads the records where they live: a DATA record rewritten in
/// its column's own table — its Index Version, with a region write — moves
/// the block out of the answer with no handler involved.
#[test]
fn scan_new_follows_the_record_table() {
    let store = store();
    let mut c = store.client().unwrap();
    for i in 0..200u32 {
        c.insert(format!("table-{i}").as_bytes(), &[1; 300])
            .unwrap();
    }
    let blocks = store.map.blocks;
    let scanned = |col: usize| {
        let req = ServerReq::ScanNew {
            of_column: col,
            since_iv: u64::MAX,
        };
        let ServerResp::Scanned { blocks, .. } = rpc(&store, col, req) else {
            panic!("ScanNew answered something else");
        };
        blocks.into_iter().map(|(id, _)| id).collect::<Vec<_>>()
    };
    // An open DATA block: Index Version 0, new to every checkpoint.
    let ids = blocks.record_ids();
    let cells = (0..store.cfg.num_mns).flat_map(|col| ids.clone().map(move |id| (col, id)));
    let (col, id, mut rec) = cells
        .map(|(col, id)| (col, id, record(&store, col, id)))
        .find(|(_, _, r)| r.role == Role::Data && r.index_version == 0)
        .expect("an open DATA block");
    assert!(scanned(col).contains(&id));
    rec.index_version = 1;
    let region = &store.server(col).node.region;
    let bytes = rec.encode(blocks.block_size);
    region.write(blocks.record_offset(id), &bytes).unwrap();
    assert!(
        !scanned(col).contains(&id),
        "ScanNew answers what the table says"
    );
    store.shutdown();
}

/// Every live column's record table is its records: each record in it
/// decodes and re-encodes to its own bytes, so a one-sided reader — the
/// stripe book, scrub, CN recovery, a degraded SEARCH's head read — loses
/// nothing; each reads FREE or its cell's own role, DATA or PARITY, which
/// is what a DATA grant reads off it; and both copies on live holders hold
/// the table byte for byte, which MN recovery reads back. A DELTA block
/// has no record of its own:
/// the ones off the column's free list are exactly those its PARITY
/// records' Delta Addr name, each once, and `memory_usage` counts them.
fn assert_tables_hold_their_records(store: &Arc<AcesoStore>, when: &str) {
    let (n, blocks) = (store.cfg.num_mns, store.map.blocks);
    let table = |holder: usize, copy: usize| {
        let at = blocks.record_offset_in(copy, 0);
        let region = &store.server(holder).node.region;
        region.read_vec(at, blocks.table_size() as usize).unwrap()
    };
    let mut deltas = 0;
    for col in (0..n).filter(|&c| store.col_alive(c)) {
        let own = table(col, 0);
        let mut named = Vec::new();
        let rows = own.chunks_exact(blocks.record_bytes() as usize);
        for (id, bytes) in blocks.record_ids().zip(rows) {
            let rec = BlockRecord::decode(bytes, blocks.block_size);
            assert_eq!(
                rec.encode(blocks.block_size),
                bytes,
                "{when}: column {col} block {id}"
            );
            let held = match blocks.kind_of(id) {
                CellKind::Data { .. } => Role::Data,
                _ => Role::Parity,
            };
            assert!(
                rec.role == Role::Free || rec.role == held,
                "{when}: column {col} block {id} reads {:?}",
                rec.role
            );
            let words = rec
                .delta_addr
                .into_iter()
                .filter(|&a| a != 0 && rec.role == Role::Parity);
            for (dcol, doff) in words.map(unpack_col) {
                assert_eq!(
                    dcol, col,
                    "{when}: column {col} block {id} names a remote delta"
                );
                let delta = blocks.locate(doff).unwrap().0;
                assert!(
                    matches!(blocks.kind_of(delta), CellKind::Delta { .. }),
                    "{when}: column {col} block {id} names block {delta}"
                );
                named.push(delta);
            }
        }
        named.sort_unstable();
        let words = named.len();
        named.dedup();
        assert_eq!(
            named.len(),
            words,
            "{when}: column {col} names a DELTA block twice"
        );
        deltas += named.len() as u64;
        for copy in 1..RECORD_TABLES {
            let holder = (col + copy) % n;
            if store.col_alive(holder) {
                assert!(
                    table(holder, copy) == own,
                    "{when}: column {col}'s copy on {holder}"
                );
            }
        }
    }
    let usage = store.memory_usage().delta;
    assert_eq!(
        usage,
        deltas * blocks.block_size,
        "{when}: memory_usage().delta"
    );
}

/// The invariant behind the one-sided head read of a degraded SEARCH, after
/// every handler and hand-over that touches a parity record: `AllocDelta`,
/// `EncodeDelta`, a reused `AllocData` (a DELTA registered against an
/// already-encoded row), recovery's Meta tier and `ResetReplication` with
/// the replacement held in its degraded window, and `MigrateFinish`.
#[test]
fn record_tables_hold_through_a_degraded_window_and_a_join() {
    let cfg = AcesoConfig {
        num_arrays: 2,
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let key = |i: u32| format!("head-{i}").into_bytes();
    let round = |c: &mut aceso_core::AcesoClient, v: u8| {
        for i in 0..500 {
            c.update(&key(i), &[v; 180]).unwrap();
        }
        c.flush_bitmaps().unwrap();
    };
    for i in 0..500 {
        c.insert(&key(i), &[0; 180]).unwrap();
    }
    assert_tables_hold_their_records(&store, "open blocks (AllocDelta)");
    let mut reused = false;
    for v in 1..=20 {
        round(&mut c, v);
        reused |= (0..store.cfg.num_mns).any(|col| {
            let open =
                |r: BlockRecord| (0..3).any(|k| r.xor_map & (1 << k) != 0 && r.delta_addr[k] != 0);
            store.server(col).records.lock().iter().any(open)
        });
        assert_tables_hold_their_records(&store, "updates (EncodeDelta, reused AllocData)");
    }
    assert!(reused, "the rounds must have caught a reused block open");

    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    assert!(store.kill_mn(1));
    let mut recovery = store.begin_recovery(1).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();
    assert_tables_hold_their_records(&store, "index-only replacement (Meta tier)");
    round(&mut c, 21);
    recovery.run().unwrap();
    assert_tables_hold_their_records(&store, "recovered");

    let mut join = store.begin_join(3).unwrap();
    while join.step().unwrap() != ElasticStep::Done {
        round(&mut c, 22);
        assert_tables_hold_their_records(&store, "mid-migration / MigrateFinish");
    }
    assert_eq!(c.search(&key(7)).unwrap().unwrap(), vec![22u8; 180]);
    assert!(aceso_core::scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// The whole-record contract behind the one-sided record reads, across
/// reclaiming updates, block closes, two MN recoveries (the second with
/// DELTA blocks in use), an elastic join and a CN recovery.
#[test]
fn meta_area_holds_every_record_and_its_copies() {
    use aceso_core::client::CrashPoint;
    let cfg = AcesoConfig {
        num_arrays: 4,
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let key = |i: u32| format!("meta-{i}").into_bytes();
    let round = |c: &mut aceso_core::AcesoClient, v: u8| {
        for i in 0..400 {
            c.update(&key(i), &[v; 180]).unwrap();
        }
        c.flush_bitmaps().unwrap();
    };
    for i in 0..400 {
        c.insert(&key(i), &[0; 180]).unwrap();
    }
    assert_tables_hold_their_records(&store, "open blocks");
    for v in 1..=8 {
        round(&mut c, v);
        assert_tables_hold_their_records(&store, "reclaiming updates");
    }
    c.close_open_blocks().unwrap();
    assert_tables_hold_their_records(&store, "closed blocks");
    store.checkpoint_tick().unwrap();
    assert!(store.kill_mn(1));
    aceso_core::recover_mn(&store, 1).unwrap();
    assert_tables_hold_their_records(&store, "recovered");
    round(&mut c, 9);
    assert_tables_hold_their_records(&store, "updates after recovery");
    // Killed with DELTA blocks in use: the Meta tier restores the words
    // that name them.
    let busy = (0..store.cfg.num_mns)
        .find(|&col| !named_deltas(&store, col).is_empty())
        .expect("the client's open blocks hold DELTA blocks");
    assert!(store.kill_mn(busy));
    aceso_core::recover_mn(&store, busy).unwrap();
    assert_tables_hold_their_records(&store, "recovered with open blocks");

    let mut join = store.begin_join(3).unwrap();
    while join.step().unwrap() != ElasticStep::Done {
        round(&mut c, 10);
    }
    assert_tables_hold_their_records(&store, "joined");

    let id = c.id();
    c.crash_point = Some(CrashPoint::BeforeCommit);
    assert!(c.update(&key(7), &[11; 180]).is_err());
    drop(c);
    aceso_core::recover_cn(&store, id).unwrap();
    assert_tables_hold_their_records(&store, "CN recovered");
    let mut revived = store.client_with_id(id);
    assert_eq!(revived.search(&key(7)).unwrap().unwrap(), vec![10u8; 180]);
    store.shutdown();
}

/// `Fold` answers the XOR of its sources in the caller's own buffer — its
/// column's from its memory, the others' one-sided — and an unreachable
/// source as a typed fabric error.
#[test]
fn fold_xors_its_sources_and_types_an_unreachable_one() {
    use aceso_core::config::pack_col;
    let store = store();
    let (blocks, bs) = (store.map.blocks, store.map.blocks.block_size as usize);
    let off = |r: usize| blocks.block_offset(blocks.cell_block_id(0, r));
    let bytes = |seed: u8| {
        (0..bs)
            .map(|i| (i as u8).wrapping_mul(seed))
            .collect::<Vec<_>>()
    };
    for (c, seed) in [(0, 3), (1, 5), (2, 7)] {
        store
            .server(c)
            .node
            .region
            .write(off(c), &bytes(seed))
            .unwrap();
    }
    let sources: Vec<u64> = (0..3).map(|c| pack_col(c, off(c))).collect();
    let buf = vec![0xAA; bs];
    let at = buf.as_ptr();
    let resp = rpc(&store, 1, ServerReq::Fold { sources, buf });
    let ServerResp::Folded { block: Ok(got) } = resp else {
        panic!("a fold of three readable blocks");
    };
    let (a, b, c) = (bytes(3), bytes(5), bytes(7));
    let want: Vec<u8> = (0..bs).map(|i| a[i] ^ b[i] ^ c[i]).collect();
    assert!(got == want);
    assert_eq!(got.as_ptr(), at, "the caller's buffer comes back");

    let dead = store.directory().node_of(2);
    assert!(store.kill_mn(2));
    let sources = vec![pack_col(1, off(1)), pack_col(2, off(2))];
    let resp = rpc(&store, 1, ServerReq::Fold { sources, buf: got });
    let ServerResp::Folded { block: Err(err) } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(*err, RdmaError::NodeUnreachable(dead));
}

/// Column `col`'s Checkpoint Area: the index bytes it holds and the Index
/// Version word beside them.
fn checkpoint_area(store: &Arc<AcesoStore>, col: usize) -> (Vec<u8>, u64) {
    area(store, col, store.map.ckpt)
}

/// What index-shaped area `area` of column `col`'s region holds.
fn area(store: &Arc<AcesoStore>, col: usize, area: IndexLayout) -> (Vec<u8>, u64) {
    let region = &store.server(col).node.region;
    let len = (area.index_version_offset() - area.base) as usize;
    let data = region.read_vec(area.base, len).unwrap();
    (data, region.load64(area.index_version_offset()).unwrap())
}

/// Every column's Checkpoint Area holds, byte for byte, its left
/// neighbour's Baseline Area, which that neighbour's next delta is taken
/// against — after each tick, with the label one behind that neighbour's
/// live Index Version — and so does a replaced column's: zeros, before the
/// tick after `recover_mn` refills it, and the column it held the
/// checkpoint of writes what it read there into its own baseline.
#[test]
fn checkpoint_area_holds_the_left_neighbours_baseline() {
    let store = store();
    let n = store.cfg.num_mns;
    let left = |col: usize| store.server((col + n - 1) % n);
    let agree = |when: &str, ticked: bool| {
        for col in 0..n {
            let (data, iv) = checkpoint_area(&store, col);
            let sender = left(col);
            let baseline = area(&store, sender.column, store.map.baseline).0;
            assert!(data == baseline, "column {col} {when}");
            if ticked {
                let live = sender.index.local_index_version(&sender.node.region);
                assert_eq!(iv + 1, live, "column {col} {when}");
            }
        }
    };
    let mut c = store.client().unwrap();
    let key = |i: u32| format!("ckpt-area-{i}").into_bytes();
    agree("at launch", false);
    for round in 0..3u8 {
        for i in 0..300 {
            match round {
                0 => c.insert(&key(i), &[round; 300]).unwrap(),
                _ => c.update(&key(i), &[round; 300]).unwrap(),
            }
        }
        store.checkpoint_tick().unwrap();
        agree("after a tick", true);
    }
    assert!(store.kill_mn(2));
    aceso_core::recover_mn(&store, 2).unwrap();
    assert_eq!(
        checkpoint_area(&store, 2),
        (vec![0; store.map.index.size_bytes() as usize - 8], 0)
    );
    agree("after recover_mn", false);
    store.checkpoint_tick().unwrap();
    let (refilled, iv) = checkpoint_area(&store, 2);
    assert!(iv != 0 && refilled.iter().any(|&b| b != 0), "not refilled");
    agree("on the tick after recover_mn", true);
    let mut join = store.begin_join(3).unwrap();
    while join.step().unwrap() != ElasticStep::Done {
        store.checkpoint_tick().unwrap();
    }
    store.checkpoint_tick().unwrap();
    agree("after a join", true);
    store.shutdown();
}

/// With its right neighbour down too, a column recovers from Index Version
/// 0: nothing of a checkpoint crosses the wire — not even its version word
/// — and every DATA block of the column is new, decoded and scanned; with
/// the neighbour up, the word and the checkpoint arrive and the same blocks
/// are old.
#[test]
fn recovery_without_the_right_neighbour_scans_everything() {
    let pair = [store(), store()];
    let index_bytes = pair[0].map.index.size_bytes() - 8;
    for store in &pair {
        let mut c = store.client().unwrap();
        for i in 0..600u32 {
            c.insert(format!("fallback-{i}").as_bytes(), &[7; 300])
                .unwrap();
        }
        c.close_open_blocks().unwrap();
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
    }
    let data_blocks = |store: &Arc<AcesoStore>| {
        let recs = store.server(1).records.lock().iter();
        recs.filter(|r| r.role == Role::Data).count()
    };
    let blocks = data_blocks(&pair[0]);
    assert!(blocks > 0 && blocks == data_blocks(&pair[1]));

    let (alone, healthy) = (&pair[0], &pair[1]);
    assert!(alone.kill_mn(1) && alone.kill_mn(2));
    let r = aceso_core::recover_mn(alone, 1).unwrap();
    assert_eq!(
        (r.ckpt_bytes, r.ckpt_net_ms, r.lblock_count),
        (0, 0.0, blocks)
    );
    let server = alone.server(1);
    assert_eq!(server.index.local_index_version(&server.node.region), 1);
    aceso_core::recover_mn(alone, 2).unwrap();

    assert!(healthy.kill_mn(1));
    let r = aceso_core::recover_mn(healthy, 1).unwrap();
    assert_eq!(
        (r.ckpt_bytes, r.lblock_count, r.old_lblock_count),
        (8 + index_bytes, 0, blocks)
    );
    assert!(r.ckpt_net_ms > 0.0);
    let server = healthy.server(1);
    assert_eq!(server.index.local_index_version(&server.node.region), 3);
    for store in &pair {
        let mut c = store.client().unwrap();
        for i in (0..600u32).step_by(7) {
            assert!(c
                .search(format!("fallback-{i}").as_bytes())
                .unwrap()
                .is_some());
        }
    }
}

/// Every DELTA-pool block no Delta Addr word names reads all zero, so the
/// one `AllocDelta` grants next needs no zeroing: after folds freed blocks
/// the pool had handed out before, after `recover_mn` restored a column's
/// records on a fresh region, and after an elastic join moved a column
/// onto another node.
#[test]
fn granted_delta_blocks_read_all_zero() {
    let store = store();
    let (blocks, n) = (store.map.blocks, store.cfg.num_mns);
    let bs = blocks.block_size as usize;
    let key = |i: u32| format!("zeroed-delta-{i}").into_bytes();
    let mut c = store.client().unwrap();
    for i in 0..200 {
        c.insert(&key(i), &[0; 900]).unwrap();
    }
    // Each round opens and closes a block per column or so, two deltas
    // each: the rounds cycle every column's pool more than once.
    let churn = |c: &mut aceso_core::AcesoClient, rounds: u8| {
        for v in 1..=rounds {
            for i in 0..200 {
                c.update(&key(i), &[v; 900]).unwrap();
            }
            c.close_open_blocks().unwrap();
            c.flush_bitmaps().unwrap();
        }
    };
    let zeroed = |when: &str| {
        for col in 0..n {
            let (server, named) = (store.server(col), named_deltas(&store, col));
            let pool = (0..blocks.num_delta).map(|i| blocks.delta_block_id(i));
            for id in pool.filter(|id| !named.contains(id)) {
                let bytes = server
                    .node
                    .region
                    .read_vec(blocks.block_offset(id), bs)
                    .unwrap();
                assert!(
                    bytes.iter().all(|&b| b == 0),
                    "free delta {id} of column {col} {when}"
                );
            }
            // And the one granted next, on a stripe no client touches.
            let array = blocks.num_arrays - 1;
            let alloc = ServerReq::AllocDelta {
                array,
                row: 0,
                parity_row: n - 2,
            };
            let ServerResp::DeltaAllocated { block } = rpc(&store, col, alloc) else {
                panic!("no delta block on column {col} {when}")
            };
            let bytes = server
                .node
                .region
                .read_vec(blocks.block_offset(block), bs)
                .unwrap();
            assert!(
                bytes.iter().all(|&b| b == 0),
                "granted delta {block} of column {col} {when}"
            );
            let encode = ServerReq::EncodeDelta {
                array,
                row: 0,
                parity_row: n - 2,
            };
            assert!(matches!(rpc(&store, col, encode), ServerResp::Ok));
        }
    };
    churn(&mut c, 30);
    zeroed("after folds");
    store.checkpoint_tick().unwrap();
    assert!(store.kill_mn(1));
    aceso_core::recover_mn(&store, 1).unwrap();
    zeroed("after recover_mn");
    churn(&mut c, 4);
    let mut join = store.begin_join(3).unwrap();
    while join.step().unwrap() != ElasticStep::Done {
        churn(&mut c, 1);
    }
    zeroed("after an elastic join");
    churn(&mut c, 4);
    zeroed("after folds on the joined column");
    for i in 0..200 {
        assert_eq!(c.search(&key(i)).unwrap(), Some(vec![4; 900]), "key {i}");
    }
    assert!(aceso_core::scrub(&store).unwrap().is_clean());
    store.shutdown();
}
