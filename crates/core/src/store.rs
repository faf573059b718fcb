//! Top-level orchestration: launching a coding group, ticking checkpoints,
//! injecting failures, and shutting down.

use crate::ckpt::CkptReport;
use crate::client::AcesoClient;
use crate::config::{AcesoConfig, ClientTuning, MemoryMap};
use crate::placement::PlacementMap;
use crate::proto::{ServerReq, ServerResp};
use crate::server::{Directory, MnServer};
use crate::{Result, StoreError};
use aceso_blockalloc::Role;
use aceso_obs::Obs;
use aceso_rdma::{Cluster, ClusterConfig, DmClient};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Breakdown of Block Area memory consumption (paper Figure 12).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryUsage {
    /// Bytes of live (referenced) KV pairs.
    pub valid: u64,
    /// Bytes of erasure parity (the redundancy).
    pub redundancy: u64,
    /// Bytes of live DELTA blocks.
    pub delta: u64,
    /// Bytes of allocated DATA blocks (valid + obsolete + unwritten).
    pub data_allocated: u64,
}

impl MemoryUsage {
    /// Total footprint the paper compares (valid + redundancy + delta).
    pub fn total(&self) -> u64 {
        self.valid + self.redundancy + self.delta
    }
}

/// One running Aceso coding group.
pub struct AcesoStore {
    /// The simulated memory pool.
    pub cluster: Arc<Cluster>,
    /// The configuration it was launched with.
    pub cfg: AcesoConfig,
    /// The derived memory map (identical on every MN).
    pub map: MemoryMap,
    dir: Arc<Directory>,
    /// The optional auto-checkpoint loop: the only thread a store starts.
    ckpt_thread: Mutex<Option<JoinHandle<()>>>,
    next_cli: AtomicU32,
    running: Arc<AtomicBool>,
    ctl: DmClient,
    /// Columns whose PARITY rebuild is deferred until every column is back
    /// (multi-failure recovery cannot rebuild parity from dead peers).
    pub(crate) pending_parity: Mutex<Vec<usize>>,
    /// Columns serving reads whose hosted parity/delta copies are not yet
    /// re-materialized (the degraded window between the Index tier and the
    /// parity rebuild). CN recovery must not trust delta bytes hosted here.
    pub(crate) degraded: Mutex<Vec<usize>>,
    /// Observability handle. Off by default; [`AcesoStore::install_recorder`]
    /// turns it on for clients created afterwards and for recovery/scrub/
    /// checkpoint instrumentation.
    obs: Mutex<Obs>,
    /// Epoch-versioned column→node placement (elastic migration). Seeded
    /// from the launch membership epoch so placement epochs extend the
    /// membership-epoch sequence.
    placement: Arc<PlacementMap>,
}

impl AcesoStore {
    /// Launches a coding group of `cfg.num_mns` memory nodes with servers.
    pub fn launch(cfg: AcesoConfig) -> Result<Arc<Self>> {
        let map = cfg.memory_map();
        let cluster = Cluster::new(ClusterConfig {
            num_mns: cfg.num_mns,
            region_len: map.region_len,
            cost: cfg.cost,
        });
        let placement = Arc::new(PlacementMap::new(cluster.len() as u64));
        let servers: Vec<_> = cluster
            .nodes()
            .into_iter()
            .enumerate()
            .map(|(col, node)| MnServer::new(col, node, map, Arc::clone(&placement)))
            .collect();
        let dir = Directory::serving(&servers, &cluster);
        let store = Arc::new(AcesoStore {
            ctl: cluster.background_client(),
            placement,
            cluster,
            cfg: cfg.clone(),
            map,
            dir,
            ckpt_thread: Mutex::new(None),
            next_cli: AtomicU32::new(1),
            running: Arc::new(AtomicBool::new(true)),
            pending_parity: Mutex::new(Vec::new()),
            degraded: Mutex::new(Vec::new()),
            obs: Mutex::new(Obs::off()),
        });
        if cfg.auto_checkpoint {
            let weak = Arc::downgrade(&store);
            let running = Arc::clone(&store.running);
            let interval = std::time::Duration::from_millis(cfg.ckpt_interval_ms.max(1));
            *store.ckpt_thread.lock() = Some(std::thread::spawn(move || {
                while running.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    let Some(store) = weak.upgrade() else { break };
                    let _ = store.checkpoint_tick();
                }
            }));
        }
        Ok(store)
    }

    /// Creates a new client with default tuning.
    pub fn client(self: &Arc<Self>) -> Result<AcesoClient> {
        self.client_with(ClientTuning::default())
    }

    /// Creates a new client with explicit tuning (factor analysis).
    pub fn client_with(self: &Arc<Self>, tuning: ClientTuning) -> Result<AcesoClient> {
        if !self.running.load(Ordering::Acquire) {
            return Err(StoreError::Shutdown);
        }
        let id = self.next_cli.fetch_add(1, Ordering::Relaxed);
        Ok(AcesoClient::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.dir),
            self.map,
            Arc::clone(&self.placement),
            id,
            tuning,
            self.cfg.bitmap_flush_every,
            self.obs(),
        ))
    }

    /// Re-creates a client with a *specific* id (CN crash recovery: the
    /// restarted client must adopt the crashed one's CLI ID).
    pub fn client_with_id(self: &Arc<Self>, cli_id: u32) -> AcesoClient {
        AcesoClient::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.dir),
            self.map,
            Arc::clone(&self.placement),
            cli_id,
            ClientTuning::default(),
            self.cfg.bitmap_flush_every,
            self.obs(),
        )
    }

    /// The placement map (elastic migration, tests).
    pub fn placement(&self) -> &Arc<PlacementMap> {
        &self.placement
    }

    /// Columns currently in a degraded window — their hosted parity/delta
    /// copies are not trustworthy yet (a recovery before its Parity tier).
    /// Exposed for tests and chaos invariants.
    pub fn degraded_columns(&self) -> Vec<usize> {
        self.degraded.lock().clone()
    }

    /// Installs a metrics recorder: clients created from now on, recovery
    /// runs, scrubs and checkpoint rounds record into `registry`. Existing
    /// clients keep their (un)instrumented state.
    pub fn install_recorder(&self, registry: std::sync::Arc<aceso_obs::Registry>) {
        *self.obs.lock() = Obs::on(registry);
    }

    /// The current observability handle (cheap clone; off by default).
    pub fn obs(&self) -> Obs {
        self.obs.lock().clone()
    }

    /// The column directory (clients, recovery).
    pub fn directory(&self) -> &Arc<Directory> {
        &self.dir
    }

    /// Whether the node currently serving `col` is reachable.
    pub fn col_alive(&self, col: usize) -> bool {
        self.cluster.node(self.dir.node_of(col)).is_ok()
    }

    /// How many columns are down right now.
    pub(crate) fn lost_columns(&self) -> usize {
        (0..self.dir.len()).filter(|&c| !self.col_alive(c)).count()
    }

    /// The server state of `col` (stats, recovery orchestration).
    pub fn server(&self, col: usize) -> Arc<MnServer> {
        self.dir.server_of(col)
    }

    pub(crate) fn ctl_dm(&self) -> &DmClient {
        &self.ctl
    }

    /// Runs one synchronized checkpoint round across all columns (the
    /// paper's leading-server trigger), returning each column's report,
    /// then refills the cluster's standby region if a recovery or join
    /// claimed it (see [`aceso_rdma::Cluster::refill_standby`]).
    pub fn checkpoint_tick(&self) -> Result<Vec<CkptReport>> {
        let n = self.dir.len();
        let mut reports = Vec::with_capacity(n);
        for col in 0..n {
            let node = self.dir.node_of(col);
            if !self.col_alive(col) {
                continue; // Crashed column: skipped until recovered.
            }
            if let Ok(ServerResp::CkptDone { report }) =
                self.ctl
                    .rpc(node, &self.dir.rpc_of(col), ServerReq::CkptRound, 16)
            {
                reports.push(report);
            }
        }
        self.cluster.refill_standby();
        let obs = self.obs();
        if obs.is_enabled() {
            obs.add("ckpt.rounds", 1);
            for r in &reports {
                obs.add("ckpt.raw_bytes", r.raw_len as u64);
                obs.add("ckpt.compressed_bytes", r.compressed_len as u64);
                obs.observe("ckpt.compress.us", r.compress_us);
            }
        }
        Ok(reports)
    }

    /// Injects a fail-stop crash of the MN currently serving `col`.
    /// Idempotent: returns whether the node was alive (see
    /// [`aceso_rdma::Cluster::kill_node`]).
    pub fn kill_mn(&self, col: usize) -> bool {
        let node = self.dir.node_of(col);
        let server = self.server(col);
        server.alive.store(false, Ordering::Release);
        self.cluster.kill_node(node)
    }

    /// Sums Block Area consumption across the group (Figure 12).
    ///
    /// "Valid" counts live KV slots: completely written, not invalidated,
    /// not marked obsolete. Unflushed client bitmaps make this an upper
    /// bound; benches flush before measuring.
    pub fn memory_usage(&self) -> MemoryUsage {
        let mut usage = MemoryUsage::default();
        let bs = self.map.blocks.block_size;
        for server in (0..self.dir.len()).map(|col| self.server(col)) {
            if !server.node.is_alive() {
                continue;
            }
            let recs = server.records.lock();
            for (id, rec) in recs.iter().enumerate() {
                match rec.role {
                    Role::Data => {
                        usage.data_allocated += bs;
                        let slots = rec.slots(bs);
                        if slots == 0 {
                            continue;
                        }
                        let bytes = server
                            .node
                            .region
                            .read_vec(self.map.blocks.block_offset(id as u32), bs as usize)
                            .expect("block read");
                        let sb = (rec.slot_len64 as usize) * 64;
                        for s in 0..slots {
                            let slot = &bytes[s * sb..(s + 1) * sb];
                            if rec.bitmap.get(s) {
                                continue;
                            }
                            if let Some(d) = crate::kv::decode(slot) {
                                if !d.is_invalidated() {
                                    usage.valid += sb as u64;
                                }
                            }
                        }
                    }
                    // DELTA blocks have no row: their PARITY records name them.
                    Role::Parity => {
                        let named = rec.delta_addr.iter().filter(|&&a| a != 0).count();
                        usage.delta += bs * named as u64;
                    }
                    Role::Free => {}
                }
            }
        }
        // X-Code parity share: 2 parity cells per n−2 data cells.
        usage.redundancy = usage.data_allocated * 2 / (self.cfg.num_mns as u64 - 2);
        usage
    }

    /// Stops the servers and the auto-checkpoint loop; the memory pool
    /// itself remains readable for post-mortem inspection.
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::Release);
        for col in 0..self.dir.len() {
            self.server(col).alive.store(false, Ordering::Release);
        }
        let ckpt_thread = self.ckpt_thread.lock().take();
        if let Some(t) = ckpt_thread {
            let _ = t.join();
        }
    }
}

impl Drop for AcesoStore {
    fn drop(&mut self) {
        self.shutdown();
    }
}
