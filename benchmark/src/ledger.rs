//! The heavy-state ledger of `crates/bench/src/bin/failover.rs`, copied so
//! the benchmark does not depend on the `tart-bench` crate.

use std::sync::Arc;

use tart_model::{
    AppSpec, BlockId, CheckpointMode, CkptCell, CkptMap, Component, Ctx, RestoreError, Snapshot,
    Value,
};
use tart_vtime::{PortId, VirtualTime};

/// A ledger whose every checkpoint is a full capture of all `keys`
/// accounts: restoring a chain costs real work, which is what cold and warm
/// failover differ in.
pub struct Ledger {
    accounts: CkptMap<String, u64>,
    seq: CkptCell<u64>,
}

impl Ledger {
    pub fn new(keys: usize) -> Self {
        let mut accounts = CkptMap::new();
        for k in 0..keys {
            accounts.insert(format!("acct-{k:06}"), 0);
        }
        Ledger {
            accounts,
            seq: CkptCell::new(0),
        }
    }
}

impl Component for Ledger {
    fn on_message(&mut self, _port: PortId, msg: &Value, ctx: &mut dyn Ctx) {
        ctx.tick_block(BlockId(0), 1);
        let i = msg.as_i64().unwrap_or(0) as u64;
        let n = self.accounts.len() as u64;
        for stride in [1u64, 7, 13] {
            let key = format!("acct-{:06}", (i * stride) % n);
            let v = self.accounts.get(&key).copied().unwrap_or(0);
            self.accounts.insert(key, v + 1);
        }
        self.seq.update(|s| *s += 1);
        ctx.send(PortId::new(1), Value::I64(*self.seq.get() as i64));
    }

    fn checkpoint(&mut self, _mode: CheckpointMode, vt: VirtualTime) -> Snapshot {
        // Always a full capture (§II.F.2 "large structure" checkpointed
        // wholesale): every chain member carries the entire ledger.
        let mut snap = Snapshot::new(vt);
        if let Some(chunk) = self.accounts.take_chunk(CheckpointMode::Full) {
            snap.put("accounts", chunk);
        }
        if let Some(chunk) = self.seq.take_chunk(CheckpointMode::Full) {
            snap.put("seq", chunk);
        }
        snap
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), RestoreError> {
        for (field, chunk) in snapshot.iter() {
            let result = match field {
                "accounts" => self.accounts.apply_chunk(chunk),
                "seq" => self.seq.apply_chunk(chunk),
                other => {
                    return Err(RestoreError::UnknownField {
                        field: other.to_owned(),
                    })
                }
            };
            result.map_err(|source| RestoreError::Corrupt {
                field: field.to_owned(),
                source,
            })?;
        }
        Ok(())
    }
}

/// `requests` → Ledger → `acks`.
pub fn ledger_app(keys: usize) -> AppSpec {
    let mut b = AppSpec::builder();
    let ledger = b.component(
        "Ledger",
        Arc::new(move || Box::new(Ledger::new(keys)) as Box<dyn Component>),
    );
    b.wire_in("requests", ledger, PortId::new(0));
    b.wire_out(ledger, PortId::new(1), "acks");
    b.build().expect("ledger topology is valid")
}
