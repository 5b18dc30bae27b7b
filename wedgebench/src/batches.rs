//! What the replies alone say about batching: every reply carries
//! `EntryId { log_id, offset }`, so the log positions (batches) the node
//! formed can be rebuilt from outside, with when each filled and when its
//! replies came back.

use std::collections::BTreeMap;
use std::time::Instant;

use wedge_core::EntryId;

use crate::summary;

/// One acknowledged operation of a timed window.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Which log the entry went to (always 0 on a single node).
    pub shard: usize,
    pub id: EntryId,
    /// When its latency clock started (submit call or due time).
    pub started: Instant,
    pub replied: Instant,
}

/// One log position as rebuilt from the replies.
#[derive(Clone, Copy, Debug)]
pub struct Position {
    pub shard: usize,
    pub log_id: u64,
    pub ops: usize,
    pub first_started: Instant,
    pub last_started: Instant,
    pub last_replied: Instant,
}

/// Groups operations into positions, ordered by `(shard, log_id)`.
pub fn positions(ops: &[Op]) -> Vec<Position> {
    let mut map: BTreeMap<(usize, u64), Position> = BTreeMap::new();
    for op in ops {
        map.entry((op.shard, op.id.log_id))
            .and_modify(|p| {
                p.ops += 1;
                p.first_started = p.first_started.min(op.started);
                p.last_started = p.last_started.max(op.started);
                p.last_replied = p.last_replied.max(op.replied);
            })
            .or_insert(Position {
                shard: op.shard,
                log_id: op.id.log_id,
                ops: 1,
                first_started: op.started,
                last_started: op.started,
                last_replied: op.replied,
            });
    }
    map.into_values().collect()
}

/// Batching as seen from outside, for the `core.*` layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shape {
    pub positions: usize,
    pub ops_per_batch: f64,
    /// Median over positions: first submit → last submit (how long the
    /// batch took to fill).
    pub fill_ms: f64,
    /// Median over operations: own submit → its batch's last submit (how
    /// long it waited for the batch to close).
    pub queue_wait_p50_ms: f64,
    /// Median over positions: last submit → last reply (closed batch →
    /// replies out).
    pub service_ms: f64,
}

pub fn shape(ops: &[Op]) -> Shape {
    let positions = positions(ops);
    if positions.is_empty() {
        return Shape::default();
    }
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
    let mut fill: Vec<f64> = positions
        .iter()
        .map(|p| ms(p.first_started, p.last_started))
        .collect();
    let mut service: Vec<f64> = positions
        .iter()
        .map(|p| ms(p.last_started, p.last_replied))
        .collect();
    let closes: BTreeMap<(usize, u64), Instant> = positions
        .iter()
        .map(|p| ((p.shard, p.log_id), p.last_started))
        .collect();
    let mut wait: Vec<f64> = ops
        .iter()
        .map(|op| ms(op.started, closes[&(op.shard, op.id.log_id)]))
        .collect();
    summary::sort(&mut fill);
    summary::sort(&mut service);
    summary::sort(&mut wait);
    Shape {
        positions: positions.len(),
        ops_per_batch: ops.len() as f64 / positions.len() as f64,
        fill_ms: summary::median(&fill).unwrap_or(0.0),
        queue_wait_p50_ms: summary::median(&wait).unwrap_or(0.0),
        service_ms: summary::median(&service).unwrap_or(0.0),
    }
}

/// Checks that one log's entry ids are gapless: log ids dense from 0 and,
/// within each position, offsets dense from 0 with no duplicate. Returns
/// the number of positions.
pub fn check_dense(ids: impl IntoIterator<Item = EntryId>) -> Result<u64, String> {
    let mut by_position: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for id in ids {
        by_position.entry(id.log_id).or_default().push(id.offset);
    }
    for (expected, (log_id, offsets)) in by_position.iter_mut().enumerate() {
        if *log_id != expected as u64 {
            return Err(format!(
                "log ids not dense: expected position {expected}, found {log_id}"
            ));
        }
        offsets.sort_unstable();
        if let Some((want, got)) = (0u32..)
            .zip(offsets.iter())
            .find(|(want, got)| want != *got)
        {
            return Err(format!(
                "position {log_id}: offsets not dense at {want} (found {got})"
            ));
        }
    }
    Ok(by_position.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn id(log_id: u64, offset: u32) -> EntryId {
        EntryId { log_id, offset }
    }

    #[test]
    fn rebuilds_positions_and_their_timing_from_entry_ids() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let op = |log_id, offset, started, replied| Op {
            shard: 0,
            id: id(log_id, offset),
            started: at(started),
            replied: at(replied),
        };
        // Position 0 fills over 10 ms and is answered 5 ms after it closed;
        // position 1 fills over 30 ms and is answered 8 ms after.
        let ops = vec![
            op(0, 0, 0, 14),
            op(0, 1, 4, 15),
            op(0, 2, 10, 15),
            op(1, 0, 20, 57),
            op(1, 1, 50, 58),
        ];
        let rebuilt = positions(&ops);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt[0].ops, 3);
        assert_eq!(rebuilt[1].log_id, 1);
        assert_eq!(rebuilt[1].last_replied, at(58));
        let shape = shape(&ops);
        assert_eq!(shape.positions, 2);
        assert!((shape.ops_per_batch - 2.5).abs() < 1e-9);
        assert!((shape.fill_ms - 20.0).abs() < 1e-6, "{shape:?}");
        assert!((shape.service_ms - 6.5).abs() < 1e-6, "{shape:?}");
        // Waits: 10, 6, 0, 30, 0 → median 6.
        assert!((shape.queue_wait_p50_ms - 6.0).abs() < 1e-6, "{shape:?}");
    }

    #[test]
    fn shards_are_separate_logs() {
        let t0 = Instant::now();
        let op = |shard| Op {
            shard,
            id: id(0, 0),
            started: t0,
            replied: t0,
        };
        assert_eq!(positions(&[op(0), op(1)]).len(), 2);
    }

    #[test]
    fn density_check_finds_gaps_and_duplicates() {
        assert_eq!(check_dense([id(0, 1), id(0, 0), id(1, 0)]), Ok(2));
        assert!(
            check_dense([id(0, 0), id(2, 0)]).is_err(),
            "missing position 1"
        );
        assert!(check_dense([id(1, 0)]).is_err(), "does not start at 0");
        assert!(check_dense([id(0, 0), id(0, 2)]).is_err(), "offset gap");
        assert!(
            check_dense([id(0, 0), id(0, 0)]).is_err(),
            "duplicate offset"
        );
        assert_eq!(check_dense([]), Ok(0));
    }
}
