//! `fgcache bench-cluster` — differential proof of cluster mode over
//! real processes.
//!
//! ```text
//! fgcache bench-cluster [--nodes 3] [--events 6000] [--capacity 400]
//!                       [--shards 4] [--group 5] [--successors 8]
//!                       [--universe 2000] [--zipf 0.85] [--seed 2002]
//! ```
//!
//! Spawns `--nodes` real `fgcache serve --node-id` child processes on
//! ephemeral loopback ports (each child prints its address; no port
//! races), pushes an epoch'd membership view over the wire, replays a
//! streamed Zipf workload round-robin through the fleet, **removes the
//! highest node mid-replay and re-adds it later**, and byte-compares
//! every node's wire statistics against the single-process routing
//! oracle. Any divergence is an error (nonzero exit). The in-process
//! [`VirtualCluster`](fgcache_sim::cluster::VirtualCluster) gets the same
//! check at 100 nodes in `fgcache-sim`'s `tests/cluster_replay.rs`.

use std::error::Error;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use fgcache_net::{GroupRequest, NetClient, Transport, WireStats};
use fgcache_sim::cluster::{
    oracle_replay, zipf_stream, MembershipChange, MembershipEvent, VirtualClusterConfig,
};
use fgcache_types::FileId;

use crate::args::Args;

/// All knobs of one bench-cluster invocation.
#[derive(Debug, Clone)]
pub(crate) struct BenchClusterConfig {
    pub nodes: usize,
    pub events: u64,
    pub capacity: usize,
    pub shards: usize,
    pub group_size: usize,
    pub successor_capacity: usize,
    pub universe: usize,
    pub zipf: f64,
    pub seed: u64,
}

impl BenchClusterConfig {
    fn cluster_config(&self) -> VirtualClusterConfig {
        VirtualClusterConfig {
            nodes: self.nodes,
            node_capacity: self.capacity,
            shards: self.shards,
            group_size: self.group_size,
            successor_capacity: self.successor_capacity,
        }
    }

    fn events(&self) -> Result<impl Iterator<Item = FileId>, Box<dyn Error>> {
        Ok(zipf_stream(
            self.universe,
            self.zipf,
            self.seed,
            self.events,
        )?)
    }

    /// The churn schedule both replays share: the highest node leaves at
    /// 40% and rejoins at 70% — every change lands mid-replay.
    fn schedule(&self) -> Vec<MembershipEvent> {
        let churned = self.nodes as u64 - 1;
        if self.nodes < 2 || self.events < 10 {
            return Vec::new();
        }
        vec![
            MembershipEvent {
                at_event: self.events * 2 / 5,
                change: MembershipChange::Leave(churned),
            },
            MembershipEvent {
                at_event: self.events * 7 / 10,
                change: MembershipChange::Join(churned),
            },
        ]
    }
}

/// One spawned `fgcache serve --node-id` child and its control client.
struct ClusterChild {
    child: Child,
    addr: String,
    control: NetClient,
}

/// Kills every child on drop, so a failed check never leaks servers.
struct Fleet {
    children: Vec<ClusterChild>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for member in &mut self.children {
            let _ = member.control.send_shutdown();
            let _ = member.child.kill();
            let _ = member.child.wait();
        }
    }
}

fn spawn_fleet(config: &BenchClusterConfig) -> Result<Fleet, Box<dyn Error>> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut children = Vec::new();
    for id in 0..config.nodes as u64 {
        let mut child = Command::new(&exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--capacity",
                &config.capacity.to_string(),
                "--shards",
                &config.shards.to_string(),
                "--group",
                &config.group_size.to_string(),
                "--successors",
                &config.successor_capacity.to_string(),
                "--node-id",
                &id.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn serve child {id}: {e}"))?;
        let stdout = child.stdout.take().ok_or("child stdout not captured")?;
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .map_err(|e| format!("cannot read child {id}'s address line: {e}"))?;
        let addr = first_line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("child {id} printed {first_line:?}, not an address line"))?
            .to_string();
        let control = NetClient::connect(&addr)
            .map_err(|e| format!("cannot connect to child {id} at {addr}: {e}"))?
            .with_id_namespace(1 + id);
        children.push(ClusterChild {
            child,
            addr,
            control,
        });
    }
    Ok(Fleet { children })
}

/// Pushes `members` as the view at `epoch` to every node in the fleet
/// (including nodes outside the ring — their processes keep serving).
fn push_view(
    fleet: &mut Fleet,
    epoch: u64,
    members: &[(u64, String)],
) -> Result<(), Box<dyn Error>> {
    for (id, member) in fleet.children.iter_mut().enumerate() {
        let held = member
            .control
            .send_cluster_update(epoch, members)
            .map_err(|e| format!("cluster update to node {id} failed: {e}"))?;
        if held != epoch {
            return Err(format!(
                "node {id} holds epoch {held} after a push of epoch {epoch} — \
                 views were applied out of order"
            )
            .into());
        }
    }
    Ok(())
}

/// Replays the workload through the multi-process fleet and checks it
/// against the oracle.
fn bench_tcp(config: &BenchClusterConfig) -> Result<String, Box<dyn Error>> {
    let mut fleet = spawn_fleet(config)?;
    let full_view: Vec<(u64, String)> = fleet
        .children
        .iter()
        .enumerate()
        .map(|(id, m)| (id as u64, m.addr.clone()))
        .collect();
    push_view(&mut fleet, 1, &full_view)?;

    let schedule = config.schedule();
    let mut pending = schedule.iter();
    let mut next_change = pending.next();
    let mut epoch = 1u64;
    let start = std::time::Instant::now();
    for (i, file) in config.events()?.enumerate() {
        let i = i as u64;
        while let Some(event) = next_change {
            if event.at_event > i {
                break;
            }
            epoch += 1;
            let members: Vec<(u64, String)> = match event.change {
                MembershipChange::Leave(gone) => full_view
                    .iter()
                    .filter(|(id, _)| *id != gone)
                    .cloned()
                    .collect(),
                MembershipChange::Join(_) => full_view.clone(),
            };
            push_view(&mut fleet, epoch, &members)?;
            next_change = pending.next();
        }
        let entry = (i % config.nodes as u64) as usize;
        let request = GroupRequest::new(i, vec![file]);
        fleet.children[entry]
            .control
            .fetch_group(&request)
            .map_err(|e| format!("fetch {i} via node {entry} failed: {e}"))?;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let measured: Vec<WireStats> = fleet
        .children
        .iter_mut()
        .map(|m| m.control.server_stats())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read server stats: {e}"))?;
    drop(fleet); // shuts the children down

    let oracle = oracle_replay(&config.cluster_config(), config.events()?, &schedule)?;
    for (i, (got, want)) in measured.iter().zip(&oracle).enumerate() {
        if got != want {
            return Err(format!(
                "cluster differential check FAILED: node {i}'s server stats diverge \
                 from the single-process oracle\n  cluster: {got:?}\n  oracle:  {want:?}"
            )
            .into());
        }
    }
    Ok(format!(
        "cluster differential check: PASS — {} TCP nodes, {} events, {} membership \
         change(s) mid-replay, per-node server stats byte-identical to the \
         single-process oracle\n  wall time {:.3}s ({:.0} events/s)\n",
        config.nodes,
        config.events,
        schedule.len(),
        elapsed,
        config.events as f64 / elapsed.max(1e-9),
    ))
}

pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    args.check_known(&[
        "nodes",
        "events",
        "capacity",
        "shards",
        "group",
        "successors",
        "universe",
        "zipf",
        "seed",
    ])?;
    let config = BenchClusterConfig {
        nodes: args.flag_or("nodes", 3usize)?,
        events: args.flag_or("events", 6_000u64)?,
        capacity: args.flag_or("capacity", 400usize)?,
        shards: args.flag_or("shards", 4usize)?,
        group_size: args.flag_or("group", 5usize)?,
        successor_capacity: args.flag_or("successors", 8usize)?,
        universe: args.flag_or("universe", 2_000usize)?,
        zipf: args.flag_or("zipf", 0.85f64)?,
        seed: args.flag_or("seed", 2002u64)?,
    };
    if config.nodes == 0 {
        return Err("--nodes must be greater than zero".into());
    }
    print!("{}", bench_tcp(&config)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BenchClusterConfig {
        BenchClusterConfig {
            nodes: 4,
            events: 4_000,
            capacity: 120,
            shards: 2,
            group_size: 3,
            successor_capacity: 4,
            universe: 300,
            zipf: 0.9,
            seed: 7,
        }
    }

    #[test]
    fn churn_schedule_shape() {
        let schedule = quick().schedule();
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule[0].change, MembershipChange::Leave(3));
        assert_eq!(schedule[1].change, MembershipChange::Join(3));
        assert!(schedule[0].at_event < schedule[1].at_event);
        // Degenerate shapes churn nothing.
        let mut single = quick();
        single.nodes = 1;
        assert!(single.schedule().is_empty());
    }
}
