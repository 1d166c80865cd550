//! Incremental attack-graph reachability, live, via the query registry.
//!
//! A security team's attack graph is never finished: network scans keep
//! discovering links (host A can talk to host B), and each discovery can
//! silently extend an attacker's reach. Recomputing reachability from
//! scratch per discovery is exactly the batch-processing trap the paper
//! argues against — here the whole pipeline is incremental instead, and
//! the [`QueryRegistry`] (DESIGN.md §17) keeps several analyses live on
//! **one** shared copy of the topology:
//!
//! - `exposure` — multi S-T connectivity ([`IncStCon`]) from the
//!   internet-facing entry points: which hosts can an attacker starting
//!   at any entry point currently reach, and from which entries?
//! - `blast`    — BFS hop count from the primary gateway: how deep does a
//!   perimeter breach cut?
//! - `pivot`    — degree tracking: the highly connected hosts an attacker
//!   would pivot through (and a defender should harden first).
//!
//! Mid-scan, an incident responder declares a freshly disclosed CVE makes
//! two internal hosts attacker-controlled. The team attaches a *new*
//! `cve` connectivity query seeded at those hosts **live**: the registry
//! backfills its column from the adjacency the shards already store — the
//! scan stream is not replayed — and every later discovery updates it
//! incrementally like the others. A "When" trigger (§III-E) pages on the
//! compound condition "reachable from an entry point AND within 3 hops of
//! the gateway": it fires at most once per host, the moment some
//! discovery first satisfies it.
//!
//! Run with: `cargo run --release --example attack_graph`

use remo::prelude::*;

fn main() {
    // The "network": a scale-free topology whose edge events arrive in
    // scan-discovery order (shuffled — scans find links in no useful
    // order).
    let mut discoveries = Dataset::TwitterLike.generate(0.15, 2024);
    remo::gen::stream::shuffle(&mut discoveries, 5);

    // Internet-facing entry points: the first few distinct hosts the scan
    // saw (a DMZ is small); the primary gateway is the first of them.
    let mut entries: Vec<u64> = Vec::new();
    for &(a, b) in &discoveries {
        for v in [a, b] {
            if !entries.contains(&v) {
                entries.push(v);
            }
            if entries.len() == 4 {
                break;
            }
        }
        if entries.len() == 4 {
            break;
        }
    }
    let gateway = entries[0];
    println!(
        "attack surface: {} reachability discoveries, entry points {entries:?}, gateway {gateway}",
        discoveries.len()
    );

    // One engine, one shared topology, N live analyses.
    let reg = QueryRegistry::<u64>::new();
    let mut builder = EngineBuilder::new(reg.clone(), EngineConfig::undirected(4));
    // Slot 0 = exposure mask, slot 1 = gateway hop count (attach order
    // below): page when a host is attacker-reachable AND shallow.
    builder.trigger(
        "attacker-reachable within 3 hops of gateway",
        |_, s: &RegPayload<u64>| {
            let exposed = s.cell(0).copied().unwrap_or(0) != 0;
            let hops = s.cell(1).copied().unwrap_or(0);
            exposed && hops > 0 && hops <= 3
        },
    );
    let engine = builder.build();
    let exposure = reg
        .attach(
            &engine,
            IncStCon::new(entries.clone()),
            &entries,
            "exposure",
        )
        .unwrap();
    let blast = reg.attach(&engine, IncBfs, &[gateway], "blast").unwrap();
    let pivot = reg.attach(&engine, DegreeCount, &[], "pivot").unwrap();

    // The scan streams in; all three analyses stay current throughout.
    let cut = discoveries.len() / 2;
    engine.try_ingest_pairs(&discoveries[..cut]).unwrap();
    engine.try_await_quiescence().unwrap();

    // Incident: a CVE drops, two mid-scan hosts are now presumed
    // compromised. Attach a fresh connectivity query seeded there — LIVE.
    // Backfill replays the stored adjacency inside each shard; the first
    // half of the scan is not re-ingested.
    let compromised = vec![discoveries[cut].0, discoveries[cut + 1].1];
    let cve = reg
        .attach(
            &engine,
            IncStCon::new(compromised.clone()),
            &compromised,
            "cve",
        )
        .unwrap();
    println!(
        "CVE response: attached live query from presumed-compromised hosts {compromised:?} \
         after {cut} discoveries ({} analyses on one topology)",
        reg.attached()
    );

    engine.try_ingest_pairs(&discoveries[cut..]).unwrap();
    engine.try_await_quiescence().unwrap();

    let pages = engine.trigger_events().try_iter().count();
    println!("pager: {pages} hosts became attacker-reachable within 3 hops of the gateway");

    // Harvest every analysis from the single run.
    let result = engine.try_finish().unwrap();
    let exposure_states = reg.project(&result.states, exposure);
    let blast_states = reg.project(&result.states, blast);
    let pivot_states = reg.project(&result.states, pivot);
    let cve_states = reg.project(&result.states, cve);

    let hosts = result.num_vertices;
    let exposed = exposure_states.iter().filter(|(_, m)| **m != 0).count();
    let fully = exposure_states
        .iter()
        .filter(|(_, m)| m.count_ones() as usize == entries.len())
        .count();
    let deep = blast_states
        .iter()
        .filter(|(_, l)| **l != 0 && **l != u64::MAX)
        .map(|(_, l)| *l)
        .max()
        .unwrap_or(0);
    let (hub, hub_deg) = pivot_states
        .iter()
        .max_by_key(|(_, d)| **d)
        .map(|(v, d)| (v, *d))
        .unwrap_or((0, 0));
    let cve_reach = cve_states.iter().filter(|(_, m)| **m != 0).count();

    println!(
        "exposure: {exposed}/{hosts} hosts reachable from some entry point ({fully} from all {})",
        entries.len()
    );
    println!("blast:    deepest reachable host is {deep} hops behind the gateway");
    println!("pivot:    host {hub} is the biggest pivot risk ({hub_deg} links)");
    println!("cve:      the mid-scan compromise reaches {cve_reach}/{hosts} hosts");
    for (id, name) in [
        (exposure, "exposure"),
        (blast, "blast"),
        (pivot, "pivot"),
        (cve, "cve"),
    ] {
        if let Some((envs, upds)) = reg.query_counters(id) {
            println!("  [{name:<8}] {envs:>9} envelopes sent, {upds:>9} updates applied");
        }
    }
    println!(
        "one topology, one run: {} discoveries drove all four analyses",
        result.metrics.total().topo_ingested
    );
}
