//! Layer probes: unit costs of the public functions of layers the
//! benchmark never calls directly (`value`, `net`, `persist`, `script`,
//! plus `core`'s image path), timed on inputs captured from the workload.
//! Each figure is the median of batch means, so one descheduled batch
//! does not move it.

use std::hint::black_box;
use std::time::Instant;

use hadas::ProtocolMsg;
use mrom_core::MromObject;
use mrom_net::{NetworkConfig, SimNet, Topology};
use mrom_persist::{BlobStore, MemStore};
use mrom_script::Program;
use mrom_value::{wire, NodeId};

use crate::world::{Capture, Res};

const BATCHES: usize = 15;

/// Unit costs in nanoseconds (sizes in bytes).
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `ProtocolMsg::encode` of the invoke request and its response.
    pub encode_ns: f64,
    /// `ProtocolMsg::decode` of the same two messages.
    pub decode_ns: f64,
    /// `wire::encode` of the object image.
    pub image_encode_ns: f64,
    /// `wire::decode` of the object image.
    pub image_decode_ns: f64,
    /// Encode + decode of the move request and its acknowledgement.
    pub move_codec_ns: f64,
    pub image_bytes: usize,
    /// `MromObject::image_value` of the hosted object.
    pub image_ns: f64,
    /// `MromObject::from_image_value_with_policy` under the workload policy.
    pub from_image_ns: f64,
    /// Compiling one captured method body (`Program::compiled`).
    pub compile_ns: f64,
    /// `MemStore::put` of the image bytes.
    pub put_ns: f64,
    /// One `Runtime::invoke` of the read method on the hosted object.
    pub invoke_local_ns: f64,
    /// One `SimNet::send` + `step` of the invoke request, at 64 nodes
    /// (cluster 8) and at 1000 nodes (cluster 32).
    pub send_step_64_ns: f64,
    pub send_step_1000_ns: f64,
}

/// Median over batches of the mean cost of `f` (warmed up once).
fn unit_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[BATCHES / 2]
}

/// Iterations per batch for a call of roughly `ns_guess` nanoseconds, so
/// a batch lasts about half a millisecond.
fn iters_for(ns_guess: f64) -> usize {
    ((500_000.0 / ns_guess.max(1.0)) as usize).clamp(4, 5_000)
}

fn calibrated(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let guess = start.elapsed().as_nanos() as f64;
    unit_ns(iters_for(guess), f)
}

pub fn run(fed: &mut hadas::Federation, cap: &Capture, seed: u64) -> Res<Probes> {
    let req = cap.invoke_req.encode();
    let resp = cap.invoke_resp.encode();
    let move_req = cap.move_req.encode();
    let move_ack = cap.move_ack.encode();
    let image_value = wire::decode(&cap.image)?;

    let encode_ns = calibrated(|| {
        black_box(cap.invoke_req.encode());
        black_box(cap.invoke_resp.encode());
    });
    let decode_ns = calibrated(|| {
        black_box(ProtocolMsg::decode(black_box(&req)).is_ok());
        black_box(ProtocolMsg::decode(black_box(&resp)).is_ok());
    });
    let image_encode_ns = calibrated(|| {
        black_box(wire::encode(black_box(&image_value)));
    });
    let image_decode_ns = calibrated(|| {
        black_box(wire::decode(black_box(&cap.image)).is_ok());
    });
    let move_codec_ns = calibrated(|| {
        black_box(cap.move_req.encode());
        black_box(cap.move_ack.encode());
        black_box(ProtocolMsg::decode(black_box(&move_req)).is_ok());
        black_box(ProtocolMsg::decode(black_box(&move_ack)).is_ok());
    });

    let image_ns = {
        let rt = fed.runtime(cap.host)?;
        let obj =
            rt.object(cap.object).ok_or_else(|| format!("{} left {}", cap.object, cap.host))?;
        calibrated(|| {
            black_box(obj.image_value().is_ok());
        })
    };
    let from_image_ns = calibrated(|| {
        black_box(
            MromObject::from_image_value_with_policy(black_box(&image_value), cap.policy).is_ok(),
        );
    });

    let compile_ns = {
        let iters = 200;
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let programs: Vec<Program> =
                (0..iters).map(|_| Program::parse(&cap.body)).collect::<Result<_, _>>()?;
            let start = Instant::now();
            for p in &programs {
                black_box(p.compiled());
            }
            samples.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
        }
        samples.sort_by(f64::total_cmp);
        samples[BATCHES / 2]
    };

    let mut store = MemStore::new();
    let key = cap.object.to_string();
    let mut put_err = None;
    let put_ns = calibrated(|| {
        if let Err(e) = store.put(&key, black_box(&cap.image)) {
            put_err = Some(e);
        }
    });
    if let Some(e) = put_err {
        return Err(e.into());
    }

    let invoke_local_ns = {
        let rt = fed.runtime_mut(cap.host)?;
        let caller = mrom_value::ObjectId::SYSTEM;
        let mut failed = false;
        let ns = calibrated(|| {
            failed |= rt.invoke(caller, cap.object, cap.read_method, &[]).is_err();
        });
        if failed {
            return Err(format!("probe invoke of {}.{} failed", cap.object, cap.read_method).into());
        }
        ns
    };

    Ok(Probes {
        encode_ns,
        decode_ns,
        image_encode_ns,
        image_decode_ns,
        move_codec_ns,
        image_bytes: cap.image.len(),
        image_ns,
        from_image_ns,
        compile_ns,
        put_ns,
        invoke_local_ns,
        send_step_64_ns: send_step(64, 8, &req, seed)?,
        send_step_1000_ns: send_step(1000, 32, &req, seed)?,
    })
}

/// One `send` + `step` of `payload` from a vicinity member to its head
/// on a `SimNet` with the workload's node count and tier link table.
fn send_step(nodes: usize, cluster: usize, payload: &[u8], seed: u64) -> Res<f64> {
    let topology = Topology::Hierarchical { cluster_size: cluster };
    let mut cfg = NetworkConfig::new(seed).with_default_link(mrom_net::LinkTier::Local.link());
    for edge in topology.edges(nodes) {
        cfg.set_symmetric_link(edge.a, edge.b, edge.tier.link());
    }
    let mut net = SimNet::new(cfg);
    for node in Topology::sites(nodes) {
        net.add_node(node)?;
    }
    let (src, dst) = (NodeId(2), NodeId(1));
    let iters = 2_000;
    let mut means = Vec::with_capacity(BATCHES);
    for _ in 0..=BATCHES {
        let mut payloads: Vec<Vec<u8>> = (0..iters).map(|_| payload.to_vec()).collect();
        let start = Instant::now();
        for p in payloads.drain(..) {
            net.send(src, dst, p)?;
            black_box(net.step());
        }
        means.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    // The first batch warms up; the median is over the rest.
    means.remove(0);
    means.sort_by(f64::total_cmp);
    Ok(means[BATCHES / 2])
}
