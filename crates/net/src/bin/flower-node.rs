//! A live Flower-CDN node on loopback TCP.
//!
//! Runs the same sans-io `FlowerPeer` machine the simulator drives, but
//! against real sockets and wall-clock timers. Node `i` listens on
//! `127.0.0.1:(port-base + i)`; a cluster is a handful of these processes
//! plus `flower-cli` to poke them.
//!
//! ```text
//! # founder directory for website 0, locality 0:
//! flower-node --id 0 --port-base 46100 --founder --fast
//! # a client joining through it:
//! flower-node --id 1 --port-base 46100 --seed-dir 0 --fast
//! ```

use flower_net::runtime::{NetNode, NodeConfig};
use simnet::LocalityId;
use workload::WebsiteId;

const USAGE: &str = "usage: flower-node --id <n> [options]
  --id <n>            node index (required); listens on port-base + n
  --port-base <p>     first port of the cluster (default 46100)
  --website <w>       website of interest (default 0)
  --locality <l>      locality (default 0)
  --founder           found the D-ring as directory of (website, locality, 0)
  --seed-dir <n>      index of a node holding a directory position
  --seed-locality <l> locality of the seed directory (default 0)
  --run-seed <s>      RNG seed (default 61710)
  --fast              compress protocol periods for smoke tests
  --verbose           log protocol events to stderr";

fn fail(msg: &str) -> ! {
    eprintln!("flower-node: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(v) = args.next() else {
        fail(&format!("{flag} needs a value"));
    };
    let Ok(v) = v.parse::<T>() else {
        fail(&format!("bad value for {flag}"));
    };
    v
}

fn main() {
    let mut id: Option<u64> = None;
    let mut port_base: u16 = 46_100;
    let mut website = WebsiteId(0);
    let mut locality = LocalityId(0);
    let mut founder = false;
    let mut seed_dir: Option<u64> = None;
    let mut seed_locality = LocalityId(0);
    let mut run_seed: u64 = 0xF10E;
    let mut fast = false;
    let mut verbose = false;

    let mut args = std::env::args();
    args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--id" => id = Some(parse(&mut args, "--id")),
            "--port-base" => port_base = parse(&mut args, "--port-base"),
            "--website" => website = WebsiteId(parse(&mut args, "--website")),
            "--locality" => locality = LocalityId(parse(&mut args, "--locality")),
            "--founder" => founder = true,
            "--seed-dir" => seed_dir = Some(parse(&mut args, "--seed-dir")),
            "--seed-locality" => seed_locality = LocalityId(parse(&mut args, "--seed-locality")),
            "--run-seed" => run_seed = parse(&mut args, "--run-seed"),
            "--fast" => fast = true,
            "--verbose" => verbose = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let Some(id) = id else {
        fail("--id is required");
    };
    if !founder && seed_dir.is_none() {
        fail("a non-founder node needs --seed-dir to find the D-ring");
    }

    let cfg = NodeConfig {
        id,
        port_base,
        website,
        locality,
        founder,
        seed_dir,
        seed_locality,
        fast,
        run_seed,
        verbose,
    };
    if let Err(e) = NetNode::new(cfg).run() {
        eprintln!("flower-node: fatal: {e}");
        std::process::exit(1);
    }
    eprintln!("[n{id}] stopped");
}
