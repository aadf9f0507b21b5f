#!/usr/bin/env python3
"""Reproduce the two trngd faults the benchmark's workloads leave out.

    python3 perfbench/faults.py health [--seconds 15] [--seed 1]
    python3 perfbench/faults.py fleet  [--seconds 10] [--seed 1]

Run from the repository root; it builds like run.py does.

health  The shipped session profile, conditioning = sha256,health,
        under four key connections. The SP 800-90B repetition-count
        test runs on hashed output at H = 1 and alpha = 2^-20 (cutoff
        21), so a healthy session latches an alarm about once per 2^21
        delivered bits and its connection is closed.
fleet   A pool of "fleet" members under raw 4 KiB requests. Members are
        quarantined under sustained load until every request fails with
        "every pool member is quarantined or exhausted".

Prints what the load generator and the daemon saw and "reproduced:
yes" or "reproduced: no"; exits 0 when the fault showed.
"""

import argparse
import os
import sys

import run

FLEET_POOL = """[fleet]
devices = 16
seed = 1234
noise_seed = 77
[pool.fleet0]
source = fleet
active_devices = 4
device_offset = 0
chunk_bits = 4096
[pool.fleet1]
source = fleet
active_devices = 4
device_offset = 4
chunk_bits = 4096
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fault", choices=("health", "fleet"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(run.ROOT, ".bench_build"))
    run.build(build_dir)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    if args.fault == "health":
        workload, seconds = "keys", args.seconds or 15
        run.WORKLOADS[workload]["keys"] = 4
        text = run.daemon_config(workload, conditioning="sha256,health")
    else:
        # Raw 4 KiB requests: the bulk workload at its largest size.
        workload, seconds = "bulk", args.seconds or 10
        run.BULK_SIZES[:] = [4096]
        text = run.daemon_config(workload,
                                 pool=FLEET_POOL.strip().splitlines())
    config = os.path.join(run_dir, "fault-%s.conf" % args.fault)
    with open(config, "w") as f:
        f.write(text)

    daemon = run.Daemon(os.path.join(build_dir, "trngd"), config, run_dir)
    try:
        daemon.probe()
        res = run.run_loadgen(build_dir, daemon.port, workload, args.seed,
                              seconds)
    finally:
        daemon.proc.terminate()
        rest, _ = daemon.proc.communicate(timeout=60)
    summary = "".join(daemon.head) + rest
    ok = res["key"]["total_bits"] + res["bulk"]["total_bits"]
    print("attempted %d, failed %d, %.1f Mbit delivered"
          % (res["attempted"], res["failed"], ok / 1e6))
    for err in res["errors"]:
        print("  load generator: " + err)
    for line in summary.splitlines():
        if ("errors" in line or "QUARANTINED" in line or
                "served" in line):
            print("  " + line)
    reproduced = res["failed"] > 0
    print("reproduced: %s" % ("yes" if reproduced else "no"))
    return 0 if reproduced else 1


if __name__ == "__main__":
    sys.exit(main())
