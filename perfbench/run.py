#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the trngd entropy service.

    python3 perfbench/run.py --workload keys --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds trngd from the repository's
sources together with the benchmark's own load generator and per-layer
harness (perfbench/CMakeLists.txt, build directory $CARGO_TARGET_DIR or
.bench_build), writes the workload's daemon config, and then:

  --trace 0  starts trngd SETUPS times and times each start up to the
             first answered probe (setup_s is their median), drives the
             last one over TCP loopback from one single-threaded load
             generator, checks every output, and prints the end-to-end
             metrics.
  --trace 1  drives the workload for half of --seconds, for the load
             generator's CPU share, the daemon's delivered/harvested
             ratio and the end-to-end figures that carry no bound; then
             runs perf_layers, which times each layer in-process and
             serves a replay-backed net::Server that the load generator
             drives; prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Any failed check makes the exit code 1. Workloads, seeds
and load shapes are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 5          # daemon starts per run; setup_s is their median
# Two-sided normal quantile for a false-reject probability of 1e-6.
Z_1E6 = 4.8916
# RNG-cell identification accepts a cell when every 3-bit symbol count
# is within +/-symbol_tolerance of uniform (core/identify.hh default).
SYMBOL_TOLERANCE = 0.10

# Every member is shaped like tools/trngd.example.conf's, with both the
# manufacturing seed and the analog-noise seed pinned.
MEMBERS = [("ch0", 1, 1001), ("ch1", 2, 1002)]
MEMBER_KEYS = """banks = 4
rows_per_bank = 8192
profile_rows = 192
profile_words = 16
screen_iterations = 40
samples = 400
"""

# Bulk request sizes; key requests are 32 bytes (see loadgen.cc).
BULK_SIZES = [2048, 3072, 4096]

# Connections of each class, and the upper bound of the bulk
# connections' uniform think time. The listed workloads stay well
# below what the members harvest, so the reservoir stays full and no
# bounded figure is bound by host CPU, which the hypervisor shares out
# unevenly (see README "Host steal").
WORKLOADS = {
    # One key client: the network plane, dispatch and per-request
    # SHA-256 do the work; each read waits for the server's 1 ms poll.
    "keys": dict(conditioning="sha256", keys=1, bulk=0, bulk_think_us=0),
    # The same key client and one bulk client on one raw reservoir,
    # bulk at about a third of the harvest rate.
    "mixed": dict(conditioning="", keys=1, bulk=1, bulk_think_us=40000),
    # By hand only: four unpaced bulk clients keep the reservoir dry,
    # so DRAM-simulation harvest bounds it.
    "bulk": dict(conditioning="", keys=0, bulk=4, bulk_think_us=0),
}


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def member_sections():
    lines = []
    for label, seed, noise_seed in MEMBERS:
        lines += ["[pool.%s]" % label, "source = drange",
                  "seed = %d" % seed, "noise_seed = %d" % noise_seed]
        lines += MEMBER_KEYS.strip().splitlines()
    return lines


def daemon_config(workload, conditioning=None, pool=None):
    """The workload's trngd config; faults.py swaps the session
    profile or the pool to reproduce the faults kept out of it."""
    w = WORKLOADS[workload]
    if conditioning is None:
        conditioning = w["conditioning"]
    lines = [
        "# Written by perfbench/run.py for workload %s." % workload,
        "[trngd]",
        "max_request_bytes = 1048576",
        "[net]",
        "max_connections = 64",
        "[service]",
        "reservoir_bits = 1048576",
        "quantum_bits = 4096",
        "adaptive = true",
        "min_chunk_bits = 1024",
        "max_chunk_bits = 262144",
    ]
    if conditioning:
        lines += ["[session]", "conditioning = " + conditioning]
    lines += pool if pool is not None else member_sections()
    return "\n".join(lines) + "\n"


def build(build_dir):
    """Configure (once) and build the benchmark package."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(max(1, os.cpu_count() or 1))],
                       stdout=out, stderr=subprocess.STDOUT, check=True)


class Daemon:
    """One trngd process on an ephemeral loopback port."""

    def __init__(self, binary, config, run_dir):
        self.t_exec = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, config, "--tcp", "127.0.0.1:0",
             "--socket", "trngd.sock"],
            cwd=run_dir, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        self.port = None
        self.head = []
        # A daemon that never reports its port is killed, which ends
        # the read loop below.
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        for line in self.proc.stdout:
            self.head.append(line)
            m = re.search(r"tcp [^ ]*:(\d+)", line)
            if "serving on" in line and m:
                self.port = int(m.group(1))
                break
        watchdog.cancel()
        if self.port is None:
            self.kill()
            raise CheckFailed("trngd did not start: " + "".join(self.head))

    def probe(self):
        """One 32-byte request; returns its payload."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=60) as s:
            s.sendall(b"Dr" + struct.pack("<HI", 1, 32))
            data = b""
            while len(data) < 8 + 32:
                chunk = s.recv(4096)
                check(chunk, "probe: connection closed")
                data += chunk
        check(data[:2] == b"dR", "probe: bad response magic")
        status, length = struct.unpack("<HI", data[2:8])
        check(status == 0 and length == 32,
              "probe: status %d, %d bytes" % (status, length))
        return data[8:]

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        # utime and stime are stat fields 14 and 15.
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def wait_idle(self):
        """Wait until the daemon idles: its workers block only once
        the reservoir is full, so every load starts from a full one."""
        deadline = time.monotonic() + 60
        last = self.cpu_s()
        while time.monotonic() < deadline:
            time.sleep(0.25)
            now = self.cpu_s()
            if now - last <= 0.02:
                return
            last = now
        raise CheckFailed("trngd never went idle (reservoir never full)")

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for trngd")

    def stop(self):
        """SIGTERM, wait, and parse the shutdown summary."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("trngd did not stop on SIGTERM")
        check(self.proc.returncode == 0,
              "trngd exited with %d" % self.proc.returncode)
        text = "".join(self.head) + rest
        m = re.search(r"served (\d+) bits \((\d+) harvested", text)
        check(m, "no shutdown summary from trngd:\n" + text)
        errors = re.search(r"(\d+) protocol errors, (\d+) service errors",
                           text)
        check(errors and errors.group(1) == "0" and errors.group(2) == "0",
              "trngd reported errors:\n" + text)
        check("QUARANTINED" not in text,
              "a pool member was quarantined:\n" + text)
        return dict(served=int(m.group(1)), harvested=int(m.group(2)),
                    text=text)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_loadgen(build_dir, port, workload, seed, seconds, daemon_pid=0,
                keys=None, bulk=None):
    """Run the load generator with the workload's load shape, or with
    `keys` and `bulk` connections instead; its JSON result, unchecked."""
    w = WORKLOADS[workload]
    cmd = [os.path.join(build_dir, "perf_loadgen"),
           "--port", str(port), "--seed", str(seed),
           "--seconds", str(seconds),
           "--keys", str(w["keys"] if keys is None else keys),
           "--bulk", str(w["bulk"] if bulk is None else bulk),
           "--bulk-bytes", ",".join(str(b) for b in BULK_SIZES),
           "--bulk-think-us", str(w["bulk_think_us"])]
    if daemon_pid:
        cmd += ["--daemon-pid", str(daemon_pid)]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=seconds + 120)
    check(r.returncode == 0, "load generator failed: " + r.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1])


def loadgen(build_dir, port, workload, seed, seconds, daemon_pid=0,
            keys=None, bulk=None):
    """Run the load generator and check every response it saw."""
    res = run_loadgen(build_dir, port, workload, seed, seconds,
                      daemon_pid, keys, bulk)
    check(res["failed"] == 0 and not res["errors"],
          "load generator saw failed operations: %s" % res["errors"])
    check(res["duplicates"] == 0,
          "%d repeated 256-bit blocks" % res["duplicates"])
    return res


def frequency_check(ones, bits, conditioned):
    """SHA-256 output must pass a fair-coin monobit test; raw D-RaNGe
    bits carry a small real bias, so they are held to the bias that
    RNG-cell identification admits (a cell whose 3-bit symbol counts
    are within +/-t of uniform has a ones fraction within 0.5 +/- t/4)
    plus the same 1e-6 sampling allowance."""
    if bits == 0:
        return
    frac = ones / bits
    noise = Z_1E6 * 0.5 / math.sqrt(bits)
    bound = noise if conditioned else SYMBOL_TOLERANCE / 4 + noise
    check(abs(frac - 0.5) <= bound,
          "ones fraction %.6f over %d bits is outside 0.5 +/- %.6f"
          % (frac, bits, bound))


def run_workload(build_dir, run_dir, workload, seed, seconds, setups):
    """Start trngd `setups` times, drive the last start, check all."""
    config = os.path.join(run_dir, workload + ".conf")
    with open(config, "w") as f:
        f.write(daemon_config(workload))
    binary = os.path.join(build_dir, "trngd")
    w = WORKLOADS[workload]
    setup_s = []
    daemon = None
    try:
        for i in range(setups):
            daemon = Daemon(binary, config, run_dir)
            daemon.probe()
            setup_s.append(time.perf_counter() - daemon.t_exec)
            if i + 1 < setups:
                summary = daemon.stop()
                daemon = None
                check(summary["served"] == 256,
                      "probe-only daemon served %d bits" % summary["served"])
        daemon.wait_idle()
        res = loadgen(build_dir, daemon.port, workload, seed, seconds,
                      daemon_pid=daemon.proc.pid)
        rss = daemon.peak_rss_mib()
        summary = daemon.stop()
        daemon = None
        log(" | ".join(l.strip() for l in summary["text"].splitlines()
                       if "served" in l or "adaptive" in l))
    finally:
        if daemon is not None:
            daemon.kill()

    key, bulk = res["key"], res["bulk"]
    received = key["total_bits"] + bulk["total_bits"]
    check(received + 256 == summary["served"],
          "load generator received %d bits plus the 256-bit probe, "
          "daemon served %d" % (received, summary["served"]))
    check(summary["served"] <= summary["harvested"],
          "daemon delivered more bits than it harvested")
    frequency_check(key["ones"] + bulk["ones"], received,
                    conditioned=w["conditioning"] == "sha256")
    if w["keys"]:
        check(key["samples"] >= 1000,
              "only %d key latency samples" % key["samples"])
    if w["bulk"]:
        check(bulk["samples"] >= 40,
              "only %d bulk latency samples" % bulk["samples"])
    return dict(res=res, summary=summary, setup_s=setup_s, rss=rss)


def window_bits(res):
    return res["key"]["window_bits"] + res["bulk"]["window_bits"]


def end_to_end_metrics(workload, out):
    """Whole-window figures. lat_p50_ms is the key requests' p50, or
    the bulk requests' on a workload without key connections."""
    res = out["res"]
    lat = res["key"] if WORKLOADS[workload]["keys"] else res["bulk"]
    log("host steal share over the window: %.4f" % res["host_steal_share"])
    return {
        "setup_s": (statistics.median(out["setup_s"]), "s"),
        "lat_p50_ms": (lat["p50_ns"] / 1e6, "ms"),
        "daemon_user_cpu_s_per_mbit": (res["daemon_user_cpu_s"] /
                                       (window_bits(res) / 1e6),
                                       "CPU-s/Mbit"),
        "daemon_peak_rss_mib": (out["rss"], "MiB"),
    }


def layer_metrics(build_dir, run_dir, workload, seed, seconds, e2e):
    w = WORKLOADS[workload]
    harness = subprocess.Popen(
        [os.path.join(build_dir, "perf_layers"),
         "--config", os.path.join(run_dir, workload + ".conf"),
         "--seconds", str(seconds), "--readers", str(max(1, w["keys"])),
         "--bulk-readers", str(max(1, w["bulk"])),
         "--spans", os.path.join(run_dir, workload + ".spans.csv")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(4 * seconds + 120, harness.kill)
    watchdog.start()
    try:
        line = harness.stdout.readline()
        check(line.startswith("PORT "), "perf_layers did not serve")
        net = loadgen(build_dir, int(line.split()[1]), workload, seed,
                      seconds, keys=max(1, w["keys"]), bulk=0)
        harness.stdin.close()
        rest = harness.stdout.read()
        harness.wait(timeout=60)
    finally:
        watchdog.cancel()
        if harness.poll() is None:
            harness.kill()
            harness.wait()
    check(harness.returncode == 0, "perf_layers failed")
    layers = json.loads(rest.strip().splitlines()[-1])
    res, summary = e2e["res"], e2e["summary"]
    units = {
        "core.init_s": "s", "core.harvest_host_mbps": "Mb/s",
        "core.harvest_sim_mbps": "Mb/s", "controller.round_us": "us",
        "dram.reduced_read_ns": "ns", "trng.sha256_take_us": "us",
        "trng.service_read_p50_us": "us", "trng.service_reads_per_s": "1/s",
        "trng.service_bulk_mbps": "Mb/s",
    }
    m = {name: (layers[name], unit) for name, unit in units.items()}
    m["trng.delivered_per_harvested"] = (
        summary["served"] / summary["harvested"], "ratio")
    m["net.key_lat_p50_ms"] = (net["key"]["p50_ns"] / 1e6, "ms")
    m["net.key_req_per_s"] = (net["key"]["window_responses"] /
                              net["window_s"], "1/s")
    m["load.cpu_util"] = (res["self_cpu_s"] / res["window_s"], "ratio")
    m["host.steal_share"] = (res["host_steal_share"], "ratio")
    # End-to-end figures that follow host steal too closely to carry a
    # bound (see README "Why one key client").
    m["e2e.req_per_s"] = ((res["key"]["window_responses"] +
                           res["bulk"]["window_responses"]) /
                          res["window_s"], "1/s")
    m["e2e.payload_mbps"] = (window_bits(res) / res["window_s"] / 1e6,
                             "Mb/s")
    m["e2e.daemon_sys_cpu_s_per_mbit"] = (
        res["daemon_sys_cpu_s"] / (window_bits(res) / 1e6), "CPU-s/Mbit")
    m["e2e.key_lat_p99_ms"] = (res["key"]["p99_ns"] / 1e6, "ms")
    return m, net["attempted"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "tools", "trngd.cc"))):
        log("no repository sources next to %s; run from a full checkout"
            % HERE)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except subprocess.CalledProcessError:
        log("build failed; see %s/build.log" % build_dir)
        return 2
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)

    try:
        if args.trace:
            # Half the time drives the daemon, a quarter each the
            # in-process layers and the in-process server.
            e2e = run_workload(build_dir, run_dir, args.workload,
                               args.seed, args.seconds / 2, setups=1)
            metrics, extra = layer_metrics(build_dir, run_dir,
                                           args.workload, args.seed,
                                           args.seconds / 4, e2e)
        else:
            e2e = run_workload(build_dir, run_dir, args.workload,
                               args.seed, args.seconds, setups=SETUPS)
            metrics, extra = end_to_end_metrics(args.workload, e2e), 0
    except CheckFailed as e:
        log("CHECK FAILED: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    log("setups: %s" % " ".join("%.3f" % t for t in e2e["setup_s"]))
    attempted = e2e["res"]["attempted"] + len(e2e["setup_s"]) + extra
    for name, (value, unit) in metrics.items():
        log("%-30s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
