#!/usr/bin/env python3
"""End-to-end benchmark of the Veil stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds perfbench/veil_perfbench from the checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build), runs the named workload as a
closed loop for --seconds, checks every op's outputs, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with VeilTrace and the
benchmark's own spans off; the host-time ones are scaled to a reference
host speed by a probe run after every op (see PROBE_REF_US). --trace 1
reports the per-layer metrics from a traced run, after checking that its
simulated counts are bit-identical to those of an untraced run of the
same ops. See perfbench/LAYERS.md for what
each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

# Count window per workload: simulated counts (sim_cycles_per_op and every
# per-layer count) cover exactly these first ops of a run, so they repeat
# bit for bit on every run of a seed. Sized to take well under a third of
# a run on a 4-core host.
WINDOW = {
    "shielded_http": 150,
    "clone_churn": 50,
    "auditor_sessions": 60,
}

# Set-up is also timed in this many extra set-up-only processes; setup_s
# is the median over them and the measured process.
SETUP_PROCESSES = 6

# op_us_tail is taken per slice of this many consecutive ops (p90), then
# the median over slices; on clone_churn a slice is two whole CVMs.
SLICE_OPS = 100

# Host-speed normalisation. The host shares its cores, and for seconds at
# a time busy neighbours slow every thread by up to 1.7x. veil_perfbench
# therefore runs a fixed probe of its own after every op (HostProbe in
# perfbench.cc, ~0.3 ms of small compute and copy kernels that do not
# call the library). Each op's time is scaled by PROBE_REF_US over the
# median probe time of the ops around it (PROBE_SPAN on each side), so
# the host-time metrics read as on a host where the probe takes
# PROBE_REF_US, a typical probe time on the 4-vCPU Xeon (Sapphire
# Rapids) VM the benchmark was sized on. The raw wall-clock figures are
# printed beside them.
PROBE_REF_US = 400.0
PROBE_SPAN = 5

# Child processes must not be steered by the library's env overrides.
SCRUBBED_ENV = ("VEIL_TRACE", "VEIL_TRACE_JSON", "VEIL_BENCH_JSON",
                "VEIL_TLB_DISABLE", "VEIL_HUGEPAGES")

CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_tail": "us",
    "sim_cycles_per_op": "cycles",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "snp.tlb_flushes_per_op": "count",
    "snp.tlb_shootdowns_per_op": "count",
    "snp.vmsa_slots_end": "count",
    "snp.rss_mb_per_op": "MB",
    "snp.op_us_last_over_first": "ratio",
    "snp.rmpadjusts_per_op": "count",
    "sdk.call_self_us": "us",
    "sdk.ocalls_per_op": "count",
    "sdk.marshal_cycles_per_op": "cycles",
    "sdk.clone_us": "us",
    "sdk.enclave_call_us": "us",
    "sdk.destroy_us": "us",
    "veil.clone_cycles": "cycles",
    "kernel.client_us": "us",
    "kernel.syscalls_per_op": "count",
    "kernel.make_process_us": "us",
    "kernel.reap_process_us": "us",
    "kernel.audit_batch_us": "us",
    "kernel.audit_records_per_op": "count",
    "kernel.audit_flushes_per_op": "count",
    "kernel.audit_drops": "count",
    "hv.switches_per_record": "ratio",
    "hv.switches_per_op": "count",
    "attest.client_setup_us": "us",
    "attest.establish_us": "us",
    "attest.establish_cycles": "cycles",
    "attest.teardown_us": "us",
    "crypto.sha256_blocks_per_op": "count",
    "crypto.aes_key_schedules_per_op": "count",
    "veil.log_fetch_us": "us",
    "veil.log_clear_us": "us",
    "sim.vmenter_pct": "%",
    "sim.vmgexit_pct": "%",
    "sim.guest_run_pct": "%",
    "sim.syscall_pct": "%",
    "sim.service_enc_pct": "%",
    "sim.service_log_pct": "%",
    "sim.monitor_request_pct": "%",
    "sim.rmpadjust_pct": "%",
    "sim.audit_flush_pct": "%",
    "sim.ring_flush_pct": "%",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    """Configure (once) and build veil_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Veil sources (src/) next to perfbench/; run from a full "
             "checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "veil_perfbench",
           "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "veil_perfbench")


def run_child(binary, args):
    """Run veil_perfbench once; returns its result object."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("veil_perfbench timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("veil_perfbench failed (exit %d): %s" % (proc.returncode,
                                                      " ".join(args)))
    return json.loads(lines[-1])


def tail(op_us):
    """Tail op time: each consecutive SLICE_OPS-op slice's value at the
    highest percentile that leaves >= 10 of its samples above it, median
    over the run's whole slices. A host hiccup then moves one slice, not
    the run's figure, and clone_churn's slices are whole CVMs.
    Returns (value, percentile, samples per slice, slices)."""
    k = min(SLICE_OPS, len(op_us))
    slices = [sorted(op_us[i:i + k])
              for i in range(0, len(op_us) - k + 1, k)]
    if k <= 10:
        return statistics.median(s[-1] for s in slices), 100.0, k, len(slices)
    return (statistics.median(s[k - 11] for s in slices),
            100.0 * (k - 10) / k, k, len(slices))


def normalised(op_us, probe_us):
    """Each op's time at the reference host speed (see PROBE_REF_US)."""
    return [t * PROBE_REF_US /
            statistics.median(probe_us[max(0, i - PROBE_SPAN):
                                       i + PROBE_SPAN + 1])
            for i, t in enumerate(op_us)]


def host_metrics(op_us):
    """ops_per_s, op_us_p50 and the tail figures of a list of op times."""
    return (1e6 * len(op_us) / sum(op_us), statistics.median(op_us),
            tail(op_us))


def run_ok(r, window):
    return (not r["halted"] and r["window_complete"]
            and r["failed"] == 0 and r["attempted"] >= window)


def end_to_end(binary, workload, seed, seconds):
    base = ["--workload", workload, "--seed", str(seed)]
    window = WINDOW[workload]
    setups = [run_child(binary, base + ["--max-ops", "0"])["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    r = run_child(binary, base + ["--seconds", str(seconds),
                                  "--window", str(window)])
    setups.append(r["setup_s"])

    ok_share = (r["attempted"] - r["failed"]) / r["attempted"]
    op_us = normalised(r["op_us"], r["probe_us"])
    ops_per_s, p50, (tail_us, tail_pct, samples, slices) = host_metrics(op_us)
    raw_ops_per_s, raw_p50, (raw_tail, _, _, _) = host_metrics(r["op_us"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok_share * ops_per_s,
        "op_us_p50": p50,
        "op_us_tail": tail_us,
        "sim_cycles_per_op": r["window"]["tsc"] / window,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    failed_frac = r["failed"] / max(1, r["attempted"])
    for name, value in metrics.items():
        note = ""
        if name == "op_us_tail":
            note = "  (p%g of %d-op slices, median of %d slices)" % (
                tail_pct, samples, slices)
        print("%-18s %-22s %14.4f %s%s" % (workload, name, value,
                                           END_TO_END_UNITS[name], note))
    print("%-18s %-22s %14.4f ratio  (%d of %d ops)" % (
        workload, "failed_frac", failed_frac, r["failed"], r["attempted"]))
    print("%-18s raw wall clock: ops_per_s %.4f, op_us_p50 %.1f, "
          "op_us_tail %.1f" % (workload, ok_share * raw_ops_per_s, raw_p50,
                               raw_tail))
    return run_ok(r, window), r, {
        k: {"value": v, "unit": END_TO_END_UNITS[k]}
        for k, v in metrics.items()}


def per_layer(binary, workload, seed, seconds):
    base = ["--workload", workload, "--seed", str(seed)]
    window = WINDOW[workload]
    ref = run_child(binary, base + ["--max-ops", str(window),
                                    "--window", str(window)])
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, "spans-%s-seed%d.json" % (workload, seed))
    r = run_child(binary, base + ["--seconds", str(seconds),
                                  "--window", str(window), "--traced",
                                  "--spans", spans])

    # Zero-simulated-cost contract: tracing may not move a single
    # simulated count.
    identical = ref["window"] == r["window"] and bool(r["window"])
    for key in sorted(set(ref["window"]) | set(r["window"])):
        a, b = ref["window"].get(key), r["window"].get(key)
        if a != b:
            log("perfbench: traced run changed %s: %s -> %s" % (key, a, b))

    layer = dict(r["layer"])
    # Both windows' op times at the reference host speed, so a busy
    # neighbour during one of them does not pass for tracing cost.
    ref_s, traced_s = (sum(normalised(x["op_us"][:window],
                                      x["probe_us"][:window]))
                       for x in (ref, r))
    layer["trace.overhead_pct"] = 100.0 * (traced_s / ref_s - 1.0)
    missing = set(PER_LAYER_UNITS) - set(layer)
    if missing:
        fail("traced run lacks " + ", ".join(sorted(missing)))
    for name in PER_LAYER_UNITS:
        print("%-18s %-34s %16.4f %s" % (workload, name, layer[name],
                                         PER_LAYER_UNITS[name]))
    ok = identical and run_ok(ref, window) and run_ok(r, window)
    return ok, r, {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WINDOW))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    measure = per_layer if args.trace else end_to_end
    ok, r, metrics = measure(binary, args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": ok, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
