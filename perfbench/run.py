#!/usr/bin/env python3
"""Repository benchmark: three Achilles workloads on the deterministic simulator.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test [--workload <name>]

Builds perfbench/ (its own CMake package, which compiles ../src) into .bench_build/, then
runs the driver binaries. --trace 0 runs the plain binary and reports the end-to-end
metrics; --trace 1 spends half the budget on the plain binary and half on the traced one
(recorders on, per-layer wall ledger) and reports the per-layer metrics. Human-readable
lines go first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. perfbench/README.md documents every metric.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("lan-sat-n21", "kv-lease-n3", "reboot-churn-n5")
DEFAULT_SEED = 1
DEADLINE_S = 170  # Every driver process together must end within this.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# End-to-end metrics (--trace 0), bounded in BENCHMARK.json: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_ms_per_vsec": "ms/vsec",
    "peak_rss_mb": "MB",
    "tput_ktps": "ktx/s",
    "e2e_p50_ms": "ms",
    "e2e_p99_ms": "ms",
    "commit_p50_ms": "ms",
    "commit_p99_ms": "ms",
    "outage_max_ms": "ms",
}
# End-to-end, but defined on one workload only: reported with the per-layer metrics
# (README.md). name -> (unit, the workload that defines it).
WORKLOAD_SPECIFIC = {
    "read_p50_ms": ("ms", "kv-lease-n3"),
    "read_p99_ms": ("ms", "kv-lease-n3"),
    "write_p50_ms": ("ms", "kv-lease-n3"),
    "write_p99_ms": ("ms", "kv-lease-n3"),
    "recovery_p50_ms": ("ms", "reboot-churn-n5"),
    "recovery_p90_ms": ("ms", "reboot-churn-n5"),
}
# Per-layer metrics (--trace 1) copied from the driver's virtual-time report.
VT_LAYER = {
    "samples.e2e": "count",
    "samples.commit": "count",
    "samples.read": "count",
    "samples.write": "count",
    "samples.recovery": "count",
    "sim.events_per_vsec": "1/vsec",
    "sim.peak_pending": "count",
    "host.cpu_busy_max": "ratio",
    "host.handler_p99_us": "us",
    "host.queue_wait_p99_us": "us",
    "net.msgs_per_ktx": "count",
    "net.bytes_per_tx": "B",
    "net.nic_wait_p99_us": "us",
    "consensus.txs_per_block": "count",
    "consensus.blocks_per_vsec": "1/vsec",
    "vt.net_ms": "ms",
    "vt.nic_ms": "ms",
    "vt.cpu_ms": "ms",
    "vt.ecall_ms": "ms",
    "vt.crypto_ms": "ms",
    "vt.counter_ms": "ms",
    "vt.fsync_ms": "ms",
    "vt.idle_ms": "ms",
    "obs.idle_share": "ratio",
    "tee.counter_writes_per_block": "count",
    "storage.log_bytes_retained": "B",
    "storage.log_entries_retained": "count",
    "ckpt.stable_per_vsec": "1/vsec",
    "ckpt.snapshot_adopts": "count",
    "ckpt.snapshot_serves": "count",
    "achilles.recoveries_completed": "count",
    "app.ops_per_vsec": "1/vsec",
    "app.lease_share": "ratio",
    "app.lease_fallbacks": "count",
    "app.lease_read_p99_us": "us",
}
# Wall-clock ledger layers of the traced binary -> metric name.
LEDGER = {
    "queue": "sim.queue_wall_ms",
    "net": "net.send_wall_ms",
    "mempool": "mempool.wall_ms",
    "crypto": "crypto.wall_ms",
    "obs": "obs.hooks_wall_ms",
    "other": "other.wall_ms",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode:
        fail("build failed")


def drive(binary, workload, seed, seconds, min_reps, timeout):
    cmd = [os.path.join(BUILD, binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--min-reps", str(min_reps)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{binary} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{binary} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values)


def warm(values):
    """Per-repetition host-time values without the first (cold) repetition, whose set-up
    and window also pay the process's one-time page faults and allocator growth."""
    return values[1:] if len(values) > 1 else values


def vt_mismatches(a, b):
    return sorted(k for k in a if a[k] != b.get(k))


def report_lines(report):
    """All 16 end-to-end metrics, bounded or not, with units ('n/a' where undefined)."""
    vt = report["vt"]
    ops = vt["ops_attempted"] * report["reps"]
    failed = ops if report["failures"] else vt["ops_failed"] * report["reps"]
    rows = [
        ("setup_s", median(warm(report["setup_s"])), "s"),
        ("wall_ms_per_vsec", median(warm(report["wall_ms_per_vsec"])), "ms/vsec"),
        ("peak_rss_mb", report["peak_rss_mb"], "MB"),
    ]
    for name in ("tput_ktps", "e2e_p50_ms", "e2e_p99_ms", "commit_p50_ms", "commit_p99_ms"):
        rows.append((name, vt[name], END_TO_END[name]))
    for name, (unit, home) in WORKLOAD_SPECIFIC.items():
        rows.append((name, vt[name] if home == report["workload"] else None, unit))
    rows.append(("outage_max_ms", vt["outage_max_ms"], "ms"))
    rows.append(("ops_failed_ratio", failed / ops if ops else 1.0, "ratio"))
    samples = {"e2e": vt["samples.e2e"], "commit": vt["samples.commit"],
               "read": vt["samples.read"], "write": vt["samples.write"],
               "recovery": vt["samples.recovery"]}
    lines = [f"# {report['workload']} seed={report['seed']} reps={report['reps']} "
             f"window={report['window_vsec']} vsec"]
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:<20} {shown:>14} {unit}")
    lines.append("samples " + " ".join(f"{k}={int(v)}" for k, v in samples.items()))
    return lines


def run(args):
    build()
    failures = []
    if args.trace == 0:
        plain = drive("perfbench_plain", args.workload, args.seed, args.seconds, 3,
                      DEADLINE_S)
        reports = [plain]
    else:
        half = args.seconds / 2
        plain = drive("perfbench_plain", args.workload, args.seed, half, 2, DEADLINE_S / 2)
        traced = drive("perfbench_traced", args.workload, args.seed, half, 2, DEADLINE_S / 2)
        reports = [plain, traced]
        diff = vt_mismatches(plain["vt"], traced["vt"])
        if diff:
            failures.append("traced run's virtual-time metrics differ: " + ", ".join(diff))
        # The ledger of the warm traced repetition with the median window wall time.
        walls = traced["window_wall_ms"]
        reps = warm(list(range(len(walls))))
        rep = sorted(reps, key=walls.__getitem__)[(len(reps) - 1) // 2]
        ledger = {layer: traced["ledger"][layer]["ms"][rep] for layer in LEDGER}
        calls = {layer: traced["ledger"][layer]["calls"][rep] for layer in LEDGER}
        residual = walls[rep] - sum(ledger[layer] for layer in LEDGER if layer != "other")
        if abs(residual - ledger["other"]) > 1e-3 * walls[rep] or ledger["other"] < 0:
            failures.append("wall ledger does not reconcile with the run's wall time")
    for r in reports:
        failures.extend(r["failures"])

    for line in report_lines(plain):
        print(line)
    vt = plain["vt"]
    attempted = int(vt["ops_attempted"]) * sum(r["reps"] for r in reports)
    failed = attempted if failures else int(vt["ops_failed"]) * sum(r["reps"] for r in reports)

    metrics = {}
    if args.trace == 0:
        values = {
            "setup_s": median(warm(plain["setup_s"])),
            "wall_ms_per_vsec": median(warm(plain["wall_ms_per_vsec"])),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        for name in END_TO_END:
            metrics[name] = {"value": values.get(name, vt.get(name)), "unit": END_TO_END[name]}
    else:
        for name, (unit, _) in WORKLOAD_SPECIFIC.items():
            metrics[name] = {"value": vt[name], "unit": unit}
        metrics["ops_failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        for name, unit in VT_LAYER.items():
            metrics[name] = {"value": vt[name], "unit": unit}
        for layer, name in LEDGER.items():
            metrics[name] = {"value": ledger[layer], "unit": "ms"}
        metrics["ledger.wall_ms"] = {"value": walls[rep], "unit": "ms"}
        metrics["mempool.calls"] = {"value": calls["mempool"], "unit": "count"}
        metrics["mempool.ns_per_call"] = {
            "value": ledger["mempool"] * 1e6 / max(calls["mempool"], 1), "unit": "ns"}
        metrics["crypto.calls"] = {"value": calls["crypto"], "unit": "count"}
        metrics["sim.ns_per_event"] = {
            "value": ledger["queue"] * 1e6 / max(vt["sim.events"], 1), "unit": "ns"}
        plain_wall = median(warm(plain["wall_ms_per_vsec"]))
        traced_wall = median(warm(traced["wall_ms_per_vsec"]))
        metrics["obs.traced_wall_ms_per_vsec"] = {"value": traced_wall, "unit": "ms/vsec"}
        metrics["obs.overhead_pct"] = {"value": (traced_wall / plain_wall - 1) * 100,
                                       "unit": "%"}
        metrics["obs.extra_rss_mb"] = {
            "value": traced["peak_rss_mb"] - plain["peak_rss_mb"], "unit": "MB"}

        print(f"# wall ledger, traced rep {rep} ({walls[rep]:.1f} ms window):")
        for layer in sorted(LEDGER, key=lambda k: -ledger[k]):
            print(f"{LEDGER[layer]:<20} {ledger[layer]:>10.1f} ms "
                  f"{100 * ledger[layer] / walls[rep]:5.1f}%  calls={int(calls[layer])}")
        print(f"obs.overhead_pct     {metrics['obs.overhead_pct']['value']:>10.1f} %")

    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test(args):
    """Two plain runs of one seed and one traced run must give identical vt metrics."""
    build()
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        a = drive("perfbench_plain", workload, args.seed, 0, 1, DEADLINE_S)
        b = drive("perfbench_plain", workload, args.seed, 0, 1, DEADLINE_S)
        t = drive("perfbench_traced", workload, args.seed, 0, 1, DEADLINE_S)
        problems = list(a["failures"] + b["failures"] + t["failures"])
        if vt_mismatches(a["vt"], b["vt"]):
            problems.append("rerun differs: " + ", ".join(vt_mismatches(a["vt"], b["vt"])))
        if vt_mismatches(a["vt"], t["vt"]):
            problems.append("traced differs: " + ", ".join(vt_mismatches(a["vt"], t["vt"])))
        ok = ok and not problems
        print(f"{workload}: {'PASS' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
