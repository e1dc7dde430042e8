"""Benchmark of the tilegraphs CLI: closed loop, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each job is one ``tilegraphs`` invocation in a fresh interpreter
(``job.py``), timed there around ``main(argv)``.  A pass runs every job of
the workload once, in an order drawn from the seed; passes repeat while the
next one would end less than half a pass past ``--seconds``.
With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the tracing overhead, the traced ones the per-layer metrics.

A job fails when it crashes, times out, exits with a code other than the
recorded one, or prints anything but the recorded bytes and the known
answers in ``workloads``.  The last stdout line is the JSON result; the
lines before it and ``perfbench/results/`` hold quartiles, sample counts,
the environment and the per-job records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
RESULTS = os.path.join(HERE, "results")
RUN_LIMIT_S = 170.0  # a whole run, set-up included, ends before 180 s

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER = (
    {m: "s" for m in spans.TIME_METRICS}
    | {c: "count" for c in spans.COUNTERS if c != "graph.edges_kept"}
    | {"serialize.bytes_out": "bytes", "graph.edge_hit_ratio": "ratio",
       "trace_overhead_frac": "frac"}
)


def spawn(job, trace_file: str, seed: int, timeout: float) -> dict:
    """Run one job in a fresh interpreter; never raises for a job's fault."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "job.py"), repr(t0), trace_file, *job.argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"job runner exited {proc.returncode}: {err.strip()[-2000:]}"}


class Checker:
    """Recorded exit code and digest, then the job's known answers."""

    def __init__(self):
        with open(workloads.EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.verified: dict[tuple[str, str], str | None] = {}

    def failure(self, job, res: dict) -> str | None:
        if res.get("error"):
            return res["error"].strip().splitlines()[-1]
        want = self.expected.get(job.id)
        if want is None:
            return "no recorded output for this job"
        if res["rc"] != want["rc"]:
            return f"exit code {res['rc']}, expected {want['rc']}"
        if res["sha256"] != want["sha256"]:
            return "stdout differs from the recorded output"
        key = (job.id, res["sha256"])
        if key not in self.verified:
            try:
                self.verified[key] = job.check(res["stdout"])
            except (ValueError, KeyError, IndexError, TypeError) as err:
                self.verified[key] = f"unreadable output: {err!r}"
        return self.verified[key]


class Run:
    """One run of one workload: its passes and the metrics they give."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False):
        self.t_start = time.monotonic()
        self.load_before = list(os.getloadavg())
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(seed)
        self.jobs = workloads.WORKLOADS[workload](seed, smoke=smoke)
        self.checker = Checker()
        self.deadline = self.t_start + RUN_LIMIT_S
        self.passes: list[dict] = []
        self.numpy = None

    def run_pass(self, traced: bool) -> dict:
        order = list(self.jobs)
        self.rng.shuffle(order)
        records = []
        totals = {"run_s": 0.0, "bytes_out": 0, "self_s": {}, "counts": {}}
        for i, job in enumerate(order):
            trace_file = "-"
            if traced:
                os.makedirs(os.path.join(RESULTS, "trace"), exist_ok=True)
                trace_file = os.path.join(RESULTS, "trace", f"{self.workload}-{i:02d}.tsv.gz")
            res = spawn(job, trace_file, self.seed, self.deadline - time.monotonic())
            records.append({
                "job": job.id, "traced": traced, "failure": self.checker.failure(job, res),
                **{k: res.get(k) for k in ("rc", "run_s", "setup_s", "rss_kb", "bytes_out")},
            })
            totals["run_s"] += res.get("run_s", 0.0)
            totals["bytes_out"] += res.get("bytes_out", 0)
            for part in ("self_s", "counts"):
                for k, v in res.get("trace", {}).get(part, {}).items():
                    totals[part][k] = totals[part].get(k, 0) + v
            self.numpy = res.get("numpy") or self.numpy
            if time.monotonic() > self.deadline:
                break
        complete = len(records) == len(order)
        return {"traced": traced, "complete": complete, "records": records, **totals}

    def measure(self) -> None:
        """At least one pass of each kind, traced and untraced alternating;
        then another only while it ends less than half a pass past
        ``seconds``."""
        # Untimed: fills the bytecode cache, so no timed job compiles sources.
        spawn(workloads.Job(["validate", "data/ledrappier.json"], None), "-", self.seed, 60)
        start = time.monotonic()
        kinds = [False, True] if self.trace else [False]
        longest = {k: 0.0 for k in kinds}
        while True:
            traced = kinds[len(self.passes) % len(kinds)]
            t0 = time.monotonic()
            self.passes.append(self.run_pass(traced))
            longest[traced] = max(longest[traced], time.monotonic() - t0)
            need = longest[kinds[len(self.passes) % len(kinds)]] or longest[traced]
            now = time.monotonic()
            if len(self.passes) >= len(kinds) and now - start + need / 2 >= self.seconds:
                return
            if now + need > self.deadline:
                return

    def records(self) -> list[dict]:
        return [r for p in self.passes for r in p["records"]]

    def timed(self, traced: bool) -> list[dict]:
        """Passes of one kind, the complete ones unless none completed."""
        kind = [p for p in self.passes if p["traced"] == traced]
        return [p for p in kind if p["complete"]] or kind

    def end_to_end(self) -> dict:
        records = self.records()
        setups = [r["setup_s"] for r in records if r.get("setup_s") is not None]
        rss = [r["rss_kb"] / 1024 for r in records if r.get("rss_kb") is not None]
        ok = sum(r["failure"] is None for r in records)
        out = {
            "run_s": _quartiles([p["run_s"] for p in self.timed(False)]),
            "setup_s": _quartiles(setups or [0.0]),
            "peak_rss_mb": _quartiles(rss or [0.0]),
            "ok_frac": {"median": ok / len(records), "n": len(records)},
        }
        for q in out.values():
            q["value"] = q["median"]
        out["peak_rss_mb"]["value"] = max(rss or [0.0])  # the highest, not the median
        return out

    def per_layer(self) -> tuple[dict, bool]:
        """Per-layer metrics, and whether the counters repeated exactly."""
        traced, plain = self.timed(True), self.timed(False)
        if not traced:
            raise SystemExit("perfbench: no traced pass fitted in the run limit")
        out = {m: statistics.median(p["self_s"].get(m, 0.0) for p in traced)
               for m in spans.TIME_METRICS}
        counts = traced[0]["counts"]
        out |= {c: counts.get(c, 0) for c in spans.COUNTERS}
        tests = out["graph.edge_tests"]
        out["graph.edge_hit_ratio"] = out["graph.edges_kept"] / tests if tests else 0.0
        out["serialize.bytes_out"] = traced[0]["bytes_out"]
        base = statistics.median(p["run_s"] for p in plain)
        out["trace_overhead_frac"] = (
            statistics.median(p["run_s"] for p in traced) / base - 1 if base else 0.0
        )
        return out, all(p["counts"] == counts for p in traced)

    def environment(self) -> dict:
        return {
            "python": platform.python_version(),
            "numpy": self.numpy,
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
            "loadavg_before": self.load_before,
            "loadavg_after": list(os.getloadavg()),
            "limits": "shared 2-core box, no CPU pinning; ru_maxrss in KiB, "
                      "peak of one process",
        }

    def document(self) -> dict:
        records = self.records()
        failed = sum(r["failure"] is not None for r in records)
        e2e = self.end_to_end()
        doc = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "passes": len(self.passes), "jobs_per_pass": len(self.jobs),
            "environment": self.environment(), "end_to_end": e2e, "jobs": records,
        }
        if self.trace:
            layers, doc["counters_repeat"] = self.per_layer()
            metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
            traced = self.timed(True)
            doc["accounting"] = {
                "traced_run_s": [p["run_s"] for p in traced],
                "layer_self_s_sum": [sum(p["self_s"].values()) for p in traced],
            }
        else:
            metrics = {m: {"value": e2e[m]["value"], "unit": u} for m, u in END_TO_END.items()}
        doc["result"] = {"correct": failed == 0, "attempted": len(records),
                         "failed": failed, "metrics": metrics}
        return doc


def _quartiles(values: list[float]) -> dict:
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (v[0],) * 3
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def report(doc: dict) -> None:
    e2e, res = doc["end_to_end"], doc["result"]
    print(f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"passes={doc['passes']} jobs/pass={doc['jobs_per_pass']}")
    print(f"# environment {json.dumps(doc['environment'], sort_keys=True)}")
    for m in ("run_s", "setup_s", "peak_rss_mb"):
        q = e2e[m]
        print(f"{m:<12} {q['value']:.4f} {END_TO_END[m]} "
              f"(median {q['median']:.4f}, q1 {q['q1']:.4f}, q3 {q['q3']:.4f}, n={q['n']})")
    print(f"failed_frac  {res['failed'] / res['attempted']:.4f} frac "
          f"({res['failed']} of {res['attempted']} jobs)")
    for r in doc["jobs"]:
        if r["failure"]:
            print(f"FAILED {r['job']}: {r['failure']}")
    if doc["trace"]:
        for m, v in sorted(res["metrics"].items()):
            print(f"  {m:<34} {v['value']:.6g} {v['unit']}")
        acc = doc["accounting"]
        print(f"# layer self times sum to {statistics.median(acc['layer_self_s_sum']):.4f} s "
              f"of traced run_s {statistics.median(acc['traced_run_s']):.4f} s; "
              f"counters repeat: {doc['counters_repeat']}")


def smoke() -> int:
    """Each workload once on reduced inputs, in both trace modes; the
    emitted metric names and units must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    bad = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        bad.append("workload names differ from BENCHMARK.json")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            run = Run(name, seed=1, seconds=0, trace=trace, smoke=True)
            run.measure()
            doc = run.document()
            res = doc["result"]
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            if got != want[trace]:
                bad.append(f"{name} trace={trace}: metrics differ: "
                           f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not res["correct"]:
                bad.append(f"{name} trace={trace}: {res['failed']} failed jobs")
            status = "ok" if res["correct"] and got == want[trace] else "MISMATCH"
            print(f"smoke {name} trace={trace}: {status} ({res['attempted']} jobs, "
                  f"run_s {doc['end_to_end']['run_s']['median']:.3f} s)")
    for b in bad:
        print(f"smoke: {b}", file=sys.stderr)
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="tilegraphs CLI benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of every workload on reduced inputs")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "tilegraphs", "cli.py")):
        print("perfbench: no tilegraphs sources under src/ in this checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    run.measure()
    doc = run.document()
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    report(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
