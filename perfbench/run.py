#!/usr/bin/env python3
"""The CASCC benchmark: `ccc_serve` end to end, plus a traced per-layer run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload {explore-weak,lock-drf,batch-static}
                           --seed N --seconds S --trace {0,1}

It builds `ccc_serve` and its traced twin `ccc_trace` from the sources
of the checkout (perfbench/CMakeLists.txt), generates the workload's
inputs from the seed (perfbench/gen.py), and measures for S seconds.

  --trace 0  runs the workload's batch through one `ccc_serve` process
             after another and reports the end-to-end metrics: wall, CPU
             and peak RSS of the process from its rusage, jobs/s, check
             time percentiles from the records, and set-up time.
  --trace 1  runs each batch once untraced and once through `ccc_trace`,
             and reports the per-layer metrics, with the tracing overhead.

Every record is matched against the answer the generator knows by
construction; explore checks on corpus files are also matched against the
trace hashes of tools/ccc_serve_golden.json. A mismatch makes the result
`"correct": false` and the exit code 1. The last line of stdout is the
result object; everything before it is for people.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import gen  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = ["src/CMakeLists.txt", "bin/CMakeLists.txt", "bin/ccc_serve.cpp",
            "tools/ccc_serve_golden.json"] + [p for p, _ in gen.CORPUS_EXPLORE]
WORKERS = 2  # at most nproc of a 4-core host; the same on every commit
# Set-up runs after each timed batch: 48 or more over a run.
SETUP_PER_BATCH = 8


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binaries.
    build_dir is keyed by the checkout (see main), so a build tree is never
    reused for another checkout's sources."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "ccc_serve", "ccc_trace"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)
    return (os.path.join(build_dir, "bin", "ccc_serve"),
            os.path.join(build_dir, "ccc_trace"))


def run_process(cmd, log_path):
    """Runs cmd from the checkout root. Returns (stdout lines, return code,
    wall s, user+sys CPU s, peak RSS MB), the last three from the child's
    own rusage."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=log)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (out.decode().splitlines(), proc.returncode, wall,
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


class Checker:
    """Matches verdict records against the known answers."""

    def __init__(self, answers):
        self.answers = answers
        with open(os.path.join(ROOT, "tools/ccc_serve_golden.json")) as f:
            golden = json.load(f)["serve"]
        self.hashes = {r["job"]: r["trace_hash"] for r in golden
                       if r["check"] == "explore" and "trace_hash" in r}
        self.corpus = {os.path.splitext(os.path.basename(p))[0]
                       for p, _ in gen.CORPUS_EXPLORE}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, records, returncode, what):
        """Counts one batch's checks and the failures among them."""
        seen = {}
        for r in records:
            key = (r.get("job"), r.get("check"))
            ok = key in self.answers and key not in seen
            ok = ok and r.get("verdict") == self.answers[key]
            if ok and key[1] == "explore" and key[0] in self.corpus:
                ok = r.get("trace_hash") == self.hashes.get(key[0])
            if not ok:
                self.problems.append(
                    f"{what}: {key} gave {r.get('verdict')} "
                    f"{r.get('trace_hash', '')} {r.get('error', '')}".rstrip())
            seen[key] = ok
        missing = [k for k in self.answers if k not in seen]
        self.problems += [f"{what}: {k} has no record" for k in missing]
        self.attempted += len(self.answers) + len(seen.keys() - self.answers)
        self.failed += len(missing) + sum(not ok for ok in seen.values())
        if returncode != 0:
            self.fail(f"{what}: exit code {returncode}")

    def fail(self, problem):
        self.problems.append(problem)
        self.attempted += 1
        self.failed += 1

    def merge(self, other):
        self.problems += other.problems
        self.attempted += other.attempted
        self.failed += other.failed


def quantile(values, q):
    """The q-quantile of values (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def serve_cmd(serve, req, flags, out_json):
    return [serve, "--requests", req, "--workers", str(WORKERS),
            "--out", out_json] + flags


def parse_records(lines):
    """The JSON records among a process's stdout lines. Anything else is
    dropped, so the checks it should have answered count as missing."""
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records


class Setup:
    """ccc_serve on one trivial request: process start, argument parsing,
    the first parse and build. Its runs are spread over the whole
    measurement, so the median does not depend on when the host was busy."""

    def __init__(self, serve, work, checker):
        path = os.path.join(work, "setup.ccc")
        with open(path, "w") as f:
            f.write("workload setup\n\nmodule m x86 model tso {\n"
                    "  .data x 0\n  .entry t1 0 0\n  t1:\n"
                    "          movl $1, x\n          retl\n}\n\n"
                    "thread t1\n\ncheck robustness\n")
        req = os.path.join(work, "setup.requests")
        with open(req, "w") as f:
            f.write(f"{path} name=setup\n")
        self.cmd = serve_cmd(serve, req, [], os.path.join(work, "setup.json"))
        self.log = os.path.join(work, "setup.log")
        self.checker = checker
        self.walls = []

    def run(self, times):
        for _ in range(times):
            lines, rc, wall, _, _ = run_process(self.cmd, self.log)
            self.checker.check(parse_records(lines), rc, "setup")
            self.walls.append(wall)


def end_to_end(serve, req, flags, njobs, checker, work, seconds):
    """Runs batches back to back for `seconds`. Times are the best of the
    run: the fastest batch's wall and CPU, and each check's fastest `ms`
    over the batches, of which the percentiles are taken. On a shared host
    other tenants slow a batch by up to 1.9x from one second to the next,
    and never speed it up, so the median over batches follows the host's
    load and the best follows the program (perfbench/README.md gives the
    measurements). The best also leaves out a cold first batch, so no
    separate warm-up batch is run."""
    cmd = serve_cmd(serve, req, flags, os.path.join(work, "serve.json"))
    log = os.path.join(work, "serve.log")
    setup = Setup(serve, work, Checker({("setup", "robustness"): "robust"}))
    setup.run(1)
    setup.walls.clear()

    walls, cpus, rss, best_ms = [], [], [], {}
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) \
            <= deadline:
        lines, rc, wall, cpu, peak = run_process(cmd, log)
        records = parse_records(lines)
        checker.check(records, rc, f"batch {len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        for r in records:
            if "ms" in r:
                key = (r.get("job"), r.get("check"))
                best_ms[key] = min(r["ms"], best_ms.get(key, r["ms"]))
        setup.run(SETUP_PER_BATCH)
    checker.merge(setup.checker)
    ms = list(best_ms.values())
    print(f"# {len(walls)} batches of {njobs} jobs; {len(ms)} checks, "
          f"{len(ms) - round(0.99 * len(ms))} of them beyond p99; "
          f"setup_s from {len(setup.walls)} runs")
    print(f"# median over batches: wall {statistics.median(walls):.4f} s, "
          f"cpu {statistics.median(cpus):.4f} s")
    return {
        "wall_s": (min(walls), "s"),
        "cpu_s": (min(cpus), "s"),
        "jobs_per_s": (njobs / min(walls), "1/s"),
        "check_ms_p50": (quantile(ms, 0.50), "ms"),
        "check_ms_p99": (quantile(ms, 0.99), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup.walls), "s"),
        "correct_share": (1.0 - checker.failed / checker.attempted, "ratio"),
    }


CHECK_KINDS = ["explore", "drf", "robustness", "fence-synth", "passes"]


def layer_metrics(summary, records, wall, peak_rss_mb, overhead_s):
    """The per-layer metrics of one traced batch. `summary` is ccc_trace's
    last line; `records`, `wall` and `peak_rss_mb` come from the untraced
    ccc_serve run of the same batch."""
    self_ms = summary["self_ms"]
    s = summary
    states = s["states"]
    probes = s["probes"]
    m = {
        "frontend.parse_ms": (self_ms.get("frontend.parse", 0.0), "ms"),
        "frontend.build_ms": (self_ms.get("frontend.build", 0.0), "ms"),
        "analysis.static_race_ms":
            (self_ms.get("analysis.static_race", 0.0), "ms"),
        "analysis.robustness_ms":
            (self_ms.get("analysis.robustness", 0.0), "ms"),
        "analysis.fence_synth_ms":
            (self_ms.get("analysis.fence_synth", 0.0), "ms"),
        "analysis.independence_ms":
            (self_ms.get("analysis.independence", 0.0), "ms"),
        "analysis.static_certified_share":
            (s["static_certified"] / s["drf_checks"]
             if s["drf_checks"] else 0.0, "ratio"),
        "analysis.fences_inserted": (s["fences_inserted"], "count"),
        "compiler.compile_ms": (self_ms.get("compiler.compile", 0.0), "ms"),
        "validate.pipeline_ms":
            (self_ms.get("validate.pipeline", 0.0), "ms"),
        "step.succ_ns": (s["succ_ns"], "ns"),
        "step.succs_per_call": (s["succs_per_call"], "count"),
        "world.copy_ns": (s["copy_ns"], "ns"),
        "world.hash_ns": (s["hash_ns"], "ns"),
        "world.encode_ns": (s["encode_ns"], "ns"),
        "world.predict_ns": (s["predict_ns"], "ns"),
        "store.state_bytes": (s["state_bytes"], "bytes"),
        "store.bytes_per_state":
            (s["state_bytes"] / states if states else 0.0, "bytes"),
        "store.graph_bytes": (s["graph_bytes"], "bytes"),
        "store.tree_nodes": (s["tree_nodes"], "count"),
        "store.dedup_hit_rate":
            (s["dedup_hits"] / probes if probes else 0.0, "ratio"),
        "store.rss_attributed_share":
            (s["max_attributed_bytes"] / (peak_rss_mb * 1024 * 1024),
             "ratio"),
        "engine.build_ms": (self_ms.get("engine.build", 0.0), "ms"),
        "engine.states": (states, "count"),
        "engine.expanded": (s["expanded"], "count"),
        "engine.probes": (probes, "count"),
        "engine.states_per_s":
            (s["expanded"] * 1000.0 / s["engine_build_ms"]
             if s["engine_build_ms"] else 0.0, "1/s"),
        "engine.peak_frontier": (s["peak_frontier"], "count"),
        "engine.por_ample_hits": (s["por_ample_hits"], "count"),
        "engine.por_full_expansions": (s["por_full_expansions"], "count"),
        "engine.por_sleep_prunes": (s["por_sleep_prunes"], "count"),
        "engine.por_edges_avoided": (s["por_edges_avoided"], "count"),
        "engine.teardown_ms": (self_ms.get("engine.teardown", 0.0), "ms"),
        "post.divergence_ms": (self_ms.get("post.divergence", 0.0), "ms"),
        "post.trace_ms": (self_ms.get("post.trace", 0.0), "ms"),
        "post.race_ms": (self_ms.get("post.race", 0.0), "ms"),
        "server.overhead_ms":
            (wall * 1000.0 - sum(r["ms"] for r in records), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for kind in CHECK_KINDS:
        ms = [r["ms"] for r in records if r["check"] == kind]
        m[f"server.check_ms.{kind}"] = (quantile(ms, 0.5), "ms")
    return m


def family_table(spans_path, families):
    """Per job family of one traced batch: jobs, share of the batch's job
    time, and self time (ms) by layer. Span job ids are request indices."""
    names = list(families)
    rows = {}
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ms"] - s["start_ms"]
    layers = []
    for s, c in zip(spans, child):
        fam = families[names[s["job"]]]
        layer = s["name"].split(".")[0]
        if layer not in layers:
            layers.append(layer)
        row = rows.setdefault(fam, {"jobs": set(), "job_ms": 0.0})
        row["jobs"].add(s["job"])
        row[layer] = row.get(layer, 0.0) + s["end_ms"] - s["start_ms"] - c
        if s["parent"] < 0:
            row["job_ms"] += s["end_ms"] - s["start_ms"]
    total = sum(r["job_ms"] for r in rows.values())
    out = ["# family        jobs  share " +
           " ".join(f"{l:>9}" for l in layers)]
    for fam, r in sorted(rows.items()):
        out.append(f"# {fam:<12} {len(r['jobs']):>5} {r['job_ms'] / total:6.1%} "
                   + " ".join(f"{r.get(l, 0.0):9.1f}" for l in layers))
    return "\n".join(out)


def per_layer(serve, trace, req, flags, checker, work, seconds, seed,
              families):
    """Alternates one untraced and one traced batch until the time is up;
    reports each metric's median over the pairs."""
    runs = []
    deadline = time.perf_counter() + seconds
    spans = os.path.join(work, "spans.jsonl")
    while not runs or time.perf_counter() + runs[-1][0] <= deadline:
        start = time.perf_counter()
        lines, rc, wall, _, peak = run_process(
            serve_cmd(serve, req, flags, os.path.join(work, "serve.json")),
            os.path.join(work, "serve.log"))
        records = parse_records(lines)
        checker.check(records, rc, f"untraced {len(runs)}")
        tlines, trc, twall, _, _ = run_process(
            [trace, "--requests", req, "--workers", str(WORKERS),
             "--sample-seed", str(seed), "--spans", spans] + flags,
            os.path.join(work, "trace.log"))
        traced = [r for r in parse_records(tlines) if "job" in r]
        checker.check(traced, trc, f"traced {len(runs)}")
        verdicts = {(r["job"], r["check"]): r["verdict"] for r in records}
        for r in traced:
            if verdicts.get((r["job"], r["check"])) != r["verdict"]:
                checker.fail(f"traced verdict differs from untraced: {r}")
        if trc != 0 or not tlines or not tlines[-1].startswith("{\"self_ms"):
            checker.fail("ccc_trace printed no summary")
            return {}
        summary = json.loads(tlines[-1])
        overhead = twall - summary["probe_ms"] / 1000.0 - wall
        runs.append((time.perf_counter() - start,
                     layer_metrics(summary, records, wall, peak, overhead)))
    print("\n".join(l for l in tlines if l.startswith("#")))
    print("# self ms by family and layer, last traced batch:")
    print(family_table(spans, families))
    print(f"# {len(runs)} untraced/traced pairs; {int(summary['samples'])} "
          f"sampled node worlds per traced batch")
    return {name: (statistics.median(r[1][name][0] for r in runs), unit)
            for name, (_, unit) in runs[0][1].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a CASCC checkout, missing " + ", ".join(missing))

    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), f"perfbench-{key}")
    serve, trace = build(build_dir)
    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    req, answers, flags, families = gen.generate(args.workload, args.seed,
                                                 work)
    checker = Checker(answers)

    if args.trace:
        metrics = per_layer(serve, trace, req, flags, checker, work,
                            args.seconds, args.seed, families)
    else:
        metrics = end_to_end(serve, req, flags, len(families), checker, work,
                             args.seconds)

    for p in checker.problems[:20]:
        print(f"# FAIL {p}", file=sys.stderr)
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
