"""Seeded input generator for the CASCC benchmark.

For one workload and one seed it writes distinct `.ccc` files, the request
list `ccc_serve` reads, and the answer list the checker matches records
against. Every answer is known by construction, from the family a file is
drawn from:

  - a lock client whose every shared access sits between lock() and
    unlock() is data-race free: `drf` answers `certified`;
  - the same client with one access moved outside the lock races with a
    locked access of another thread: `drf` answers `refuted`;
  - the unfenced SB and LB shapes and unfenced ping-pong leave a store
    buffered across a later load or an observable event under TSO and
    Relaxed: `robustness` answers `not-robust`;
  - unfenced IRIW readers reorder their loads under Relaxed only (TSO's
    stores become visible to all threads at once): `not-robust` under
    Relaxed, `robust` under TSO;
  - MP (its spin test and print consume both loads) and every fully
    fenced variant: `robust`;
  - a counter client against the unfenced pi_lock object leaves the
    counter store and the release store buffered: `not-robust`; the
    fenced client against the fenced pi_lock: `robust`;
  - every shape above is repairable by inserting mfences: `fence-synth`
    answers `certified`;
  - the Clight lock clients compile through the validated pipeline:
    `passes` answers `certified`;
  - none of the programs asserts anything that can fail: `explore`
    answers `certified`.

The seed changes names, constants, offsets, registers, job order and,
in `batch-static`, which variant of a family each job draws. The number of
jobs drawn from each family and the size of every explored program are
fixed per workload, so the work a batch does is the same for every seed.
"""

import os
import random

# The gamma_lock specification object (Fig. 10), shared by every CImp and
# Clight lock client.
GAMMA_LOCK = """module lockspec cimp object {
  global L = 1;

  lock() {
    r := 0;
    while (r == 0) {
      < r := [L]; [L] := 0; >
    }
    return 0;
  }

  unlock() {
    < r := [L]; assert(r == 0); [L] := 1; >
    return 0;
  }
}
"""

# pi_lock (Fig. 10b): lock-prefixed cmpxchg acquire, plain release store.
# The fenced variant drains the release store before returning.
PI_LOCK = """module lockimpl x86 model tso object {
  .data L 1
  .entry lock 0 0
  .entry unlock 0 0
  lock:
          movl    $L, %ecx
          movl    $0, %edx
  l_acq:
          movl    $1, %eax
          lock cmpxchgl %edx, (%ecx)
          je      enter
  spin:
          movl    (%ecx), %ebx
          cmpl    $0, %ebx
          je      spin
          jmp     l_acq
  enter:
          retl
  unlock:
          movl    $L, %eax
          movl    $1, (%eax)
{fence}          retl
}
"""

# Corpus files reused read-only: (path, {check: answer}). Their explore
# trace hashes are also matched against tools/ccc_serve_golden.json.
CORPUS_EXPLORE = [
    ("corpus/mixed_model.ccc",
     {"explore": "certified", "robustness": "not-robust"}),
    ("corpus/pingpong_tso_r2.ccc",
     {"explore": "certified", "robustness": "robust"}),
    ("corpus/lb_relaxed.ccc",
     {"explore": "certified", "robustness": "not-robust"}),
]

DATA_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h", "k", "m", "n", "p"]
SCRATCH_REGS = ["%eax", "%ebx", "%edx"]


class Job:
    """One `.ccc` file of the batch, the answers of its checks, and the
    family it is drawn from (for the per-family breakdown of a run)."""

    def __init__(self, name, family, text=None, path=None, answers=None):
        self.name = name
        self.family = family
        self.text = text
        self.path = path
        self.answers = answers or {}


def _cells(rng, n, tag):
    """n distinct data-cell names, unique to one job through its tag."""
    return [f"{c}{tag}" for c in rng.sample(DATA_NAMES, n)]


def _fence(on):
    return "          mfence\n" if on else ""


def robust_answer(shape, model, fenced):
    if fenced or shape == "MP":
        return "robust"
    if shape == "IRIW":
        return "robust" if model == "tso" else "not-robust"
    return "not-robust"  # SB, LB, ping-pong


def litmus(rng, tag, shape, model, fenced):
    """One litmus-shape x86 module. Returns (module text, thread entries)."""
    f = _fence(fenced)
    k1, k2 = rng.sample(range(10, 90), 2)  # print offsets
    if shape == "SB":
        x, y = _cells(rng, 2, tag)
        r1, r2 = rng.sample(SCRATCH_REGS, 2)
        v = rng.randint(1, 9)
        body = (f"  .data {x} 0\n  .data {y} 0\n"
                f"  .entry t1 0 0\n  .entry t2 0 0\n"
                f"  t1:\n          movl ${v}, {x}\n{f}"
                f"          movl {y}, {r1}\n          addl ${k1}, {r1}\n"
                f"          printl {r1}\n          retl\n"
                f"  t2:\n          movl ${v}, {y}\n{f}"
                f"          movl {x}, {r2}\n          addl ${k2}, {r2}\n"
                f"          printl {r2}\n          retl\n")
        entries = ["t1", "t2"]
    elif shape == "LB":
        x, y = _cells(rng, 2, tag)
        r1, r2 = rng.sample(SCRATCH_REGS, 2)
        v = rng.randint(1, 9)
        body = (f"  .data {x} 0\n  .data {y} 0\n"
                f"  .entry t1 0 0\n  .entry t2 0 0\n"
                f"  t1:\n          movl {y}, {r1}\n{f}"
                f"          movl ${v}, {x}\n{f}"
                f"          addl ${k1}, {r1}\n          printl {r1}\n"
                f"          retl\n"
                f"  t2:\n          movl {x}, {r2}\n{f}"
                f"          movl ${v}, {y}\n{f}"
                f"          addl ${k2}, {r2}\n          printl {r2}\n"
                f"          retl\n")
        entries = ["t1", "t2"]
    elif shape == "MP":
        data, flag = _cells(rng, 2, tag)
        r1, r2 = rng.sample(SCRATCH_REGS, 2)
        v, fl = rng.randint(11, 99), rng.randint(1, 9)
        body = (f"  .data {data} 0\n  .data {flag} 0\n"
                f"  .entry t1 0 0\n  .entry t2 0 0\n"
                f"  t1:\n          movl ${v}, {data}\n{f}"
                f"          movl ${fl}, {flag}\n          retl\n"
                f"  t2:\n  spin:\n          movl {flag}, {r1}\n"
                f"          cmpl ${fl}, {r1}\n          jne spin\n{f}"
                f"          movl {data}, {r2}\n          printl {r2}\n"
                f"          retl\n")
        entries = ["t1", "t2"]
    elif shape == "IRIW":
        x, y = _cells(rng, 2, tag)
        v = rng.randint(1, 9)
        body = (f"  .data {x} 0\n  .data {y} 0\n"
                f"  .entry w1 0 0\n  .entry w2 0 0\n"
                f"  .entry r1 0 0\n  .entry r2 0 0\n"
                f"  w1:\n          movl ${v}, {x}\n          retl\n"
                f"  w2:\n          movl ${v}, {y}\n          retl\n"
                f"  r1:\n          movl {x}, %eax\n{f}"
                f"          movl {y}, %ebx\n          imull $16, %eax\n"
                f"          addl %ebx, %eax\n          addl ${k1}, %eax\n"
                f"          printl %eax\n          retl\n"
                f"  r2:\n          movl {y}, %ecx\n{f}"
                f"          movl {x}, %edx\n          imull $16, %ecx\n"
                f"          addl %edx, %ecx\n          addl ${k2 + 100}, %ecx\n"
                f"          printl %ecx\n          retl\n")
        entries = ["w1", "w2", "r1", "r2"]
    else:
        raise ValueError(shape)
    return body, entries


def pingpong(rng, tag, rounds, fenced):
    """Two threads storing their round counter and loading the peer's."""
    x, y = _cells(rng, 2, tag)
    f = _fence(fenced)
    k = rng.randint(1, 50)
    out = f"  .data {x} 0\n  .data {y} 0\n  .entry t1 0 0\n  .entry t2 0 0\n"
    for entry, own, peer, reg in (("t1", x, y, "%eax"), ("t2", y, x, "%ebx")):
        out += (f"  {entry}:\n          movl ${rounds}, %ecx\n"
                f"  {entry}_loop:\n          movl %ecx, {own}\n{f}"
                f"          movl {peer}, {reg}\n          addl ${k}, {reg}\n"
                f"          printl {reg}\n          subl $1, %ecx\n"
                f"          cmpl $0, %ecx\n          jne {entry}_loop\n"
                f"          retl\n")
    return out, ["t1", "t2"]


def x86_job(name, model, body, entries, checks):
    return (f"workload {name}\n\nmodule m x86 model {model} {{\n{body}}}\n\n"
            + "".join(f"thread {e}\n" for e in entries) + "\n"
            + "".join(f"check {c}\n" for c in checks))


def cimp_client(rng, tag, incs, drop):
    """A CImp lock client; drop = None, "read" or "write" names the access
    moved outside the critical section."""
    x = f"x{tag}"
    n, t = rng.sample(["n", "i", "k", "j"], 2)
    x0 = rng.randint(0, 9)
    off = rng.randint(0, 50)
    read, write = f"{t} := [{x}];", f"[{x}] := {t} + 1;"
    if drop == "read":
        crit = f"    {read}\n    lock();\n    {write}\n    unlock();\n"
    elif drop == "write":
        crit = f"    lock();\n    {read}\n    unlock();\n    {write}\n"
    else:
        crit = f"    lock();\n    {read}\n    {write}\n    unlock();\n"
    return (f"module client cimp {{\n  global {x} = {x0};\n  inc() {{\n"
            f"  {n} := 0;\n  while ({n} < {incs}) {{\n{crit}"
            f"    print({t} + {off});\n    {n} := {n} + 1;\n  }}\n  }}\n}}\n")


def clight_client(rng, tag, incs, drop):
    """The Fig. 10(c) Clight client, its increment unrolled `incs` times.
    Straight-line on purpose: the `passes` check of a Clight client with a
    loop fails at random in a long-running server (the Linear and Mach
    label caches are keyed by function address, which a later job can
    reuse), and a benchmark input must not fail."""
    x = f"x{tag}"
    x0 = rng.randint(0, 9)
    off = rng.randint(0, 50)
    if drop == "read":
        crit = "    tmp = {x};\n    lock();\n    {x} = tmp + 1;\n    unlock();\n"
    elif drop == "write":
        crit = "    lock();\n    tmp = {x};\n    unlock();\n    {x} = tmp + 1;\n"
    else:
        crit = "    lock();\n    tmp = {x};\n    {x} = tmp + 1;\n    unlock();\n"
    crit += f"    print(tmp + {off});\n"
    return ("module client clight {\n  extern void lock();\n"
            "  extern void unlock();\n"
            f"  int {x} = {x0};\n  void inc() {{\n    int32_t tmp;\n"
            + crit.format(x=x) * incs + "  }\n}\n")


def lock_job(wl, client, threads, checks):
    return (f"workload {wl}\n\n{client}\n{GAMMA_LOCK}\n"
            + "thread inc\n" * threads + "\n"
            + "".join(f"check {c}\n" for c in checks))


def pilock_job(wl, rng, tag, fenced, checks):
    x = f"x{tag}"
    r1, r2 = rng.sample(["%ebx", "%edx"], 2)
    f = _fence(fenced)
    client = (f"module client x86 model tso {{\n  .data {x} 0\n"
              f"  .entry inc 0 0\n  .extern lock 0\n  .extern unlock 0\n"
              f"  inc:\n          call lock\n          movl {x}, {r1}\n"
              f"          movl {r1}, {r2}\n          addl $1, {r2}\n"
              f"          movl {r2}, {x}\n{f}          call unlock\n"
              f"          printl {r1}\n          retl\n}}\n")
    return (f"workload {wl}\n\n{client}\n" + PI_LOCK.replace("{fence}", f)
            + "\nthread inc\nthread inc\n\n"
            + "".join(f"check {c}\n" for c in checks))


# --- workloads ------------------------------------------------------------


def explore_weak(rng):
    """A few large explore jobs on weak-memory x86 and Clight programs."""
    jobs = [Job(os.path.splitext(os.path.basename(p))[0], "corpus", path=p,
                answers=a) for p, a in CORPUS_EXPLORE]
    # (shape, model, size, fenced): the seeded larger variants, explore
    # only. With the corpus files' six checks that makes 15 checks a batch.
    # Ping-pong stays at r <= 4: from r = 5 the trace post-pass grows
    # several-fold per round. The median check falls inside the 50-100 ms
    # cluster (TSO ping-pong r = 2 at seed), not on a gap between two
    # jobs, so check_ms_p50 does not jump from one job to another.
    specs = [("IRIW", "tso", 0, False), ("pingpong", "relaxed", 3, True),
             ("pingpong", "tso", 2, False), ("IRIW", "relaxed", 0, True),
             ("pingpong", "tso", 4, True), ("pingpong", "relaxed", 2, False),
             ("IRIW", "relaxed", 0, False), ("pingpong", "relaxed", 4, True),
             ("pingpong", "tso", 3, False)]
    for i, (shape, model, size, fenced) in enumerate(specs):
        tag = f"{i}{rng.randint(0, 999)}"
        if shape == "pingpong":
            body, entries = pingpong(rng, tag, size, fenced)
        else:
            body, entries = litmus(rng, tag, shape, model, fenced)
        name = f"w{i}_{shape.lower()}_{model}{size or ''}" + \
            ("_f" if fenced else "")
        jobs.append(Job(name, shape.lower(),
                        x86_job(name, model, body, entries, ["explore"]),
                        answers={"explore": "certified"}))
    return jobs, []


def lock_drf(rng):
    """Lock clients with 3-4 threads, every job a `drf` check."""
    # (language, threads, increments, dropped access). Nine jobs, six of
    # them 400-600 ms at seed: the median check is one of those, inside a
    # cluster, so check_ms_p50 does not jump from one job to another.
    specs = [("cimp", 3, 2, None), ("cimp", 3, 2, None), ("cimp", 4, 1, None),
             ("clight", 3, 2, None), ("clight", 3, 2, None),
             ("clight", 4, 1, None),
             ("cimp", 3, 1, "read"), ("cimp", 3, 1, "write"),
             ("clight", 3, 1, "write")]
    jobs = []
    for i, (lang, threads, incs, drop) in enumerate(specs):
        make = cimp_client if lang == "cimp" else clight_client
        name = f"l{i}_{lang}_t{threads}i{incs}" + (f"_no{drop}" if drop else "")
        text = lock_job(name, make(rng, i, incs, drop), threads, ["drf"])
        jobs.append(Job(name, lang + ("-racy" if drop else ""), text,
                        answers={"drf": "refuted" if drop else "certified"}))
    return jobs, ["--no-fast-paths"]


def _deck(rng, variants, n):
    """n draws holding every variant equally often, in seeded order."""
    deck = [variants[i % len(variants)] for i in range(n)]
    rng.shuffle(deck)
    return deck


# Jobs per family in one batch-static batch: 1680 jobs, 3168 checks. The
# counts come from a traced batch (run.py --trace 1 prints the self time of
# each family by layer) and aim at these shares of the batch's job time:
# the x86 families (robustness + fence-synth) about half, split between
# the front end and the static analyses; the Clight `passes` checks
# (compileClight + validatePipeline) about a third, and past 1% of the
# checks, so check_ms_p99 lies among them; the lock clients' fast-path drf
# checks the rest, with one racy client in eight (the certifier declines
# and the detector explores a few hundred states) so exploration stays
# near a tenth. perfbench/README.md records the measured shares.
BATCH_STATIC = {"litmus": 960, "pingpong": 320, "pilock": 160, "cimp": 192,
                "clight": 48}
# Lock-client variants, (increments, dropped access): one in eight racy.
LOCK_DECK = [(1, None)] * 7 + [(2, None)] * 7 + [(1, "read"), (1, "write")]


def batch_static(rng):
    """A stream of small distinct jobs: robustness, fence-synth, passes and
    fast-path drf checks. Each family's variants come from a deck holding
    each variant equally often, so only their order depends on the seed."""
    decks = {
        "litmus": _deck(rng, [(s, m, f) for s in ("SB", "LB", "MP", "IRIW")
                              for m in ("tso", "relaxed")
                              for f in (False, True)],
                        BATCH_STATIC["litmus"]),
        "pingpong": _deck(rng, [(m, r, f) for m in ("tso", "relaxed")
                                for r in (1, 2, 3, 4) for f in (False, True)],
                          BATCH_STATIC["pingpong"]),
        "pilock": _deck(rng, [False, True], BATCH_STATIC["pilock"]),
        # A racy client makes the fast path decline and the detector
        # explore; one increment keeps that exploration small.
        "cimp": _deck(rng, LOCK_DECK, BATCH_STATIC["cimp"]),
        "clight": _deck(rng, LOCK_DECK, BATCH_STATIC["clight"]),
    }
    families = [f for f, n in BATCH_STATIC.items() for _ in range(n)]
    rng.shuffle(families)
    jobs = []
    for i, fam in enumerate(families):
        tag = str(i)
        name = f"s{i}_{fam}"
        variant = decks[fam].pop()
        if fam in ("litmus", "pingpong"):
            if fam == "litmus":
                shape, model, fenced = variant
                body, entries = litmus(rng, tag, shape, model, fenced)
            else:
                model, rounds, fenced = variant
                shape = "PP"
                body, entries = pingpong(rng, tag, rounds, fenced)
            checks = ["robustness", "fence-synth"]
            answers = {"robustness": robust_answer(shape, model, fenced),
                       "fence-synth": "certified"}
            text = x86_job(name, model, body, entries, checks)
        elif fam == "pilock":
            checks = ["robustness", "fence-synth"]
            answers = {"robustness": "robust" if variant else "not-robust",
                       "fence-synth": "certified"}
            text = pilock_job(name, rng, tag, variant, checks)
        else:
            incs, drop = variant
            make = cimp_client if fam == "cimp" else clight_client
            checks = ["drf"] + (["passes"] if fam == "clight" else [])
            answers = {"drf": "refuted" if drop else "certified"}
            if fam == "clight":
                answers["passes"] = "certified"
            text = lock_job(name, make(rng, tag, incs, drop), 2, checks)
        jobs.append(Job(name, fam, text, answers=answers))
    return jobs, []


WORKLOADS = {
    "explore-weak": explore_weak,
    "lock-drf": lock_drf,
    "batch-static": batch_static,
}


def generate(workload, seed, out_dir):
    """Writes the workload's files for `seed` into out_dir. Returns
    (request list path, answers, extra ccc_serve flags, families), where
    answers maps (job, check) to the expected verdict and families maps
    each job, in request order, to its family."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, flags = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    os.makedirs(out_dir, exist_ok=True)
    lines, answers, families = [], {}, {}
    for job in jobs:
        families[job.name] = job.family
        path = job.path
        if path is None:
            path = os.path.join(out_dir, job.name + ".ccc")
            with open(path, "w") as f:
                f.write(job.text)
        lines.append(f"{path} name={job.name}")
        for check, verdict in job.answers.items():
            answers[(job.name, check)] = verdict
    req = os.path.join(out_dir, "requests.txt")
    with open(req, "w") as f:
        f.write("\n".join(lines) + "\n")
    return req, answers, flags, families
