"""cdgl benchmark: real CLI commands, each in a fresh interpreter.

    python3 perfbench/run.py --workload malcev --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --check          # quick self-check, reduced caps

Run from a checkout of the repository; the engine is imported from ``src``.
The load is a closed loop with one client: commands run one after another,
each in a new ``python3 perfbench/child.py`` process, which times only
``cdgl.workbench.cli.main(argv)``.  A fresh process per command keeps the
module-level basis cache cold, as it is for every CLI user.

A *pass* runs each command of the workload once, in an order drawn from
``--seed`` (the seed changes nothing else).  A certified pass runs the
commands as users run the CLI by default (stability re-run on); an answer
pass adds ``--no-stability`` to the commands that have a re-run.  With
``--trace 0`` the run is a sequence of rounds; a round runs every distinct
command of one certified and one answer pass once, in a shuffled order.
Each untraced child's times are scaled to the reference host speed by its
own calibration time (``calibration.py``).  With ``--trace 1`` the run
alternates untraced and traced certified passes; the traced ones wrap the
engine from outside (``tracer.py``) and give the per-layer metrics.

Every report is checked against the one recorded at the seed commit
(``expected/<workload>.json``, written by ``record.py``); the ``version =``
line is ignored.  A timeout, a different exit code or a different report
counts as a failed operation.  The last line of stdout is the JSON result;
the full result with provenance goes to ``.perfbench-out/``.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_CALIBRATION_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected")
OUT = os.path.join(ROOT, ".perfbench-out")

COMMAND_TIMEOUT_S = 60   # per command; the slowest command takes ~2 s at the seed
HARD_STOP_S = 150        # no command starts later, so a run ends within 180 s

WITNESS_FILE = "perfbench/data/wedge_homotopy.cdgl"

# Each workload: the full command list, and the reduced-cap list of --check.
WORKLOADS = {
    "malcev": {
        "full": [
            ["h0", "--model", "wedge(1,1)", "--truncate", "3"],
            ["h0", "--model", "wedge(1,1)", "--truncate", "4"],
            ["bch", "--model", "wedge(1,1)", "-x", "x", "-y", "y", "--truncate", "7"],
            ["gauge-equiv", "--model", "L1", "-a", "a", "-b", "b", "--truncate", "8"],
        ],
        "quick": [
            ["h0", "--model", "wedge(1,1)", "--truncate", "2"],
            ["h0", "--model", "wedge(1,1)", "--truncate", "3"],
            ["bch", "--model", "wedge(1,1)", "-x", "x", "-y", "y", "--truncate", "4"],
            ["gauge-equiv", "--model", "L1", "-a", "a", "-b", "b", "--truncate", "5"],
        ],
    },
    "homology": {
        "full": [
            ["homology", "--model", "wedge(2,2,3)", "--range", "0..10", "--truncate", "5"],
            ["homology", "--model", "wedge(2,3)", "--range", "0..14", "--truncate", "7"],
            ["homology", "--model", "wedge(2,3)", "--range", "0..14", "--truncate", "8"],
        ],
        "quick": [
            ["homology", "--model", "wedge(2,2,3)", "--range", "0..10", "--truncate", "3"],
            ["homology", "--model", "wedge(2,2,3)", "--range", "0..10", "--truncate", "4"],
            ["homology", "--model", "wedge(2,3)", "--range", "0..14", "--truncate", "4"],
        ],
    },
    "derivations": {
        "full": [
            ["pi-map", "--model", "wedge(2,2)", "--morphism", "id", "--range", "1..8",
             "--truncate", "6"],
            ["pi-map", "--model", "wedge(2,3)", "--morphism", "id", "--range", "1..8",
             "--truncate", "7"],
            ["baut", "--model", "wedge(3,3)", "--gspec", "identity", "--range", "1..6"],
            ["bautstar", "--model", "wedge(3,3)", "--gspec", "identity", "--range", "1..4"],
            ["gamma", "--model", "wedge(2,2)", "--word-cap", "2", "--truncate", "2"],
            ["witness", WITNESS_FILE, "--homotopy", "Psi", "--from", "f", "--to", "g",
             "--truncate", "10", "--poly-cap", "12"],
        ],
        "quick": [
            ["pi-map", "--model", "wedge(2,2)", "--morphism", "id", "--range", "1..6",
             "--truncate", "4"],
            ["pi-map", "--model", "wedge(2,3)", "--morphism", "id", "--range", "1..6",
             "--truncate", "4"],
            ["baut", "--model", "wedge(3,3)", "--gspec", "identity", "--range", "1..4",
             "--truncate", "3"],
            ["bautstar", "--model", "wedge(3,3)", "--gspec", "identity", "--range", "1..3",
             "--truncate", "3"],
            ["gamma", "--model", "wedge(2,2)", "--word-cap", "1", "--truncate", "2"],
            ["witness", WITNESS_FILE, "--homotopy", "Psi", "--from", "f", "--to", "g",
             "--truncate", "6", "--poly-cap", "8"],
        ],
    },
}

# per-layer metrics: name -> (unit, how it is computed from a traced pass)
PER_LAYER = {
    "workbench.self_s": ("s", ("self", "workbench")),
    "workbench.stability_s": ("s", ("stability",)),
    "models.self_s": ("s", ("self", "models")),
    "models.build_s": ("s", ("seconds", "models.build")),
    "dgl.self_s": ("s", ("self", "dgl")),
    "dgl.bch.calls": ("count", ("calls", "dgl.bch")),
    "dgl.bch_s": ("s", ("seconds", "dgl.bch")),
    "dgl.class_of.calls": ("count", ("calls", "dgl.class_of")),
    "dgl.class_of_s": ("s", ("seconds", "dgl.class_of")),
    "dgl.gauge_s": ("s", ("seconds", "dgl.gauge")),
    "dgl.apply_operator.calls": ("count", ("calls", "dgl.apply_operator")),
    "dgl.apply_operator_s": ("s", ("seconds", "dgl.apply_operator")),
    "dgl.complex_s": ("s", ("seconds", "dgl.complex")),
    "freelie.self_s": ("s", ("self", "freelie")),
    "freelie.lie_basis.calls": ("count", ("calls", "freelie.lie_basis")),
    "freelie.lie_basis_s": ("s", ("seconds", "freelie.lie_basis")),
    "freelie.lie_basis.yield": ("ratio", ("ratio", "freelie.kept", "freelie.sequences")),
    "freelie.is_lie_s": ("s", ("seconds", "freelie.is_lie")),
    "freelie.exp_log_s": ("s", ("seconds", "freelie.exp_log")),
    "freelie.bracket.calls": ("count", ("calls", "freelie.bracket")),
    "freelie.coordinatizer.builds": ("count", ("calls", "freelie.coordinatizer")),
    "freelie.coords.calls": ("count", ("calls", "freelie.coords")),
    "exactlin.self_s": ("s", ("self", "exactlin")),
    "exactlin.solve.calls": ("count", ("calls", "exactlin.solve")),
    "exactlin.solve_s": ("s", ("seconds", "exactlin.solve")),
    "exactlin.factorizations": ("count", ("calls", "exactlin.factor")),
    "exactlin.refactor_ratio": ("ratio", ("ratio", "exactlin.factor",
                                          "exactlin.distinct_matrices")),
    "exactlin.span_add.calls": ("count", ("calls", "exactlin.span_add")),
    "exactlin.span_add.accept_ratio": ("ratio", ("ratio", "exactlin.span_accepts",
                                                 "exactlin.span_add")),
    "exactlin.homology_s": ("s", ("seconds", "exactlin.homology")),
    "exactlin.les_s": ("s", ("seconds", "exactlin.les")),
    "exactlin.max_coeff_bits": ("bits", ("max", "exactlin.max_coeff_bits")),
    "derivations.self_s": ("s", ("self", "derivations")),
    "derivations.bracket.calls": ("count", ("calls", "derivations.bracket")),
    "derivations.bracket_s": ("s", ("seconds", "derivations.bracket")),
    "derivations.complex_s": ("s", ("seconds", "derivations.complex")),
    "coalgebra.self_s": ("s", ("self", "coalgebra")),
    "coalgebra.chains_functor_s": ("s", ("seconds", "coalgebra.chains_functor")),
    "coalgebra.chains_dim": ("count", ("sum", "coalgebra.chains_dim")),
    "cylinder.self_s": ("s", ("self", "cylinder")),
    "trace.overhead_ratio": ("ratio", ("overhead",)),
}

END_TO_END_UNITS = {"certified_s": "s", "answer_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing engine source or records)."""


# -- commands and records -------------------------------------------------------

def key_of(argv):
    return " ".join(argv)


def certified_argv(base):
    return list(base) + ["--format", "canonical"]


def has_stability_rerun(certified_report):
    return any(line.startswith("stability = ")
               for line in certified_report.splitlines())


def answer_argv(base, expected):
    argv = certified_argv(base)
    if has_stability_rerun(expected[key_of(argv)]["report"]):
        argv.append("--no-stability")
    return argv


def comparable(report):
    """The canonical report without its ``version =`` line."""
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.startswith("version = "))


def load_expected(workload):
    path = os.path.join(EXPECTED, workload + ".json")
    if not os.path.exists(path):
        raise BenchError("no recorded reports at %s" % path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


# -- child processes ------------------------------------------------------------

def spawn(argv, traced, timeout):
    """Run one command in a fresh interpreter; returns the child's record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(argv),
                               "1" if traced else "0"],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "timeout after %.0f s" % timeout}
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        return {"error": "child exited %d: %s" % (proc.returncode, " | ".join(tail))}
    rec = json.loads(proc.stdout)
    rec["setup_s"] = rec.pop("ready") - t_spawn
    return rec


def check_engine():
    if not os.path.isfile(os.path.join(SRC, "cdgl", "workbench", "cli.py")):
        raise BenchError("engine source not found under %s" % SRC)
    rec = spawn([], False, COMMAND_TIMEOUT_S)       # warm-up: compiles bytecode
    if "error" in rec:
        raise BenchError("cannot import the engine: %s" % rec["error"])


class Runner:
    """Runs passes, checks every answer, and keeps every sample."""

    def __init__(self, workload, seed, level="full"):
        self.expected = load_expected(workload)
        self.bases = WORKLOADS[workload][level]
        self.rng = random.Random(seed)
        self.t_start = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.passes = {}        # mode -> list of pass records
        # untraced children only; "scaled" means at the reference host speed
        self.setup = {"scaled": [], "raw": []}
        self.samples = {"scaled": {}, "raw": {}}    # key -> main() seconds
        self.calibration = []
        self.log = []           # [t, key, main_s, calibration_s, setup_s] per child
        self.untraced_reports = {}

    def elapsed(self):
        return time.monotonic() - self.t_start

    def _fail(self, argv, why):
        self.failures.append("%s: %s" % (key_of(argv), why))

    def argv(self, base, mode):
        return (answer_argv(base, self.expected) if mode == "answer"
                else certified_argv(base))

    def run_one(self, argv, traced):
        self.attempted += 1
        if self.elapsed() > HARD_STOP_S:
            self._fail(argv, "not run: the run reached its time limit")
            return {"key": key_of(argv), "error": "not run"}
        rec = spawn(argv, traced, min(COMMAND_TIMEOUT_S,
                                      HARD_STOP_S + 20 - self.elapsed()))
        rec["key"] = key_of(argv)
        if "error" in rec:
            self._fail(argv, rec["error"])
            return rec
        if not traced:
            scale = REFERENCE_CALIBRATION_S / rec["calibration_s"]
            rec["scaled_s"] = rec["main_s"] * scale
            for kind, main_s, setup_s in (("raw", rec["main_s"], rec["setup_s"]),
                                          ("scaled", rec["scaled_s"],
                                           rec["setup_s"] * scale)):
                self.samples[kind].setdefault(rec["key"], []).append(main_s)
                self.setup[kind].append(setup_s)
            self.calibration.append(rec["calibration_s"])
            self.log.append([round(self.elapsed(), 3), rec["key"], rec["main_s"],
                             rec["calibration_s"], rec["setup_s"]])
        self._check(argv, rec, traced)
        return rec

    def add_pass(self, mode, wall, commands):
        rec = {"wall": wall, "commands": commands,
               "main_s": sum(c.get("main_s", 0.0) for c in commands),
               "scaled_s": sum(c.get("scaled_s", 0.0) for c in commands),
               "peak_rss_mb": max((c.get("maxrss_kb", 0) for c in commands),
                                  default=0) / 1024.0}
        self.passes.setdefault(mode, []).append(rec)
        return rec

    def run_pass(self, mode):
        order = list(self.bases)
        self.rng.shuffle(order)
        t0 = time.monotonic()
        commands = [self.run_one(self.argv(base, mode), mode == "traced")
                    for base in order]
        return self.add_pass(mode, time.monotonic() - t0, commands)

    def run_round(self):
        """One certified and one answer pass, interleaved in a shuffled order.

        A command that answer mode runs unchanged is run once and counted in
        both passes, so the round spends its time on distinct commands only.
        """
        jobs = sorted({key_of(self.argv(b, m)): self.argv(b, m)
                       for b in self.bases for m in ("certified", "answer")}.items())
        self.rng.shuffle(jobs)
        t0 = time.monotonic()
        done = {key: self.run_one(argv, False) for key, argv in jobs}
        wall = time.monotonic() - t0
        for mode in ("certified", "answer"):
            self.add_pass(mode, wall, [done[key_of(self.argv(b, mode))]
                                       for b in self.bases])
        return wall

    def _check(self, argv, rec, traced):
        want = self.expected.get(key_of(argv))
        if want is None:
            self._fail(argv, "no recorded report")
            return
        if rec["exit"] != want["exit"]:
            self._fail(argv, "exit code %s, recorded %s" % (rec["exit"], want["exit"]))
        elif comparable(rec["report"]) != want["report"]:
            self._fail(argv, "report differs from the recorded one")
        if not traced:
            self.untraced_reports.setdefault(key_of(argv), rec["report"])
            return
        if not rec.get("restored"):
            self._fail(argv, "tracer left an engine attribute changed")
        # a traced pass always follows an untraced certified one
        if rec["report"] != self.untraced_reports.get(key_of(argv)):
            self._fail(argv, "traced report differs from the untraced one")

    def schedule(self, modes, seconds):
        """Run passes until the next one would overrun ``seconds``.

        Every mode gets at least one pass; after that the mode with the least
        time spent so far goes next, among those whose last pass still fits.
        """
        spent = {m: 0.0 for m in modes}
        last = {}
        while self.elapsed() <= HARD_STOP_S:
            todo = [m for m in modes if m not in last]
            if not todo:
                fits = [m for m in modes if self.elapsed() + last[m] <= seconds]
                if not fits:
                    break
                todo = sorted(fits, key=lambda m: (spent[m], modes.index(m)))
            rec = self.run_pass(todo[0])
            spent[todo[0]] += rec["wall"]
            last[todo[0]] = rec["wall"]

    def schedule_rounds(self, seconds):
        """Run rounds until the next one would overrun ``seconds``."""
        last = self.run_round()
        while self.elapsed() + last <= min(seconds, HARD_STOP_S):
            last = self.run_round()


# -- statistics -------------------------------------------------------------------

def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten samples above it,
    as (percentile, value), or None when there are fewer than 11 samples."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


def summary(values, value=None):
    """``value`` defaults to the median of ``values``; the tail percentile and
    the count always describe ``values``."""
    tail = tail_percentile(values)
    return {"median": statistics.median(values) if value is None else value,
            "n": len(values),
            "tail_percentile": tail[0] if tail else None,
            "tail_value": tail[1] if tail else None}


def pass_time(runner, mode, kind):
    """Sum over the workload's commands of each command's median main() time.

    Every untraced run of the same argv counts, in whichever pass it ran; a
    sum of per-command medians is steadier than a median of pass sums when
    a run holds only a few passes.
    """
    samples = runner.samples[kind]
    keys = [key_of(runner.argv(b, mode)) for b in runner.bases]
    if not all(samples.get(k) for k in keys):
        return None
    return sum(statistics.median(samples[k]) for k in keys)


def end_to_end(runner):
    """Summaries of the end-to-end metrics.  Times are at the reference host
    speed (``calibration.py``); ``raw_median`` is the same median unscaled."""
    out = {}
    for name, mode in (("certified_s", "certified"), ("answer_s", "answer")):
        passes = runner.passes.get(mode, [])
        value = pass_time(runner, mode, "scaled")
        if passes and value is not None:
            out[name] = summary([p["scaled_s"] for p in passes], value)
            out[name]["raw_median"] = pass_time(runner, mode, "raw")
    if runner.setup["scaled"]:
        out["setup_s"] = summary(runner.setup["scaled"])
        out["setup_s"]["raw_median"] = statistics.median(runner.setup["raw"])
    cert = runner.passes.get("certified")
    if cert:
        out["peak_rss_mb"] = summary([p["peak_rss_mb"] for p in cert])
    return out


def traced_pass_metrics(rec, untraced_median):
    from tracer import LAYERS, check_spans
    calls, seconds, counters = {}, {}, {}
    own = {layer: 0.0 for layer in LAYERS}
    stability = 0.0
    problems = []
    for c in rec["commands"]:
        if "error" in c:
            continue
        st = c["stats"]
        for k, v in st["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in st["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
        for k, v in st["counters"].items():
            counters[k] = (max(counters.get(k, 0), v) if k == "exactlin.max_coeff_bits"
                           else counters.get(k, 0) + v)
        cmd_own, cmd_problems = check_spans(c["spans"])
        problems += ["%s: %s" % (c["key"], p) for p in cmd_problems]
        for layer, v in cmd_own.items():
            own[layer] += v
        layer_by_id = {s[0]: s[2] for s in c["spans"]}
        stability += sum(s[5] - s[4] for s in c["spans"]
                         if s[6] == "stability" and s[1] is not None
                         and layer_by_id[s[1]] == "workbench")
    counts = dict(calls, **counters)
    out = {}
    for name, (unit, how) in PER_LAYER.items():
        kind = how[0]
        if kind == "self":
            v = own[how[1]]
        elif kind == "stability":
            v = stability
        elif kind == "seconds":
            v = seconds.get(how[1], 0.0)
        elif kind in ("calls", "sum", "max"):
            v = counts.get(how[1], 0)
        elif kind == "ratio":
            den = counts.get(how[2], 0)
            v = counts.get(how[1], 0) / den if den else 0.0
        else:                                   # overhead
            v = rec["main_s"] / untraced_median if untraced_median else 0.0
        out[name] = v
    return out, own, problems


def per_layer(runner):
    untraced = statistics.median(p["main_s"] for p in runner.passes["certified"])
    per_pass = []
    problems = []
    for rec in runner.passes["traced"]:
        values, own, probs = traced_pass_metrics(rec, untraced)
        per_pass.append(values)
        problems += probs
        # the root span and the child's timer read the clock a few microseconds
        # apart, so allow at least a millisecond per command
        gap = abs(sum(own.values()) - rec["main_s"])
        if gap > max(abs(rec["main_s"] - untraced), 1e-3 * len(rec["commands"])):
            problems.append("layer self times sum to %.4f s, traced wall %.4f s"
                            % (sum(own.values()), rec["main_s"]))
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in PER_LAYER}
    return metrics, problems


# -- provenance ---------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "cdgl")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None


def provenance(runner, args, load_before):
    per_cmd = {}
    for mode, passes in runner.passes.items():
        times = {}
        for p in passes:
            for c in p["commands"]:
                if "main_s" in c:
                    times.setdefault(c["key"], []).append(c["main_s"])
        per_cmd[mode] = {k: statistics.median(v) for k, v in sorted(times.items())}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()), "commit": git_commit(),
        "source_sha256": source_digest(),
        "passes": {m: len(p) for m, p in runner.passes.items()},
        "calibration_median_s": (statistics.median(runner.calibration)
                                 if runner.calibration else None),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "per_command_median_s": per_cmd,
        "failures": runner.failures,
        "untraced_samples": runner.log,
    }


# -- entry points -------------------------------------------------------------------

def bench(args):
    load_before = list(os.getloadavg())
    check_engine()
    runner = Runner(args.workload, args.seed)
    problems = []
    if args.trace:
        runner.schedule(["certified", "traced"], args.seconds)
        values, problems = per_layer(runner)
        metrics = {n: {"value": values[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
        details = {}
    else:
        runner.schedule_rounds(args.seconds)
        details = end_to_end(runner)
        metrics = {n: {"value": d["median"], "unit": END_TO_END_UNITS[n]}
                   for n, d in details.items()}
    prov = provenance(runner, args, load_before)
    failed = len(runner.failures)
    fail_ratio = failed / runner.attempted if runner.attempted else 1.0
    for name, d in details.items():
        tail = ("p%.1f %.4f" % (d["tail_percentile"], d["tail_value"])
                if d["tail_percentile"] is not None else "no percentile with 10 beyond")
        raw = ("  (unscaled %.4f)" % d["raw_median"]) if "raw_median" in d else ""
        print("%-12s median %.4f %s  %s  n=%d%s" % (name, d["median"],
                                                    END_TO_END_UNITS[name], tail,
                                                    d["n"], raw))
    print("fail_ratio   %.4f ratio  (%d of %d)" % (fail_ratio, failed, runner.attempted))
    for f in runner.failures + problems:
        print("FAILED " + f)
    result = {"correct": failed == 0 and not problems, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "fail_ratio": fail_ratio, "end_to_end": details,
                   "trace_problems": problems, "provenance": prov}, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, "%s-spans.jsonl" % args.workload), "w",
                  encoding="utf-8") as fh:
            for i, rec in enumerate(runner.passes["traced"]):
                for c in rec["commands"]:
                    for s in c.get("spans", ()):
                        fh.write(json.dumps({"request": "%d:%s" % (i, c["key"]),
                                             "id": s[0], "parent": s[1],
                                             "layer": s[2], "name": s[3],
                                             "start": s[4], "end": s[5],
                                             "phase": s[6]}) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def self_check():
    """Each workload once at reduced caps: answers, trace and metric names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True

    def report(good, what):
        nonlocal ok
        ok = ok and good
        print("%s  %s" % ("PASS" if good else "FAIL", what))

    check_engine()
    report(set(WORKLOADS) == {w["name"] for w in spec["workloads"]},
           "BENCHMARK.json names the workloads defined here")
    report(set(PER_LAYER) == {m["name"] for m in spec["per_layer"]}
           and set(END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]},
           "BENCHMARK.json names the metrics computed here")
    for workload in WORKLOADS:
        runner = Runner(workload, 0, level="quick")
        for mode in ("certified", "answer", "traced"):
            runner.run_pass(mode)
        report(not runner.failures, "%s: %d answers match the records, traced "
               "reports identical, attributes restored%s"
               % (workload, runner.attempted, "".join("\n      " + f
                                                      for f in runner.failures)))
        e2e = end_to_end(runner)
        report(set(e2e) == set(END_TO_END_UNITS) and all(
            d["median"] > 0 for d in e2e.values()),
            "%s: every end-to-end metric emitted and nonzero" % workload)
        values, problems = per_layer(runner)
        report(not problems, "%s: spans nest, self times >= 0 and sum to the "
               "traced wall time within the overhead%s"
               % (workload, "".join("\n      " + p for p in problems[:5])))
        report(set(values) == set(PER_LAYER), "%s: every per-layer metric emitted "
               "(overhead ratio %.2f)" % (workload, values["trace.overhead_ratio"]))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run each workload once at reduced caps and check the "
                         "answers, the trace and the metric names")
    args = ap.parse_args(argv)
    try:
        if args.check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
